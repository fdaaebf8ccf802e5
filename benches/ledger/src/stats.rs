//! Order statistics for the ledger: medians, quartiles, and the
//! tail-percentile rule ("the highest percentile that still has at
//! least ten samples beyond it").

/// Five-number summary of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median — the spread
    /// figure a bound is judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartile cut points by the *exclusive* method — the rule Python's
/// `statistics.quantiles(values, n=4)` applies, so the figures printed
/// here are the ones an outside checker recomputes. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Summarizes `values`; a single sample collapses every field onto it.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let (&min, &max) = (v.first()?, v.last()?);
    let med = median(&v)?;
    let [q1, _, q3] = quartiles(&v).unwrap_or([med; 3]);
    Some(Summary {
        n: v.len(),
        min,
        q1,
        median: med,
        q3,
        max,
    })
}

/// The tail-percentile rule for a metric whose *small* values are the
/// bad ones (deadline slack): the lowest percentile, as a fraction in
/// `[0, 1]`, that still has at least ten of `n` samples beneath it.
/// `None` when fewer than twenty samples leave no such percentile on
/// the bad side of the median. (For a latency the mirror image,
/// `1 - p`, is the highest percentile with ten samples beyond it.)
pub fn low_tail_percentile(n: u64) -> Option<f64> {
    (n >= 20).then(|| 10.0 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_carries_spread_as_a_share_of_the_median() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.n, s.min, s.max, s.median), (5, 1.0, 5.0, 3.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let one = summarize(&[7.0]).expect("non-empty");
        assert_eq!((one.q1, one.q3, one.spread()), (7.0, 7.0, 0.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(low_tail_percentile(19), None);
        assert_eq!(low_tail_percentile(20), Some(0.5));
        assert_eq!(low_tail_percentile(1_000), Some(0.01));
        // 10 of 100_000 samples lie beneath p0.01 (beyond p99.99).
        let p = low_tail_percentile(100_000).expect("enough samples");
        assert!((p - 0.0001).abs() < 1e-12);
        // The percentile's rank is the tenth sample.
        assert_eq!((p * 100_000.0).round() as u64, 10);
    }
}
