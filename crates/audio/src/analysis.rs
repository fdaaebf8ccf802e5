//! Signal analysis for the experiments.
//!
//! The paper's evaluation is largely by ear ("our experience so far has
//! not revealed any audible defects", "any phase difference ... is
//! inaudible"). A reproduction needs numbers instead: RMS levels,
//! SNR between a reference and a processed stream (codec loss),
//! cross-correlation lag (inter-speaker playback offset, §3.2), and
//! dropout detection (skipped audio from overflowing buffers, §3.1 and
//! §3.4).

/// Root-mean-square level of a sample block, in full-scale units
/// (0.0 = silence, ~0.707 = full-scale sine).
pub fn rms(samples: &[i16]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sum: f64 = samples
        .iter()
        .map(|&s| {
            let v = s as f64 / 32_768.0;
            v * v
        })
        .sum();
    (sum / samples.len() as f64).sqrt()
}

/// Signal-to-noise ratio in dB between a reference and a degraded copy
/// of the same signal. Compares the overlapping prefix; returns `None`
/// if either input is empty or the reference is pure silence.
pub fn snr_db(reference: &[i16], degraded: &[i16]) -> Option<f64> {
    let n = reference.len().min(degraded.len());
    if n == 0 {
        return None;
    }
    let mut signal = 0.0f64;
    let mut noise = 0.0f64;
    for i in 0..n {
        let r = reference[i] as f64;
        let d = degraded[i] as f64;
        signal += r * r;
        noise += (r - d) * (r - d);
    }
    if signal == 0.0 {
        return None;
    }
    if noise == 0.0 {
        // Identical: report a large finite ceiling.
        return Some(120.0);
    }
    Some(10.0 * (signal / noise).log10())
}

/// Finds the lag (in samples) of `b` relative to `a` that maximizes
/// normalized cross-correlation, searching `-max_lag..=max_lag`.
///
/// A positive result means `b` is *delayed* by that many samples with
/// respect to `a` — for two speaker output taps, the playback offset
/// between them. Returns `None` if the overlap at every lag is shorter
/// than 32 samples or either signal is silent.
pub fn correlation_lag(a: &[i16], b: &[i16], max_lag: usize) -> Option<isize> {
    const MIN_OVERLAP: usize = 32;
    let mut best: Option<(f64, isize)> = None;
    for lag in -(max_lag as isize)..=(max_lag as isize) {
        // For lag >= 0: compare a[i + lag] with b[i]... we want b
        // delayed by `lag` to align, i.e. b[i + lag] ~ a[i].
        let (a_off, b_off) = if lag >= 0 {
            (0usize, lag as usize)
        } else {
            ((-lag) as usize, 0usize)
        };
        if a_off >= a.len() || b_off >= b.len() {
            continue;
        }
        let n = (a.len() - a_off).min(b.len() - b_off);
        if n < MIN_OVERLAP {
            continue;
        }
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for i in 0..n {
            let x = a[a_off + i] as f64;
            let y = b[b_off + i] as f64;
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            continue;
        }
        let score = dot / (na.sqrt() * nb.sqrt());
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, lag));
        }
    }
    best.map(|(_, lag)| lag)
}

/// Fraction of samples that are exact zeros.
pub fn zero_fraction(samples: &[i16]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s == 0).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{render_interleaved, Sine};

    fn sine(freq: f32, rate: u32, n: usize) -> Vec<i16> {
        let mut s = Sine::new(freq, rate, 0.8);
        render_interleaved(&mut s, 1, n)
    }

    #[test]
    fn rms_of_sine_is_peak_over_sqrt2() {
        let s = sine(1_000.0, 48_000, 48_000);
        let r = rms(&s);
        let expected = 0.8 / 2f64.sqrt();
        assert!((r - expected).abs() < 0.01, "rms {r}");
    }

    #[test]
    fn snr_identical_is_ceiling_and_degraded_is_finite() {
        let s = sine(440.0, 44_100, 4_410);
        assert_eq!(snr_db(&s, &s), Some(120.0));
        let noisy: Vec<i16> = s
            .iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_add(if i % 2 == 0 { 100 } else { -100 }))
            .collect();
        let snr = snr_db(&s, &noisy).unwrap();
        assert!(snr > 30.0 && snr < 60.0, "snr {snr}");
        assert_eq!(snr_db(&[], &s), None);
        assert_eq!(snr_db(&[0, 0], &[1, 1]), None, "silent reference");
    }

    #[test]
    fn snr_decreases_with_more_noise() {
        let s = sine(440.0, 44_100, 4_410);
        let add = |amount: i16| -> Vec<i16> {
            s.iter()
                .enumerate()
                .map(|(i, &v)| v.saturating_add(if i % 2 == 0 { amount } else { -amount }))
                .collect()
        };
        let a = snr_db(&s, &add(50)).unwrap();
        let b = snr_db(&s, &add(500)).unwrap();
        assert!(a > b + 10.0, "{a} vs {b}");
    }

    #[test]
    fn correlation_finds_known_shift() {
        let s = sine(313.0, 44_100, 8_000);
        for shift in [0isize, 17, 250, -63] {
            let shifted: Vec<i16> = if shift >= 0 {
                let mut v = vec![0i16; shift as usize];
                v.extend_from_slice(&s[..s.len() - shift as usize]);
                v
            } else {
                s[(-shift) as usize..].to_vec()
            };
            let lag = correlation_lag(&s, &shifted, 400).unwrap();
            assert_eq!(lag, shift, "shift {shift}");
        }
    }

    #[test]
    fn correlation_rejects_silence_and_tiny_overlap() {
        let z = vec![0i16; 1_000];
        let s = sine(440.0, 44_100, 1_000);
        assert_eq!(correlation_lag(&z, &s, 100), None);
        assert_eq!(correlation_lag(&s[..10], &s[..10], 5), None);
    }

    #[test]
    fn zero_run_detection() {
        let mut s = sine(440.0, 44_100, 1_000);
        for v in &mut s[300..500] {
            *v = 0;
        }
        assert!(zero_fraction(&s) >= 0.2);
        assert_eq!(zero_fraction(&[]), 0.0);
    }
}
