//! Time series collection and summary statistics.
//!
//! Every experiment harness reports one or more series of
//! `(virtual time, value)` samples — CPU utilization per second,
//! context switches per vmstat interval, playback offsets. This module
//! holds the shared representation plus the summary statistics the
//! paper quotes (means over an observation window, maxima).

use crate::time::{SimDuration, SimTime};

/// A named series of timestamped samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples should be pushed in time order; order
    /// is preserved as given.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.samples.push((at, value));
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// The sample values without timestamps.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|&(_, v)| v)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.values().sum::<f64>() / self.samples.len() as f64)
    }

    /// Restricts to samples with `start <= t < end` (a measurement
    /// window, e.g. "after warm-up").
    pub fn window(&self, start: SimTime, end: SimTime) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            samples: self
                .samples
                .iter()
                .filter(|&&(t, _)| t >= start && t < end)
                .copied()
                .collect(),
        }
    }
}

/// Accumulates a quantity into fixed-width time buckets, producing one
/// sample per bucket — the shape of `vmstat`-style periodic sampling.
///
/// Used for "context switches per one-second interval" (Figure 5) and
/// "CPU usage per second" (Figure 4).
#[derive(Debug, Clone)]
pub struct BucketAccumulator {
    interval: SimDuration,
    current_bucket: u64,
    current_sum: f64,
    series: TimeSeries,
}

impl BucketAccumulator {
    /// Creates an accumulator with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(name: impl Into<String>, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "bucket interval must be non-zero");
        BucketAccumulator {
            interval,
            current_bucket: 0,
            current_sum: 0.0,
            series: TimeSeries::new(name),
        }
    }

    fn bucket_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.interval.as_nanos()
    }

    /// Adds `amount` to the bucket containing `at`. Times must be
    /// non-decreasing across calls; earlier buckets are flushed as the
    /// clock passes them (empty intermediate buckets emit zero).
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let b = self.bucket_of(at);
        debug_assert!(b >= self.current_bucket, "samples must be time-ordered");
        while self.current_bucket < b {
            self.flush_current();
        }
        self.current_sum += amount;
    }

    fn flush_current(&mut self) {
        let stamp = SimTime::from_nanos((self.current_bucket + 1) * self.interval.as_nanos());
        self.series.push(stamp, self.current_sum);
        self.current_sum = 0.0;
        self.current_bucket += 1;
    }

    /// Flushes all buckets up to (and including) the one containing
    /// `until`, then returns the finished series.
    pub fn finish(mut self, until: SimTime) -> TimeSeries {
        let last = self.bucket_of(until);
        while self.current_bucket < last {
            self.flush_current();
        }
        self.series
    }

    /// The series of already-completed buckets (not including the one
    /// in progress).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(pairs: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("t");
        for &(ms, v) in pairs {
            s.push(SimTime::from_millis(ms), v);
        }
        s
    }

    #[test]
    fn empty_series_stats_are_none() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn basic_stats() {
        let s = ts(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]);
        assert_eq!(s.mean(), Some(2.5));
    }

    #[test]
    fn window_filters_half_open() {
        let s = ts(&[(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)]);
        let w = s.window(SimTime::from_millis(10), SimTime::from_millis(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(2.5));
    }

    #[test]
    fn buckets_accumulate_and_flush() {
        let mut acc = BucketAccumulator::new("cs", SimDuration::from_secs(1));
        acc.add(SimTime::from_millis(100), 1.0);
        acc.add(SimTime::from_millis(900), 1.0);
        acc.add(SimTime::from_millis(1100), 1.0);
        // Skips a bucket entirely: bucket for t in [2s,3s) stays empty.
        acc.add(SimTime::from_millis(3500), 5.0);
        let s = acc.finish(SimTime::from_secs(4));
        let vals: Vec<f64> = s.values().collect();
        assert_eq!(vals, vec![2.0, 1.0, 0.0, 5.0]);
        // Bucket stamps are the bucket end times.
        assert_eq!(s.samples()[0].0, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_interval_panics() {
        let _ = BucketAccumulator::new("x", SimDuration::ZERO);
    }
}
