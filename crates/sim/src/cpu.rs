//! A cycle-budget CPU model for slow embedded hosts.
//!
//! The paper's Ethernet Speaker runs on a 233 MHz Geode; Figure 4 and
//! §3.4 both hinge on the CPU being a scarce resource (compression
//! load grows with stream count; decode time stalls the playback
//! pipeline when buffers are large). We model the CPU as a single FIFO
//! server with a fixed clock rate: work is submitted in cycles, and the
//! model answers "when does this work finish" plus per-interval busy
//! fractions that reproduce a `top`-style utilization series.

use crate::series::{BucketAccumulator, TimeSeries};
use crate::time::{SimDuration, SimTime};

/// How codec transforms are priced when billing work to a [`SimCpu`].
///
/// The paper's Figure 4 was measured against a direct O(N²) MDCT-class
/// codec cost; the workspace's fast path now runs an O(N log N)
/// FFT-based transform. Experiments that reproduce the paper's CPU
/// curves select [`CostModel::Direct`] so the billed cycles still match
/// the 233 MHz Geode calibration, while production-shaped runs keep the
/// default [`CostModel::Fft`] and bill what the fast path actually
/// costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Bill the direct O(N²) transform cost (paper-fidelity mode; the
    /// Figure 4 calibration in `tests/paper/calib.rs` assumes this).
    Direct,
    /// Bill the O(N log N) FFT-based transform cost (the default: what
    /// the optimized hot path actually performs).
    #[default]
    Fft,
}

/// A single-core FIFO CPU with a fixed clock rate and utilization
/// accounting.
///
/// # Examples
///
/// ```
/// use es_sim::{SimCpu, SimDuration, SimTime};
///
/// // A 233 MHz Geode-class CPU sampled at 1-second intervals.
/// let mut cpu = SimCpu::new(233_000_000, SimDuration::from_secs(1));
/// // 233M cycles of work submitted at t=0 finish at t=1s.
/// let done = cpu.submit(SimTime::ZERO, 233_000_000);
/// assert_eq!(done, SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone)]
pub struct SimCpu {
    clock_hz: u64,
    sample_interval: SimDuration,
    busy_until: SimTime,
    busy_ns: BucketAccumulator,
    total_busy: SimDuration,
    total_cycles: u64,
}

impl SimCpu {
    /// Creates a CPU with the given clock rate, sampling utilization
    /// into buckets of `sample_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is zero or `sample_interval` is zero.
    pub fn new(clock_hz: u64, sample_interval: SimDuration) -> Self {
        assert!(clock_hz > 0, "clock rate must be non-zero");
        SimCpu {
            clock_hz,
            sample_interval,
            busy_until: SimTime::ZERO,
            busy_ns: BucketAccumulator::new("cpu-busy-ns", sample_interval),
            total_busy: SimDuration::ZERO,
            total_cycles: 0,
        }
    }

    /// The modelled clock rate in Hz.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Converts a cycle count to execution time on this CPU, rounding
    /// up to the next nanosecond.
    pub fn cycles_to_duration(&self, cycles: u64) -> SimDuration {
        let ns = (cycles as u128 * 1_000_000_000).div_ceil(self.clock_hz as u128);
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Submits `cycles` of work at time `now`; returns the completion
    /// time. Work queues FIFO behind any outstanding work, which is how
    /// saturation (demand above capacity) manifests: completion times
    /// drift ever later and [`SimCpu::backlog`] grows.
    pub fn submit(&mut self, now: SimTime, cycles: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let dur = self.cycles_to_duration(cycles);
        let end = start + dur;
        self.record_busy_span(start, end);
        self.busy_until = end;
        self.total_busy += dur;
        self.total_cycles += cycles;
        end
    }

    /// The amount of queued-but-unfinished work at `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// True if the CPU has no outstanding work at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Total busy time accumulated so far.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Total cycles consumed so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Mean utilization (0..=1) over the interval `[SimTime::ZERO, until]`.
    pub fn mean_utilization(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        // Busy time beyond `until` has been booked but not yet "spent".
        let spent = self
            .total_busy
            .saturating_sub(self.busy_until.saturating_since(until));
        (spent.as_nanos() as f64 / until.as_nanos() as f64).min(1.0)
    }

    fn record_busy_span(&mut self, start: SimTime, end: SimTime) {
        // Split the busy span across sample buckets so each bucket gets
        // exactly the nanoseconds spent inside it.
        let width = self.sample_interval.as_nanos();
        let mut cursor = start.as_nanos();
        let end_ns = end.as_nanos();
        while cursor < end_ns {
            let bucket_end = (cursor / width + 1) * width;
            let span_end = bucket_end.min(end_ns);
            self.busy_ns
                .add(SimTime::from_nanos(cursor), (span_end - cursor) as f64);
            cursor = span_end;
        }
    }

    /// Consumes the model and returns the utilization series in percent
    /// (0–100), one sample per interval, up to the bucket containing
    /// `until`.
    pub fn utilization_series(self, name: impl Into<String>, until: SimTime) -> TimeSeries {
        let interval_ns = self.sample_interval.as_nanos() as f64;
        let busy = self.busy_ns.finish(until);
        let mut out = TimeSeries::new(name);
        for &(t, busy_ns) in busy.samples() {
            out.push(t, (busy_ns / interval_ns * 100.0).min(100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> SimCpu {
        SimCpu::new(100_000_000, SimDuration::from_secs(1)) // 100 MHz
    }

    #[test]
    fn cycles_to_duration_scales_with_clock() {
        let c = cpu();
        assert_eq!(c.cycles_to_duration(100_000_000), SimDuration::from_secs(1));
        assert_eq!(
            c.cycles_to_duration(1_000_000),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn submit_on_idle_cpu_runs_immediately() {
        let mut c = cpu();
        let end = c.submit(SimTime::from_secs(5), 50_000_000);
        assert_eq!(end, SimTime::from_millis(5500));
        assert!(c.is_idle(SimTime::from_secs(6)));
    }

    #[test]
    fn work_queues_fifo_and_backlog_grows() {
        let mut c = cpu();
        // Submit 2 seconds of work at t=0, then more at t=0.
        let e1 = c.submit(SimTime::ZERO, 100_000_000);
        let e2 = c.submit(SimTime::ZERO, 100_000_000);
        assert_eq!(e1, SimTime::from_secs(1));
        assert_eq!(e2, SimTime::from_secs(2));
        assert_eq!(
            c.backlog(SimTime::from_millis(500)),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn utilization_reflects_duty_cycle() {
        let mut c = cpu();
        // 250 ms of work at the start of each of 4 seconds = 25%.
        for s in 0..4 {
            c.submit(SimTime::from_secs(s), 25_000_000);
        }
        let series = c.utilization_series("u", SimTime::from_secs(4));
        let vals: Vec<f64> = series.values().collect();
        assert_eq!(vals.len(), 4);
        for v in vals {
            assert!((v - 25.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn saturation_pins_utilization_at_100() {
        let mut c = cpu();
        // 2x capacity demand each second for 3 seconds.
        for s in 0..3 {
            c.submit(SimTime::from_secs(s), 200_000_000);
        }
        let series = c.utilization_series("u", SimTime::from_secs(3));
        for v in series.values() {
            assert!((v - 100.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn busy_span_splits_across_buckets() {
        let mut c = cpu();
        // 1 second of work starting at t=0.5s: 50% in bucket 0, 50% in bucket 1.
        c.submit(SimTime::from_millis(500), 100_000_000);
        let series = c.utilization_series("u", SimTime::from_secs(2));
        let vals: Vec<f64> = series.values().collect();
        assert!((vals[0] - 50.0).abs() < 1e-6);
        assert!((vals[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn mean_utilization_accounts_for_unfinished_work() {
        let mut c = cpu();
        c.submit(SimTime::ZERO, 400_000_000); // 4 s of work
                                              // After 2 s, exactly half the work is done: 100% busy so far.
        assert!((c.mean_utilization(SimTime::from_secs(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_clock_panics() {
        let _ = SimCpu::new(0, SimDuration::from_secs(1));
    }
}
