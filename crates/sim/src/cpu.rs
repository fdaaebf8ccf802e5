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

/// Converts codec work units, encode or decode, to Geode-class CPU
/// cycles.
///
/// One rule prices every unit: the units are what the codec counts
/// for the arithmetic it actually runs (for OVL, the fold plus
/// `N/2`-point FFT of each MDCT window and the per-sample passes), and
/// one second of CD stereo at 50 ms packets, encoded at maximum
/// quality, counts 1 937 952 of them. Figure 4 implies one Vorbis CD
/// stream costs ≈ 11% of the 233 MHz Geode; billing it 26.5 M
/// cycles/s (11.4%) puts each unit at 26.5 M / 1.94 M ≈ 13.67 cycles.
/// `tests/paper/calib.rs` documents the derivation and measures it.
pub fn work_to_cycles(work_units: u64) -> u64 {
    work_units * 1_367 / 100
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
        }
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
    /// drift ever later.
    pub fn submit(&mut self, now: SimTime, cycles: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let dur = self.cycles_to_duration(cycles);
        let end = start + dur;
        self.record_busy_span(start, end);
        self.busy_until = end;
        end
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
        assert!(c.busy_until <= SimTime::from_secs(6));
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
            c.busy_until.saturating_since(SimTime::from_millis(500)),
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
    #[should_panic(expected = "non-zero")]
    fn zero_clock_panics() {
        let _ = SimCpu::new(0, SimDuration::from_secs(1));
    }
}
