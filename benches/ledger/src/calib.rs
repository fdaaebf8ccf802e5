//! Host-speed calibration: a fixed piece of work, owned by the
//! benchmark and touching none of the program's code, timed a dozen
//! times or more inside every child.
//!
//! The hosts this runs on are shared. Over a quarter of an hour the
//! same child reads anywhere between 0.6× and 1× its quiet speed, in
//! phases minutes long, and everything on the machine slows together —
//! a Python loop next to the workload tracked it with a correlation of
//! 0.93 (README, "Steadiness"). No statistic over one run's children
//! sees through a phase that outlasts the run, so the two wall-clock
//! figures `BENCHMARK.json` gates are reported *at reference host
//! speed*: scaled by how much slower than [`REFERENCE_BURST_S`] this
//! fixed work ran beside them.

use std::hint::black_box;
use std::time::Instant;

/// Floats in the arithmetic kernel's buffer (32 KiB: level-1 resident).
const SIGNAL: usize = 8 * 1024;
/// Passes of the arithmetic kernel per burst (≈8 ms).
const SIGNAL_PASSES: usize = 384;
/// Entries in the branchy kernel's table (64 KiB).
const TABLE: usize = 8 * 1024;
/// Steps of the branchy kernel per burst (≈8 ms).
const TABLE_STEPS: usize = 1_800_000;

/// Wall seconds of one burst on the baseline host at its quiet speed
/// (tenth percentile of 12 000 bursts taken over 35 minutes). Only a
/// scale: it makes `host_speed` read 1 there, and cancels out of every
/// comparison between two runs on one machine.
pub const REFERENCE_BURST_S: f64 = 0.015_5;

/// The fixed work and the time it has taken so far.
pub struct Calibrator {
    signal: Vec<f32>,
    table: Vec<u64>,
    state: u64,
    bursts: u32,
    bursts_s: f64,
    spent_s: f64,
}

impl Calibrator {
    /// Fills the two buffers (counted in [`Calibrator::spent_s`], like
    /// the bursts).
    pub fn new() -> Self {
        let began = Instant::now();
        let mut c = Calibrator {
            signal: (0..SIGNAL).map(|i| (i % 251) as f32 / 251.0).collect(),
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
            bursts: 0,
            bursts_s: 0.0,
            spent_s: 0.0,
        };
        c.spent_s = began.elapsed().as_secs_f64();
        c
    }

    /// Runs the fixed work once and adds its wall to the tally.
    pub fn burst(&mut self) {
        let began = Instant::now();
        self.arithmetic();
        self.branchy();
        let s = began.elapsed().as_secs_f64();
        self.bursts += 1;
        self.bursts_s += s;
        self.spent_s += s;
    }

    /// Four independent multiply-add chains over a level-1 buffer: what
    /// the codec's transforms look like to the core.
    fn arithmetic(&mut self) {
        let mut acc = [0.0f32; 4];
        for _ in 0..SIGNAL_PASSES {
            for quad in self.signal.chunks_exact(4) {
                for (a, x) in acc.iter_mut().zip(quad) {
                    *a = a.mul_add(0.999_9, *x);
                }
            }
        }
        self.signal[0] = black_box(acc.iter().sum::<f32>()).fract();
    }

    /// A pseudo-random walk with data-dependent branches and table
    /// look-ups: what packet parsing, bit unpacking and the event heap
    /// look like.
    fn branchy(&mut self) {
        let mut x = self.state;
        let mut sum = 0u64;
        for _ in 0..TABLE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) % TABLE;
            let v = self.table[slot];
            if v & 1 == 0 {
                sum = sum.wrapping_add(v >> 3);
            } else if v & 2 == 0 {
                sum ^= v.rotate_left(9);
            } else {
                self.table[slot] = v.wrapping_add(sum | 1);
            }
        }
        self.state = black_box(x ^ sum) | 1;
    }

    /// Wall seconds spent calibrating so far; callers take it out of
    /// whatever interval the bursts fell in.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Reference burst time ÷ mean measured burst time: 1 on the quiet
    /// baseline host, 0.6 when everything takes 1/0.6 as long. `None`
    /// before the first burst.
    pub fn host_speed(&self) -> Option<f64> {
        (self.bursts_s > 0.0).then(|| REFERENCE_BURST_S * f64::from(self.bursts) / self.bursts_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_are_timed_and_accounted() {
        let mut c = Calibrator::new();
        assert_eq!(c.host_speed(), None);
        let before = c.spent_s();
        c.burst();
        c.burst();
        assert!(c.spent_s() > before);
        let speed = c.host_speed().expect("two bursts");
        // Any machine this runs on is within 20× of the baseline host
        // (an unoptimised test build included).
        assert!(speed > 0.005 && speed < 20.0, "{speed}");
    }
}
