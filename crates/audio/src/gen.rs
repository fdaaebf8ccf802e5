//! Deterministic signal generators.
//!
//! These stand in for the paper's "off-the-shelf audio application"
//! (mpg123, Real Audio player): the whole point of the VAD is that the
//! application is opaque and merely writes PCM, so any PCM writer
//! exercises the identical path. Generators are mono `f32` sources in
//! `[-1, 1]`; [`render_interleaved`] fans a source out to N interleaved
//! channels, and [`render_stereo`] renders distinct left/right sources.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mono sample source producing values in `[-1.0, 1.0]`.
pub trait Signal {
    /// Produces the next sample.
    fn next_sample(&mut self) -> f32;

    /// Fills `out` with consecutive samples.
    fn fill(&mut self, out: &mut [f32]) {
        for v in out {
            *v = self.next_sample();
        }
    }
}

/// A pure sine tone.
///
/// Implemented as a double-precision phasor rotation (4 multiplies and
/// 2 adds per sample) instead of a libm `sin` call — the synthesis
/// side of a one-speaker run spends its time here (the perf ledger's
/// `audio.gen_ms_per_audio_s`), and the recurrence is ~20× cheaper.
/// The phasor is re-derived from the exact phase every
/// [`Sine::RESYNC`] samples, so rounding drift cannot accumulate over
/// long streams; output is fully deterministic (pure function of the
/// constructor arguments and sample index).
#[derive(Debug, Clone)]
pub struct Sine {
    /// Phase step per sample, radians.
    step: f64,
    /// Current phasor: `(sin, cos)` of the present phase.
    sin: f64,
    cos: f64,
    /// Per-sample rotation: `(sin, cos)` of `step`.
    step_sin: f64,
    step_cos: f64,
    /// Samples emitted since the last exact resync.
    since_sync: u32,
    /// Absolute sample index of the last exact resync.
    sync_base: u64,
    amplitude: f32,
}

impl Sine {
    /// Samples between exact-phase re-derivations of the phasor.
    const RESYNC: u32 = 1 << 15;

    /// Creates a sine at `freq` Hz for a stream sampled at
    /// `sample_rate` Hz with peak `amplitude` (clamped to `[0, 1]`).
    pub fn new(freq: f32, sample_rate: u32, amplitude: f32) -> Self {
        let step = core::f64::consts::TAU * freq as f64 / sample_rate as f64;
        Sine {
            step,
            sin: 0.0,
            cos: 1.0,
            step_sin: step.sin(),
            step_cos: step.cos(),
            since_sync: 0,
            sync_base: 0,
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }

    #[inline]
    fn advance(&mut self) {
        self.since_sync += 1;
        if self.since_sync == Self::RESYNC {
            self.sync_base += Self::RESYNC as u64;
            self.since_sync = 0;
            let phase = (self.sync_base as f64 * self.step) % core::f64::consts::TAU;
            self.sin = phase.sin();
            self.cos = phase.cos();
        } else {
            let s = self.sin * self.step_cos + self.cos * self.step_sin;
            let c = self.cos * self.step_cos - self.sin * self.step_sin;
            self.sin = s;
            self.cos = c;
        }
    }
}

impl Signal for Sine {
    fn next_sample(&mut self) -> f32 {
        let v = self.sin as f32 * self.amplitude;
        self.advance();
        v
    }
}

/// A sum of sine partials with per-partial amplitude — a stand-in for
/// harmonically rich "music" content for codec experiments.
#[derive(Debug, Clone)]
pub struct MultiTone {
    partials: Vec<Sine>,
    norm: f32,
}

impl MultiTone {
    /// Creates a multi-tone from `(freq, amplitude)` pairs.
    pub fn new(sample_rate: u32, partials: &[(f32, f32)]) -> Self {
        let total: f32 = partials.iter().map(|&(_, a)| a.abs()).sum();
        let norm = if total > 1.0 { 1.0 / total } else { 1.0 };
        MultiTone {
            partials: partials
                .iter()
                .map(|&(f, a)| Sine::new(f, sample_rate, a.abs().min(1.0)))
                .collect(),
            norm,
        }
    }

    /// A fixed "music-like" chord: fundamental plus decaying harmonics
    /// over three notes, deterministic across runs.
    pub fn music(sample_rate: u32) -> Self {
        let mut partials = Vec::new();
        for &fundamental in &[220.0f32, 277.18, 329.63] {
            for h in 1..=6u32 {
                partials.push((fundamental * h as f32, 0.30 / h as f32));
            }
        }
        MultiTone::new(sample_rate, &partials)
    }
}

impl Signal for MultiTone {
    fn next_sample(&mut self) -> f32 {
        let sum: f32 = self.partials.iter_mut().map(|p| p.next_sample()).sum();
        sum * self.norm
    }

    /// Batch render, partial-outer for locality. Bit-identical to
    /// repeated [`Signal::next_sample`] calls: each output sample sums
    /// the partials in declaration order with an `0.0` seed, exactly
    /// like the iterator `sum` above, then applies the same
    /// normalization.
    fn fill(&mut self, out: &mut [f32]) {
        out.fill(0.0);
        for p in &mut self.partials {
            for slot in out.iter_mut() {
                *slot += p.next_sample();
            }
        }
        for slot in out.iter_mut() {
            *slot *= self.norm;
        }
    }
}

/// Uniform white noise from a seeded RNG.
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    rng: StdRng,
    amplitude: f32,
}

impl WhiteNoise {
    /// Creates seeded noise with the given peak amplitude.
    pub fn new(seed: u64, amplitude: f32) -> Self {
        WhiteNoise {
            rng: StdRng::seed_from_u64(seed),
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }
}

impl Signal for WhiteNoise {
    fn next_sample(&mut self) -> f32 {
        (self.rng.gen::<f32>() * 2.0 - 1.0) * self.amplitude
    }
}

/// A linear frequency sweep (chirp) from `f0` to `f1` over `duration_s`
/// seconds, then holding `f1`.
#[derive(Debug, Clone)]
pub struct Sweep {
    phase: f32,
    freq: f32,
    f1: f32,
    df_per_sample: f32,
    sample_rate: f32,
    amplitude: f32,
}

impl Sweep {
    /// Creates the sweep.
    pub fn new(f0: f32, f1: f32, duration_s: f32, sample_rate: u32, amplitude: f32) -> Self {
        let n = (duration_s * sample_rate as f32).max(1.0);
        Sweep {
            phase: 0.0,
            freq: f0,
            f1,
            df_per_sample: (f1 - f0) / n,
            sample_rate: sample_rate as f32,
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }
}

impl Signal for Sweep {
    fn next_sample(&mut self) -> f32 {
        let v = self.phase.sin() * self.amplitude;
        self.phase += core::f32::consts::TAU * self.freq / self.sample_rate;
        if self.phase > core::f32::consts::TAU {
            self.phase -= core::f32::consts::TAU;
        }
        let going_up = self.df_per_sample >= 0.0;
        if (going_up && self.freq < self.f1) || (!going_up && self.freq > self.f1) {
            self.freq += self.df_per_sample;
        }
        v
    }
}

/// Silence.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silence;

impl Signal for Silence {
    fn next_sample(&mut self) -> f32 {
        0.0
    }
}

/// A periodic unit impulse (click train); the sharp transients make
/// cross-correlation alignment in the sync experiments unambiguous.
#[derive(Debug, Clone)]
pub struct ImpulseTrain {
    period: u32,
    counter: u32,
    amplitude: f32,
}

impl ImpulseTrain {
    /// One impulse every `period` samples.
    pub fn new(period: u32, amplitude: f32) -> Self {
        assert!(period > 0, "impulse period must be non-zero");
        ImpulseTrain {
            period,
            counter: 0,
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }
}

impl Signal for ImpulseTrain {
    fn next_sample(&mut self) -> f32 {
        let v = if self.counter == 0 {
            self.amplitude
        } else {
            0.0
        };
        self.counter = (self.counter + 1) % self.period;
        v
    }
}

/// Converts a float sample in `[-1, 1]` to `i16` with clamping.
pub fn f32_to_i16(v: f32) -> i16 {
    (v.clamp(-1.0, 1.0) * 32_767.0).round() as i16
}

/// Converts an `i16` sample to a float in `[-1, 1]`.
pub fn i16_to_f32(v: i16) -> f32 {
    v as f32 / 32_768.0
}

/// Renders `frames` frames of a mono source duplicated across
/// `channels` interleaved channels.
pub fn render_interleaved(sig: &mut dyn Signal, channels: u8, frames: usize) -> Vec<i16> {
    assert!(channels >= 1, "need at least one channel");
    let mut out = Vec::with_capacity(frames * channels as usize);
    for _ in 0..frames {
        let s = f32_to_i16(sig.next_sample());
        for _ in 0..channels {
            out.push(s);
        }
    }
    out
}

/// Renders `frames` frames with distinct left and right sources,
/// interleaved L R L R.
pub fn render_stereo(left: &mut dyn Signal, right: &mut dyn Signal, frames: usize) -> Vec<i16> {
    let mut out = Vec::with_capacity(frames * 2);
    for _ in 0..frames {
        out.push(f32_to_i16(left.next_sample()));
        out.push(f32_to_i16(right.next_sample()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_period_and_amplitude() {
        let mut s = Sine::new(1_000.0, 48_000, 0.5);
        let samples: Vec<f32> = (0..48_000).map(|_| s.next_sample()).collect();
        let peak = samples.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!((peak - 0.5).abs() < 0.01, "peak {peak}");
        // Roughly 1000 positive-going zero crossings in one second.
        let crossings = samples
            .windows(2)
            .filter(|w| w[0] <= 0.0 && w[1] > 0.0)
            .count();
        assert!((crossings as i64 - 1_000).abs() <= 2, "{crossings}");
    }

    #[test]
    fn multitone_is_normalized() {
        let mut m = MultiTone::music(44_100);
        for _ in 0..44_100 {
            let v = m.next_sample();
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn white_noise_is_deterministic_per_seed() {
        let mut a = WhiteNoise::new(5, 1.0);
        let mut b = WhiteNoise::new(5, 1.0);
        let mut c = WhiteNoise::new(6, 1.0);
        let xs: Vec<f32> = (0..64).map(|_| a.next_sample()).collect();
        let ys: Vec<f32> = (0..64).map(|_| b.next_sample()).collect();
        let zs: Vec<f32> = (0..64).map(|_| c.next_sample()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn sweep_frequency_increases() {
        let rate = 48_000;
        let mut s = Sweep::new(100.0, 4_000.0, 1.0, rate, 1.0);
        let first: Vec<f32> = (0..4_800).map(|_| s.next_sample()).collect();
        for _ in 0..38_400 {
            s.next_sample();
        }
        let last: Vec<f32> = (0..4_800).map(|_| s.next_sample()).collect();
        let crossings = |v: &[f32]| v.windows(2).filter(|w| w[0] <= 0.0 && w[1] > 0.0).count();
        assert!(
            crossings(&last) > crossings(&first) * 4,
            "sweep did not rise: {} vs {}",
            crossings(&first),
            crossings(&last)
        );
    }

    #[test]
    fn impulse_train_period() {
        let mut t = ImpulseTrain::new(100, 1.0);
        let samples: Vec<f32> = (0..1_000).map(|_| t.next_sample()).collect();
        let hits: Vec<usize> = samples
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0.5)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 10);
        assert!(hits.windows(2).all(|w| w[1] - w[0] == 100));
    }

    #[test]
    fn f32_i16_conversion_clamps() {
        assert_eq!(f32_to_i16(0.0), 0);
        assert_eq!(f32_to_i16(1.0), 32_767);
        assert_eq!(f32_to_i16(-1.0), -32_767);
        assert_eq!(f32_to_i16(5.0), 32_767);
        assert_eq!(f32_to_i16(-5.0), -32_767);
        assert!((i16_to_f32(16_384) - 0.5).abs() < 0.001);
    }

    #[test]
    fn interleave_duplicates_channels() {
        let mut s = Sine::new(440.0, 44_100, 1.0);
        let stereo = render_interleaved(&mut s, 2, 100);
        assert_eq!(stereo.len(), 200);
        for f in stereo.chunks_exact(2) {
            assert_eq!(f[0], f[1]);
        }
    }

    #[test]
    fn stereo_render_differs_per_side() {
        let mut l = Sine::new(440.0, 44_100, 1.0);
        let mut r = Sine::new(880.0, 44_100, 1.0);
        let st = render_stereo(&mut l, &mut r, 1_000);
        let left: Vec<i16> = st.iter().step_by(2).copied().collect();
        let right: Vec<i16> = st.iter().skip(1).step_by(2).copied().collect();
        assert_ne!(left, right);
    }

    #[test]
    fn silence_is_zero() {
        let mut s = Silence;
        assert_eq!(render_interleaved(&mut s, 1, 10), vec![0i16; 10]);
    }
}
