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
/// `Sine::RESYNC` samples, so rounding drift cannot accumulate over
/// long streams; output is fully deterministic (pure function of the
/// constructor arguments and sample index). [`Signal::fill`] renders a
/// block with the phasor and the resync counter in registers, and
/// `next_sample` is a one-sample block.
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

    /// Re-derives the phasor from the exact phase of the sample
    /// `RESYNC` on from the last resync.
    fn resync(&mut self) {
        self.sync_base += Self::RESYNC as u64;
        self.since_sync = 0;
        let phase = (self.sync_base as f64 * self.step) % core::f64::consts::TAU;
        self.sin = phase.sin();
        self.cos = phase.cos();
    }
}

impl Signal for Sine {
    fn next_sample(&mut self) -> f32 {
        let mut one = [0.0f32];
        self.fill(&mut one);
        let [v] = one;
        v
    }

    /// Rotates the phasor once per sample up to the next resync, which
    /// then replaces the last rotation by the exact phase.
    fn fill(&mut self, mut out: &mut [f32]) {
        while !out.is_empty() {
            let room = (Self::RESYNC - self.since_sync) as usize;
            let (run, rest) = out.split_at_mut(out.len().min(room));
            out = rest;
            let (mut sin, mut cos) = (self.sin, self.cos);
            for slot in run.iter_mut() {
                *slot = sin as f32 * self.amplitude;
                (sin, cos) = (
                    sin * self.step_cos + cos * self.step_sin,
                    cos * self.step_cos - sin * self.step_sin,
                );
            }
            (self.sin, self.cos) = (sin, cos);
            self.since_sync += run.len() as u32;
            if self.since_sync == Self::RESYNC {
                self.resync();
            }
        }
    }
}

/// Partials one [`Bank`] advances together. Six phasors and their six
/// rotations are twelve two-wide vector registers: the most that stay
/// in registers on baseline x86-64, and `music` is three full banks.
const BANK: usize = 6;

/// `BANK` partials of a [`MultiTone`] as parallel arrays: the same
/// fields as [`Sine`], lane by lane. Unused lanes are idle — zero step,
/// zero amplitude — and contribute `+0.0`, which leaves every running
/// sum as it was (a sum seeded with `+0.0` is never `-0.0`).
#[derive(Debug, Clone)]
struct Bank {
    step: [f64; BANK],
    sin: [f64; BANK],
    cos: [f64; BANK],
    step_sin: [f64; BANK],
    step_cos: [f64; BANK],
    amplitude: [f32; BANK],
}

impl Bank {
    fn new(tones: &[Sine], idle: &Sine) -> Self {
        let lane = |i: usize| tones.get(i).unwrap_or(idle);
        Bank {
            step: core::array::from_fn(|i| lane(i).step),
            sin: core::array::from_fn(|i| lane(i).sin),
            cos: core::array::from_fn(|i| lane(i).cos),
            step_sin: core::array::from_fn(|i| lane(i).step_sin),
            step_cos: core::array::from_fn(|i| lane(i).step_cos),
            amplitude: core::array::from_fn(|i| lane(i).amplitude),
        }
    }

    /// `acc` plus this bank's partials at phasor `sin`, lane by lane.
    #[inline]
    fn mix(&self, acc: f32, sin: &[f64; BANK]) -> f32 {
        sin.iter()
            .zip(&self.amplitude)
            .fold(acc, |acc, (&s, &a)| acc + s as f32 * a)
    }
}

/// A sum of sine partials with per-partial amplitude — a stand-in for
/// harmonically rich "music" content for codec experiments.
///
/// The partials are the same phasor recurrence as [`Sine`], advanced a
/// `Bank` at a time over a whole block: the six rotations of a bank
/// are independent, so they pipeline (and vectorize) where a lone
/// partial runs one serial multiply-add chain, and the phasors stay in
/// registers for the length of the block instead of going through
/// memory every sample. All partials resync on the same sample, so one
/// counter serves them all. Output is bit-identical to summing a
/// `Vec<Sine>` in declaration order.
#[derive(Debug, Clone)]
pub struct MultiTone {
    banks: Vec<Bank>,
    since_sync: u32,
    sync_base: u64,
    norm: f32,
}

impl MultiTone {
    /// Creates a multi-tone from `(freq, amplitude)` pairs.
    pub fn new(sample_rate: u32, partials: &[(f32, f32)]) -> Self {
        let total: f32 = partials.iter().map(|&(_, a)| a.abs()).sum();
        let norm = if total > 1.0 { 1.0 / total } else { 1.0 };
        let tones: Vec<Sine> = partials
            .iter()
            .map(|&(f, a)| Sine::new(f, sample_rate, a.abs().min(1.0)))
            .collect();
        let idle = Sine::new(0.0, sample_rate, 0.0);
        MultiTone {
            banks: tones.chunks(BANK).map(|t| Bank::new(t, &idle)).collect(),
            since_sync: 0,
            sync_base: 0,
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
        let mut one = [0.0f32];
        self.fill(&mut one);
        let [v] = one;
        v
    }

    /// Batch render, bank-outer. Each output sample still sums the
    /// partials in declaration order from `0.0` — a bank adds its six
    /// in order to what the banks before it left in the slot — and is
    /// then normalized, exactly like a `Vec<Sine>` summed per sample.
    fn fill(&mut self, mut out: &mut [f32]) {
        while !out.is_empty() {
            // A run ends where the phasors are re-derived: there the
            // last sample's rotation is replaced by the exact phase.
            let room = (Sine::RESYNC - self.since_sync) as usize;
            let n = out.len().min(room);
            let resync = n == room;
            let (run, rest) = out.split_at_mut(n);
            out = rest;
            run.fill(0.0);
            let (body, last) = run.split_at_mut(n - usize::from(resync));
            let base = self.sync_base + Sine::RESYNC as u64;
            for bank in &mut self.banks {
                let (mut sin, mut cos) = (bank.sin, bank.cos);
                for slot in body.iter_mut() {
                    *slot = bank.mix(*slot, &sin);
                    let rotation = bank.step_sin.iter().zip(&bank.step_cos);
                    for ((s, c), (&ss, &sc)) in sin.iter_mut().zip(&mut cos).zip(rotation) {
                        let (s0, c0) = (*s, *c);
                        *s = s0 * sc + c0 * ss;
                        *c = c0 * sc - s0 * ss;
                    }
                }
                for slot in last.iter_mut() {
                    *slot = bank.mix(*slot, &sin);
                    for ((s, c), &step) in sin.iter_mut().zip(&mut cos).zip(&bank.step) {
                        let phase = (base as f64 * step) % core::f64::consts::TAU;
                        *s = phase.sin();
                        *c = phase.cos();
                    }
                }
                bank.sin = sin;
                bank.cos = cos;
            }
            for slot in run.iter_mut() {
                *slot *= self.norm;
            }
            if resync {
                self.sync_base = base;
                self.since_sync = 0;
            } else {
                self.since_sync += n as u32;
            }
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

/// A plucked-string melody (Karplus–Strong): a new note every 250 ms,
/// its pitch drawn by a seeded RNG from an A-minor pentatonic scale
/// over two octaves up from 220 Hz. A pluck fills a delay line one
/// period long with noise; every sample then replaces the line's
/// oldest value by the damped mean of it and the next, so the string
/// rings at the line's pitch and decays, losing its highs first.
/// Program material with onsets and decays, where [`MultiTone::music`]
/// is one steady chord.
#[derive(Debug, Clone)]
pub struct Pluck {
    rng: StdRng,
    sample_rate: f32,
    /// Samples left of the note playing.
    left: u32,
    line: Vec<f32>,
    at: usize,
    amplitude: f32,
}

impl Pluck {
    /// Semitones above 220 Hz a note may sit at.
    const SCALE: [u8; 10] = [0, 3, 5, 7, 10, 12, 15, 17, 19, 22];

    /// A seeded melody with the given peak amplitude.
    pub fn new(seed: u64, sample_rate: u32, amplitude: f32) -> Self {
        Pluck {
            rng: StdRng::seed_from_u64(seed),
            sample_rate: sample_rate as f32,
            left: 0,
            line: Vec::new(),
            at: 0,
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }
}

impl Signal for Pluck {
    fn next_sample(&mut self) -> f32 {
        if self.left == 0 {
            let semitones = Self::SCALE[self.rng.gen::<usize>() % Self::SCALE.len()];
            let hz = 220.0 * (f32::from(semitones) / 12.0).exp2();
            let period = (self.sample_rate / hz).round() as usize;
            let rng = &mut self.rng;
            self.line.clear();
            self.line
                .extend((0..period).map(|_| rng.gen::<f32>() * 2.0 - 1.0));
            self.at = 0;
            self.left = (self.sample_rate / 4.0) as u32;
        }
        self.left -= 1;
        let next = (self.at + 1) % self.line.len();
        let v = self.line[self.at];
        self.line[self.at] = 0.498 * (v + self.line[next]);
        self.at = next;
        v * self.amplitude
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

/// Rounds `x` (at most `±32_767`, or NaN) half away from zero, as
/// `f32::round` does, in operations that vectorize on the baseline
/// x86-64 target, where `round` is an out-of-line libm `roundf` per
/// call and a saturating `as` a scalar sequence per lane: `|x| + 2^23`
/// holds `|x|` rounded to an integer, ties to even, in the low bits of
/// its mantissa, and a tie that went down to even is put back up. NaN
/// maps to 0. Checked against `round` for every `f32` input of
/// [`f32_to_i16`].
#[inline]
fn round_to_i16(x: f32) -> i16 {
    const MAGIC: f32 = 8_388_608.0;
    let y = x.abs();
    let m = y + MAGIC;
    let k = (m.to_bits() as i32 - MAGIC.to_bits() as i32) + i32::from(y - (m - MAGIC) == 0.5);
    let k = if x < 0.0 { -k } else { k };
    (if x.is_nan() { 0 } else { k }) as i16
}

/// Converts a float sample in `[-1, 1]` to `i16` with clamping.
pub fn f32_to_i16(v: f32) -> i16 {
    round_to_i16(v.clamp(-1.0, 1.0) * 32_767.0)
}

/// Frames a renderer asks its source for per [`Signal::fill`] call.
/// Every source's `fill` equals as many `next_sample` calls, so the
/// block size changes no sample; it only lets a batch source such as
/// [`MultiTone`] run its bank loop over a block instead of one frame.
const RENDER_BLOCK: usize = 256;

/// Renders `frames` frames of a mono source duplicated across
/// `channels` interleaved channels.
pub fn render_interleaved(sig: &mut dyn Signal, channels: u8, frames: usize) -> Vec<i16> {
    let mut out = Vec::new();
    render_interleaved_into(sig, channels, frames, &mut out);
    out
}

/// [`render_interleaved`] into a caller-owned buffer (cleared first),
/// so a source that renders chunk after chunk recycles one allocation.
/// Each block is converted to `i16` in one loop, then each of its
/// samples written to its frame's channels in a second.
pub fn render_interleaved_into(
    sig: &mut dyn Signal,
    channels: u8,
    frames: usize,
    out: &mut Vec<i16>,
) {
    assert!(channels >= 1, "need at least one channel");
    let ch = usize::from(channels);
    out.clear();
    out.resize(frames * ch, 0);
    let mut block = [0.0f32; RENDER_BLOCK];
    let mut ints = [0i16; RENDER_BLOCK];
    for dst in out.chunks_mut(RENDER_BLOCK * ch) {
        let mono = &mut block[..dst.len() / ch];
        sig.fill(mono);
        let ints = &mut ints[..mono.len()];
        for (i, &v) in ints.iter_mut().zip(mono.iter()) {
            *i = f32_to_i16(v);
        }
        // Stereo gets a fixed-size store per frame, where a `fill` of
        // a runtime length is a loop of its own.
        match ch {
            1 => dst.copy_from_slice(ints),
            2 => {
                for (frame, &s) in dst.chunks_exact_mut(2).zip(ints.iter()) {
                    frame.copy_from_slice(&[s, s]);
                }
            }
            _ => {
                for (frame, &s) in dst.chunks_exact_mut(ch).zip(ints.iter()) {
                    frame.fill(s);
                }
            }
        }
    }
}

/// Renders `frames` frames with distinct left and right sources,
/// interleaved L R L R.
pub fn render_stereo(left: &mut dyn Signal, right: &mut dyn Signal, frames: usize) -> Vec<i16> {
    let mut out = Vec::with_capacity(frames * 2);
    let (mut l, mut r) = ([0.0f32; RENDER_BLOCK], [0.0f32; RENDER_BLOCK]);
    let mut remaining = frames;
    while remaining > 0 {
        let n = remaining.min(RENDER_BLOCK);
        left.fill(&mut l[..n]);
        right.fill(&mut r[..n]);
        for (&a, &b) in l[..n].iter().zip(&r[..n]) {
            out.push(f32_to_i16(a));
            out.push(f32_to_i16(b));
        }
        remaining -= n;
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
    fn pluck_is_seeded_bounded_and_struck_every_250_ms() {
        let render = |seed| {
            let mut p = Pluck::new(seed, 44_100, 0.8);
            (0..44_100).map(|_| p.next_sample()).collect::<Vec<f32>>()
        };
        let melody = render(5);
        assert_eq!(melody, render(5));
        assert_ne!(melody, render(6));
        assert!(melody.iter().all(|v| v.abs() <= 0.8));
        // Each note decays until the next pluck restarts the string.
        let rms = |s: &[f32]| (s.iter().map(|v| v * v).sum::<f32>() / s.len() as f32).sqrt();
        for onset in (11_025..44_100).step_by(11_025) {
            let (decayed, struck) = (&melody[onset - 512..onset], &melody[onset..onset + 512]);
            assert!(rms(struck) > 2.0 * rms(decayed), "note at sample {onset}");
        }
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
    fn multitone_is_bit_identical_to_summed_sines() {
        // The pre-bank MultiTone: one `Sine` per partial, each output
        // sample summed in declaration order from 0.0, then normalized.
        // 18 partials are three full banks; 7 leave five idle lanes.
        for count in [18u32, 7] {
            let partials: Vec<(f32, f32)> = (1..=count)
                .map(|h| (97.3 * h as f32, 0.30 / h as f32))
                .collect();
            let total: f32 = partials.iter().map(|&(_, a)| a).sum();
            let norm = if total > 1.0 { 1.0 / total } else { 1.0 };
            let mut sines: Vec<Sine> = partials
                .iter()
                .map(|&(f, a)| Sine::new(f, 44_100, a))
                .collect();
            let mut tone = MultiTone::new(44_100, &partials);
            // Uneven chunks, 160 000 samples: four resyncs (every
            // 32 768) are crossed, most of them mid-chunk; the
            // one-sample chunks go through `next_sample`.
            let mut done = 0usize;
            let mut chunk = vec![0.0f32; 4_097];
            for len in [1usize, 882, 4_097, 31, 1_764].iter().cycle() {
                if done >= 160_000 {
                    break;
                }
                let got = &mut chunk[..*len];
                match got {
                    [one] => *one = tone.next_sample(),
                    _ => tone.fill(got),
                }
                for (i, g) in got.iter().enumerate() {
                    let mut want = 0.0f32;
                    for s in &mut sines {
                        want += per_sample(s);
                    }
                    want *= norm;
                    assert_eq!(g.to_bits(), want.to_bits(), "sample {}", done + i);
                }
                done += len;
            }
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
    }

    #[test]
    fn rounding_matches_libm_round_at_every_boundary() {
        // Every half-integer an i16 conversion can see, one ulp either
        // side of it, both signs, plus the values `round` special-cases.
        let check = |x: f32| assert_eq!(round_to_i16(x), x.round() as i16, "{x:e}");
        for k in -32_767i32..32_767 {
            let half = k as f32 + 0.5;
            for x in [half, half.next_up(), half.next_down()] {
                check(x);
                check(-x);
            }
        }
        for x in [0.0, -0.0, f32::NAN, f32::MIN_POSITIVE, 0.49999997, 32_767.0] {
            check(x);
            check(-x);
        }
        for x in [f32::INFINITY, f32::MAX, 8_388_607.5] {
            assert_eq!(f32_to_i16(x), 32_767, "{x:e}");
            assert_eq!(f32_to_i16(-x), -32_767, "{x:e}");
        }
        assert_eq!(f32_to_i16(f32::NAN), 0);
        // And through the public conversion, over the whole unit range.
        for i in -70_000i32..=70_000 {
            let v = i as f32 / 65_536.0;
            let want = (v.clamp(-1.0, 1.0) * 32_767.0).round() as i16;
            assert_eq!(f32_to_i16(v), want, "{v}");
        }
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

    /// The per-sample `Sine` its block `fill` replaced: one rotation
    /// of the phasor per sample, through memory, and the exact phase
    /// every `Sine::RESYNC` samples.
    fn per_sample(s: &mut Sine) -> f32 {
        let v = s.sin as f32 * s.amplitude;
        s.since_sync += 1;
        if s.since_sync == Sine::RESYNC {
            s.sync_base += Sine::RESYNC as u64;
            s.since_sync = 0;
            let phase = (s.sync_base as f64 * s.step) % core::f64::consts::TAU;
            s.sin = phase.sin();
            s.cos = phase.cos();
        } else {
            let sin = s.sin * s.step_cos + s.cos * s.step_sin;
            let cos = s.cos * s.step_cos - s.sin * s.step_sin;
            s.sin = sin;
            s.cos = cos;
        }
        v
    }

    /// The renderer `render_interleaved_into` replaced: each sample
    /// converted and repeated into its frame one at a time.
    fn per_sample_render_into(
        sig: &mut dyn Signal,
        channels: u8,
        frames: usize,
        out: &mut Vec<i16>,
    ) {
        out.clear();
        let mut block = [0.0f32; RENDER_BLOCK];
        let mut left = frames;
        while left > 0 {
            let mono = &mut block[..left.min(RENDER_BLOCK)];
            sig.fill(mono);
            for &v in mono.iter() {
                out.extend(std::iter::repeat_n(f32_to_i16(v), channels as usize));
            }
            left -= mono.len();
        }
    }

    /// Every source, in the order `source(kind)` numbers them.
    const SOURCES: usize = 7;

    fn source(kind: usize) -> Box<dyn Signal> {
        match kind {
            0 => Box::new(MultiTone::music(44_100)),
            1 => Box::new(Sine::new(440.0, 44_100, 0.7)),
            2 => Box::new(WhiteNoise::new(9, 0.5)),
            3 => Box::new(Sweep::new(50.0, 9_000.0, 0.5, 44_100, 0.9)),
            4 => Box::new(ImpulseTrain::new(300, 1.0)),
            5 => Box::new(Pluck::new(4, 44_100, 0.8)),
            _ => Box::new(Silence),
        }
    }

    #[test]
    fn renderers_equal_a_sample_by_sample_render() {
        // The renderers fill a block at a time; what they must equal is
        // one `next_sample` per frame, for every source and across block
        // boundaries and two resyncs of MultiTone and Sine (every
        // 32 768 samples).
        let frames = 2 * 32_768 + RENDER_BLOCK / 2;
        for kind in 0..SOURCES {
            let (mut a, mut b) = (source(kind), source(kind));
            let want: Vec<i16> = (0..frames)
                .flat_map(|_| {
                    let s = f32_to_i16(b.next_sample());
                    [s, s, s]
                })
                .collect();
            assert_eq!(render_interleaved(a.as_mut(), 3, frames), want);
        }
        // A `Sine`'s block equals the per-sample phasor it replaced.
        let mut old = Sine::new(440.0, 44_100, 0.7);
        let want: Vec<i16> = (0..frames)
            .map(|_| f32_to_i16(per_sample(&mut old)))
            .collect();
        let mut sine = Sine::new(440.0, 44_100, 0.7);
        assert_eq!(render_interleaved(&mut sine, 1, frames), want);
        let (mut l, mut r) = (MultiTone::music(44_100), WhiteNoise::new(3, 0.4));
        let (mut l2, mut r2) = (l.clone(), r.clone());
        let want: Vec<i16> = (0..frames)
            .flat_map(|_| [f32_to_i16(l2.next_sample()), f32_to_i16(r2.next_sample())])
            .collect();
        assert_eq!(render_stereo(&mut l, &mut r, frames), want);
        // `_into` clears what the buffer held.
        let mut out = vec![7i16; 5];
        render_interleaved_into(&mut Silence, 2, 3, &mut out);
        assert_eq!(out, [0; 6]);
    }

    proptest::proptest! {
        /// Chunk after chunk into one buffer, as an application renders:
        /// the block renderer writes what the per-sample renderer does,
        /// for every source and 1–8 channels, across `RENDER_BLOCK` and,
        /// from a start just short of one, a `Sine::RESYNC`.
        #[test]
        fn prop_render_equals_the_per_sample_renderer(
            kind in 0usize..SOURCES,
            channels in 1u8..=8,
            chunks in proptest::collection::vec(0usize..3_000, 1..8),
            short_of_resync in 0usize..4_000,
        ) {
            let (mut a, mut b) = (source(kind), source(kind));
            let skip = Sine::RESYNC as usize - short_of_resync;
            let mut scratch = vec![0.0f32; skip];
            a.fill(&mut scratch);
            b.fill(&mut scratch);
            let (mut got, mut want) = (vec![7i16; 3], Vec::new());
            for &frames in &chunks {
                render_interleaved_into(a.as_mut(), channels, frames, &mut got);
                per_sample_render_into(b.as_mut(), channels, frames, &mut want);
                proptest::prop_assert_eq!(&got, &want);
            }
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
