//! The OVL encoder against an oracle built from public pieces.
//!
//! `OvlCodec::encode` sets a channel's bit in the header's twin mask
//! when its samples equal the previous channel's, and packs no window
//! bits for it. The oracle here finds the twins by comparing whole
//! deinterleaved channels, then encodes every other channel on its own:
//! the framed MDCT analysis of a plane whose padding eases the signal
//! in and out (its faded point reflection, 64 samples each side,
//! written out sample by sample), libm `band_bits` / masking / `log2`
//! per band, the scalar quantizer and the two-call Rice write. The bytes
//! and the billed work must be equal on dual mono, on dual mono with
//! one sample changed at the first, a middle or the last frame, on
//! three identical channels, on three channels whose last repeats the
//! first, and on mono, at 1–3 000 frames and every quality. Dual mono
//! must also code to mono's bits behind its header, and decode to
//! mono's samples, each twice.
//!
//! `PROPTEST_CASES=2000 cargo test --release -p es-codec --test
//! encode_oracle` is the deep run.

use es_codec::bitstream::{zigzag, BitWriter};
use es_codec::dsp::scalar;
use es_codec::mdct::Mdct;
use es_codec::ovl::{band_bits, band_widths, BLOCK};
use es_codec::{OvlCodec, MAX_QUALITY};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Padding samples the encoder fills on each side of a channel's signal.
const EASE: usize = 64;

thread_local! {
    static CODEC: OvlCodec = OvlCodec::new();
    static ORACLE_MDCT: Mdct = Mdct::new(BLOCK);
}

/// The Rice parameter as it was: `ceil(log2)` of the `f64` mean, 0
/// below a mean of 1, capped at 12.
fn oracle_rice_param(sum: u32, width: usize) -> u8 {
    let mean = sum as f64 / width as f64;
    if mean < 1.0 {
        return 0;
    }
    (mean.log2().ceil() as i64).clamp(0, 12) as u8
}

/// The weight of the padding sample `j` steps out from the signal's
/// end, `j` in `1..=EASE`: a raised cosine from 1 down to 0.
fn oracle_fade(j: usize) -> f32 {
    (0.5 + 0.5 * (std::f64::consts::PI * j as f64 / (EASE + 1) as f64).cos()) as f32
}

/// Writes the padding around the `len` samples at `plane[BLOCK..]`:
/// sample `j` steps out from an end is `2·x_end − x_mirror`, the sample
/// `j` steps in, times the fade, for `j` up to `EASE` and to the
/// signal's reach. The plane's other padding stays zero.
fn oracle_ease(plane: &mut [f32], len: usize) {
    if len == 0 {
        return;
    }
    let (first, last) = (BLOCK, BLOCK + len - 1);
    for j in 1..=EASE.min(len - 1) {
        plane[first - j] = oracle_fade(j) * (2.0 * plane[first] - plane[first + j]);
        plane[last + j] = oracle_fade(j) * (2.0 * plane[last] - plane[last - j]);
    }
}

/// One window of one channel, packed the way the oracle encoder did.
fn oracle_pack_window(bw: &mut BitWriter, quality: u8, coeffs: &[f32]) {
    let widths = band_widths(BLOCK);
    let frame_max = coeffs.iter().fold(0.0f32, |m, &c| m.max(c.abs()));
    let mask_db = 30.0 + 3.0 * quality as f32;
    let cull_floor = (frame_max * 10f32.powf(-mask_db / 20.0)).max(1e-4);
    let mut start = 0usize;
    for (b, width) in widths.into_iter().enumerate() {
        let band = &coeffs[start..start + width];
        start += width;
        let max_mag = band.iter().fold(0.0f32, |m, &c| m.max(c.abs()));
        let bits = match band_bits(quality, b) {
            Some(bits) if max_mag >= cull_floor => bits,
            _ => {
                bw.write_bit(false);
                continue;
            }
        };
        let e = max_mag.log2().ceil().clamp(-32.0, 31.0) as i32;
        bw.write_bit(true);
        bw.write_bits((e + 32) as u32, 6);
        let qmax = (1i32 << (bits - 1)) - 1;
        let mut quantized = vec![0i32; width];
        scalar::quantize_band(band, (-e as f32).exp2(), qmax, &mut quantized);
        let sum = quantized.iter().map(|&q| zigzag(q)).sum();
        let k = oracle_rice_param(sum, width);
        bw.write_bits(k as u32, 4);
        for &q in &quantized {
            let z = zigzag(q);
            bw.write_unary(z >> k);
            bw.write_bits(z & ((1 << k) - 1), k);
        }
    }
}

/// `OvlCodec::encode` spelled out: the twin mask from whole channels,
/// then every other channel framed, eased, analyzed and packed on its own,
/// windows interleaved by channel. Every channel is billed.
fn oracle_encode(samples: &[i16], channels: u8, quality: u8) -> (Vec<u8>, u64) {
    let quality = quality.min(MAX_QUALITY);
    let ch = channels as usize;
    let per_ch = samples.len() / ch;
    let padded_len = per_ch.div_ceil(BLOCK) * BLOCK;
    let channel = |c: usize| -> Vec<i16> { samples.iter().skip(c).step_by(ch).copied().collect() };
    let mut mask = 0u8;
    for c in 1..ch {
        if channel(c) == channel(c - 1) {
            mask |= 1 << c;
        }
    }
    let coded: Vec<usize> = (0..ch).filter(|c| mask & (1 << c) == 0).collect();
    ORACLE_MDCT.with(|mdct| {
        let n_windows = mdct.analyze_windows(padded_len);
        let wn = n_windows * BLOCK;
        let work = samples.len() as u64 * 4 + (ch * n_windows) as u64 * mdct.ops_per_transform();
        let mut coeffs = vec![vec![0.0f32; wn]; coded.len()];
        for (&c, coeffs) in coded.iter().zip(&mut coeffs) {
            let mut plane = vec![0.0f32; mdct.plane_len(padded_len)];
            scalar::deinterleave_normalize(samples, ch, c, &mut plane[BLOCK..][..per_ch]);
            oracle_ease(&mut plane, per_ch);
            mdct.analyze_plane(&plane, coeffs);
        }
        let mut bw = BitWriter::new();
        for w in 0..n_windows {
            for coeffs in &coeffs {
                oracle_pack_window(&mut bw, quality, &coeffs[w * BLOCK..][..BLOCK]);
            }
        }
        let mut bytes = vec![channels, quality];
        bytes.extend_from_slice(&(per_ch as u32).to_le_bytes());
        bytes.push(mask);
        bytes.extend_from_slice(&bw.into_bytes());
        (bytes, work)
    })
}

/// The channel layouts the encoder must code like the oracle.
#[derive(Debug, Clone, Copy)]
enum Shape {
    DualMono,
    /// Dual mono but for one right-channel sample at this frame.
    DualMonoBut(Frame),
    /// Three channels, all the same.
    Triple,
    /// Three channels, the last a repeat of the first.
    Aba,
    Mono,
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    First,
    Middle,
    Last,
}

const SHAPES: [Shape; 7] = [
    Shape::DualMono,
    Shape::DualMonoBut(Frame::First),
    Shape::DualMonoBut(Frame::Middle),
    Shape::DualMonoBut(Frame::Last),
    Shape::Triple,
    Shape::Aba,
    Shape::Mono,
];

/// `frames` frames of `shape`: a tone under noise at a random level,
/// so some bands are kept and others culled.
fn render(shape: Shape, frames: usize, seed: u64) -> (Vec<i16>, u8) {
    let mut rng = StdRng::seed_from_u64(seed);
    let level = 100.0 + rng.gen::<f32>() * 19_900.0;
    let step = 0.01 + rng.gen::<f32>() * 0.49;
    let mut i = 0;
    let mut wave = move || {
        i += 1;
        ((i as f32 * step).sin() * level) as i16 + (rng.gen::<i16>() >> 5)
    };
    let mono: Vec<i16> = (0..frames).map(|_| wave()).collect();
    match shape {
        Shape::Mono => (mono, 1),
        Shape::Triple => (mono.iter().flat_map(|&s| [s, s, s]).collect(), 3),
        Shape::Aba => {
            let b: Vec<i16> = (0..frames).map(|_| wave()).collect();
            let frames = mono.iter().zip(&b).flat_map(|(&a, &b)| [a, b, a]);
            (frames.collect(), 3)
        }
        Shape::DualMono | Shape::DualMonoBut(_) => {
            let mut dual: Vec<i16> = mono.iter().flat_map(|&s| [s, s]).collect();
            if let Shape::DualMonoBut(at) = shape {
                let f = match at {
                    Frame::First => 0,
                    Frame::Middle => frames / 2,
                    Frame::Last => frames - 1,
                };
                dual[2 * f + 1] = dual[2 * f + 1].wrapping_add(16_000);
            }
            (dual, 2)
        }
    }
}

fn assert_encodes_like_the_oracle(shape: Shape, frames: usize, quality: u8, seed: u64) {
    let (samples, channels) = render(shape, frames, seed);
    let enc = CODEC.with(|c| c.encode(&samples, channels, quality));
    let (bytes, work) = oracle_encode(&samples, channels, quality);
    assert!(
        enc.bytes == bytes && enc.work_units == work,
        "{shape:?}, {frames} frames, quality {quality}, seed {seed}: {} bytes and {} work, \
         oracle {} and {work}",
        enc.bytes.len(),
        enc.work_units,
        bytes.len()
    );
}

/// Dual mono codes to mono's bits behind a header that names two
/// channels, the second a twin, and decodes to mono's samples twice.
fn assert_dual_mono_codes_as_mono(frames: usize, quality: u8, seed: u64) {
    let (mono, _) = render(Shape::Mono, frames, seed);
    let (dual, _) = render(Shape::DualMono, frames, seed);
    CODEC.with(|c| {
        let (m, d) = (c.encode(&mono, 1, quality), c.encode(&dual, 2, quality));
        let case = format!("{frames} frames, quality {quality}, seed {seed}");
        assert_eq!([d.bytes[0], d.bytes[6]], [2, 0b10], "{case}");
        assert_eq!(d.bytes[1..6], m.bytes[1..6], "{case}");
        assert!(d.bytes[7..] == m.bytes[7..], "{case}: the bodies differ");
        let m = c.decode(&m.bytes).expect("mono decodes").samples;
        let d = c.decode(&d.bytes).expect("dual mono decodes").samples;
        let twice: Vec<i16> = m.iter().flat_map(|&s| [s, s]).collect();
        assert!(d == twice, "{case}: dual mono decodes unlike mono");
    });
}

#[test]
fn every_shape_at_every_quality_encodes_like_the_oracle() {
    for shape in SHAPES {
        for quality in 0..=MAX_QUALITY {
            for frames in [1, BLOCK + 1, 2_999] {
                assert_encodes_like_the_oracle(shape, frames, quality, frames as u64);
            }
        }
    }
}

#[test]
fn dual_mono_at_every_quality_codes_as_mono() {
    for quality in 0..=MAX_QUALITY {
        for frames in [1, BLOCK, BLOCK + 1, 3_000] {
            assert_dual_mono_codes_as_mono(frames, quality, frames as u64);
        }
    }
}

proptest! {
    #[test]
    fn encode_matches_the_per_channel_oracle_byte_for_byte(
        shape in 0usize..SHAPES.len(),
        frames in 1usize..3_001,
        quality in 0u8..=MAX_QUALITY,
        seed in 0u64..u64::MAX,
    ) {
        assert_encodes_like_the_oracle(SHAPES[shape], frames, quality, seed);
    }

    #[test]
    fn dual_mono_codes_as_mono_byte_for_byte(
        frames in 1usize..3_001,
        quality in 0u8..=MAX_QUALITY,
        seed in 0u64..u64::MAX,
    ) {
        assert_dual_mono_codes_as_mono(frames, quality, seed);
    }
}
