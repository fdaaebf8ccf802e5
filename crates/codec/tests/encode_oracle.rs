//! The OVL encoder against an oracle built from public pieces.
//!
//! `OvlCodec::encode` codes a stream: each packet carries the windows
//! of the stream's grid that end inside its frames, analyzed from the
//! frames held from the packet before and its own. It sets a channel's
//! bit in the header's twin mask when the frames those windows cover
//! equal the previous channel's, and packs no window bits for it. The
//! oracle here keeps each channel's held frames in a `Vec` of its own,
//! finds the twins by comparing whole covered channels, then codes
//! every other channel on its own: the MDCT analysis of its windows,
//! libm `band_bits` / masking / `log2` per band, the scalar quantizer
//! and the two-call Rice write. The bytes and the billed work of every
//! packet must be equal on dual mono, on dual mono with one sample
//! changed at the first, a middle or the last frame, on three identical
//! channels, on three channels whose last repeats the first, and on
//! mono, in streams of one to three packets of 1–3 000 frames, at every
//! quality. Dual mono must also code to mono's bits behind its header,
//! and decode to mono's samples, each twice.
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

/// `OvlCodec::encode` spelled out, one packet after another of a
/// stream.
#[derive(Default)]
struct OracleStream {
    /// Each channel's frames the next packet's first windows overlap;
    /// empty before the stream's first packet.
    held: Vec<Vec<f32>>,
    position: usize,
}

impl OracleStream {
    /// The next packet: the twin mask from whole covered channels, then
    /// every other channel's windows analyzed and packed on its own,
    /// windows interleaved by channel. Every channel is billed.
    fn encode(&mut self, samples: &[i16], channels: u8, quality: u8) -> (Vec<u8>, u64) {
        let quality = quality.min(MAX_QUALITY);
        let ch = channels as usize;
        let per_ch = samples.len() / ch;
        let laps = self.held.len() == ch;
        if !laps {
            self.held = vec![vec![0.0; BLOCK]; ch];
            self.position = 0;
        }
        let phase = self.position % BLOCK;
        let n_windows = (phase + per_ch) / BLOCK;
        let covered = if n_windows == 0 {
            0
        } else {
            (n_windows + 1) * BLOCK
        };
        let planes: Vec<Vec<f32>> = (0..ch)
            .map(|c| {
                let mut own = vec![0.0f32; per_ch];
                scalar::deinterleave_normalize(samples, ch, c, &mut own);
                let mut plane = self.held[c].clone();
                plane.extend_from_slice(&own);
                plane
            })
            .collect();
        let mut mask = 0u8;
        for c in 1..ch {
            if planes[c][..covered] == planes[c - 1][..covered] {
                mask |= 1 << c;
            }
        }
        let coded: Vec<usize> = (0..ch).filter(|c| mask & (1 << c) == 0).collect();
        let (bytes, work) = ORACLE_MDCT.with(|mdct| {
            let wn = n_windows * BLOCK;
            let work =
                samples.len() as u64 * 4 + (ch * n_windows) as u64 * mdct.ops_per_transform();
            let mut coeffs = vec![vec![0.0f32; wn]; coded.len()];
            if n_windows > 0 {
                for (&c, coeffs) in coded.iter().zip(&mut coeffs) {
                    mdct.analyze_plane(&planes[c][..covered], coeffs);
                }
            }
            let mut bw = BitWriter::new();
            for w in 0..n_windows {
                for coeffs in &coeffs {
                    oracle_pack_window(&mut bw, quality, &coeffs[w * BLOCK..][..BLOCK]);
                }
            }
            let mut bytes = vec![channels, quality];
            bytes.extend_from_slice(&(per_ch as u32).to_le_bytes());
            bytes.push(mask | u8::from(laps));
            bytes.extend_from_slice(&(self.position as u32).to_le_bytes());
            bytes.extend_from_slice(&bw.into_bytes());
            (bytes, work)
        });
        self.held = planes
            .into_iter()
            .map(|p| p[n_windows * BLOCK..].to_vec())
            .collect();
        self.position += per_ch;
        (bytes, work)
    }
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

/// `frames` frames of `shape` coded as one stream in packets of
/// `lengths` frames (cycled) by a fresh codec and by the oracle.
fn assert_encodes_like_the_oracle(
    shape: Shape,
    frames: usize,
    lengths: &[usize],
    quality: u8,
    seed: u64,
) {
    let (samples, channels) = render(shape, frames, seed);
    let ch = channels as usize;
    let mut oracle = OracleStream::default();
    CODEC.with(|c| c.reset());
    let mut at = 0;
    for (n, &len) in lengths.iter().cycle().enumerate() {
        let end = (at + len * ch).min(samples.len());
        let packet = &samples[at..end];
        at = end;
        let enc = CODEC.with(|c| c.encode(packet, channels, quality));
        let (bytes, work) = oracle.encode(packet, channels, quality);
        assert!(
            enc.bytes == bytes && enc.work_units == work,
            "{shape:?}, {frames} frames in {lengths:?}, packet {n}, quality {quality}, seed {seed}: \
             {} bytes and {} work, oracle {} and {work}",
            enc.bytes.len(),
            enc.work_units,
            bytes.len()
        );
        if at == samples.len() {
            break;
        }
    }
}

/// Dual mono codes to mono's bits behind a header that names two
/// channels, the second a twin, and decodes to mono's samples twice,
/// packet after packet of a stream.
fn assert_dual_mono_codes_as_mono(frames: usize, lengths: &[usize], quality: u8, seed: u64) {
    let (mono, _) = render(Shape::Mono, frames, seed);
    let (dual, _) = render(Shape::DualMono, frames, seed);
    let (m_codec, d_codec) = (OvlCodec::new(), OvlCodec::new());
    let mut at = 0;
    for (n, &len) in lengths.iter().cycle().enumerate() {
        let end = (at + len).min(frames);
        let case =
            format!("{frames} frames in {lengths:?}, packet {n}, quality {quality}, seed {seed}");
        let m = m_codec.encode(&mono[at..end], 1, quality);
        let d = d_codec.encode(&dual[2 * at..2 * end], 2, quality);
        at = end;
        assert_eq!([d.bytes[0], d.bytes[6]], [2, m.bytes[6] | 0b10], "{case}");
        assert_eq!(d.bytes[1..6], m.bytes[1..6], "{case}");
        assert!(d.bytes[7..] == m.bytes[7..], "{case}: the bodies differ");
        let (mut m_out, mut d_out) = (Vec::new(), Vec::new());
        m_codec
            .decode_into(&m.bytes, &mut m_out)
            .expect("mono decodes");
        d_codec
            .decode_into(&d.bytes, &mut d_out)
            .expect("dual mono decodes");
        let twice: Vec<i16> = m_out.iter().flat_map(|&s| [s, s]).collect();
        assert!(d_out == twice, "{case}: dual mono decodes unlike mono");
        if at == frames {
            break;
        }
    }
}

#[test]
fn every_shape_at_every_quality_encodes_like_the_oracle() {
    for shape in SHAPES {
        for quality in 0..=MAX_QUALITY {
            for (frames, lengths) in [
                (1, &[1][..]),
                (BLOCK + 1, &[BLOCK + 1]),
                (2_999, &[2_999]),
                (6_615, &[2_205]),
                (3_000, &[1, 700, 512]),
            ] {
                assert_encodes_like_the_oracle(shape, frames, lengths, quality, frames as u64);
            }
        }
    }
}

#[test]
fn dual_mono_at_every_quality_codes_as_mono() {
    for quality in 0..=MAX_QUALITY {
        for (frames, lengths) in [
            (1, &[1][..]),
            (BLOCK, &[BLOCK]),
            (BLOCK + 1, &[BLOCK + 1]),
            (3_000, &[3_000]),
            (6_615, &[2_205]),
        ] {
            assert_dual_mono_codes_as_mono(frames, lengths, quality, frames as u64);
        }
    }
}

proptest! {
    #[test]
    fn encode_matches_the_per_channel_oracle_byte_for_byte(
        shape in 0usize..SHAPES.len(),
        lengths in proptest::collection::vec(1usize..3_001, 1..4),
        quality in 0u8..=MAX_QUALITY,
        seed in 0u64..u64::MAX,
    ) {
        let frames = lengths.iter().sum();
        assert_encodes_like_the_oracle(SHAPES[shape], frames, &lengths, quality, seed);
    }

    #[test]
    fn dual_mono_codes_as_mono_byte_for_byte(
        lengths in proptest::collection::vec(1usize..3_001, 1..4),
        quality in 0u8..=MAX_QUALITY,
        seed in 0u64..u64::MAX,
    ) {
        let frames = lengths.iter().sum();
        assert_dual_mono_codes_as_mono(frames, &lengths, quality, seed);
    }
}
