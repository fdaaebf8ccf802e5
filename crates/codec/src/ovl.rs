//! OVL — the "Ogg-Vorbis-Like" lossy transform codec.
//!
//! The paper compresses high-bitrate channels with Ogg Vorbis (§2.2),
//! chosen for being patent-free and psycho-acoustically lossy with a
//! quality index. Linking libvorbis is outside this reproduction's
//! dependency budget, so OVL reimplements the same *shape* of codec
//! from scratch:
//!
//! - windowed MDCT analysis (sine window, 50% overlap, N = 512),
//! - per-band scale factors with quality-controlled bit allocation
//!   (more bits at low frequencies, fewer as quality drops — a crude
//!   psycho-acoustic model),
//! - Rice-coded quantized coefficients.
//!
//! Like the paper's streams, every packet is independently decodable:
//! a lost packet costs only its own samples (§2.3's friendly-LAN
//! assumption makes heavier resilience unnecessary).
//!
//! The encoder reports *work units* (multiply-accumulate counts), which
//! the Figure 4 harness converts to Geode-class CPU cycles.

use std::cell::RefCell;

use es_sim::CostModel;

use crate::bitstream::{unzigzag, zigzag, BitReader, BitWriter};
use crate::mdct::Mdct;

/// Half-length of the MDCT (coefficients per window).
pub const BLOCK: usize = 512;

/// Maximum quality index ("we simply set the Ogg Vorbis quality index
/// to its maximum", §2.2).
pub const MAX_QUALITY: u8 = 10;

/// Errors from OVL decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OvlError {
    /// Payload shorter than the fixed header.
    ShortHeader,
    /// A header field is out of range.
    BadHeader(&'static str),
    /// The coefficient bitstream ended early or was corrupt.
    BadBitstream,
}

impl core::fmt::Display for OvlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OvlError::ShortHeader => f.write_str("ovl payload shorter than header"),
            OvlError::BadHeader(w) => write!(f, "ovl header invalid: {w}"),
            OvlError::BadBitstream => f.write_str("ovl coefficient bitstream corrupt"),
        }
    }
}

impl std::error::Error for OvlError {}

/// Result of an encode: payload plus the CPU cost accounting.
#[derive(Debug, Clone)]
pub struct OvlEncoded {
    /// Self-contained packet payload.
    pub bytes: Vec<u8>,
    /// Multiply-accumulate work performed (for the CPU model).
    pub work_units: u64,
}

/// Result of a decode.
#[derive(Debug, Clone)]
pub struct OvlDecoded {
    /// Interleaved samples.
    pub samples: Vec<i16>,
    /// Channel count from the payload header.
    pub channels: u8,
    /// Multiply-accumulate work performed (for the CPU model).
    pub work_units: u64,
}

/// Returns the coefficient band widths for a half-length of `n`:
/// narrow bands at low frequencies, doubling every four bands, the
/// last band absorbing the remainder.
pub fn band_widths(n: usize) -> Vec<usize> {
    let mut widths = Vec::new();
    let mut w = 4usize;
    let mut remaining = n;
    let mut count = 0;
    while remaining > 0 {
        if count > 0 && count % 4 == 0 {
            w = (w * 2).min(128);
        }
        let take = w.min(remaining);
        widths.push(take);
        remaining -= take;
        count += 1;
    }
    // A short tail band would get its own scale factor and flag for
    // almost no coefficients; merge it into its neighbour instead.
    if widths.len() > 1 {
        let last = *widths.last().expect("non-empty");
        if last < widths[widths.len() - 2] {
            widths.pop();
            *widths.last_mut().expect("non-empty") += last;
        }
    }
    widths
}

/// Bits allocated to `band` at `quality`; `None` means the band is
/// culled entirely. Low bands keep more bits; dropping quality steepens
/// the roll-off — the crude psycho-acoustic model.
pub fn band_bits(quality: u8, band: usize) -> Option<u8> {
    let q = quality.min(MAX_QUALITY) as f32;
    let base = 3.2 + 0.6 * q;
    let rolloff = 0.38 - 0.024 * q;
    let bits = base - band as f32 * rolloff;
    let bits = bits.round();
    if bits < 2.0 {
        None
    } else {
        Some(bits.min(12.0) as u8)
    }
}

/// The OVL codec engine. Construction precomputes the MDCT tables;
/// reuse one instance across packets — the window pipeline runs out of
/// a flat [`DecodeArena`] that grows once and is reused per packet, so
/// steady-state encode and decode perform no per-packet allocation
/// beyond the returned payload/output buffers (which callers can also
/// recycle via [`OvlCodec::decode_into`]).
pub struct OvlCodec {
    mdct: Mdct,
    widths: Vec<usize>,
    arena: RefCell<DecodeArena>,
}

/// Reusable per-packet workspace (single-threaded; the sim never
/// re-enters a codec call, and each thread owns its own codec
/// instance and therefore its own arena).
#[derive(Default)]
struct DecodeArena {
    /// One channel's deinterleaved, zero-padded time samples.
    plane: Vec<f32>,
    /// Flat MDCT coefficients for all channels: channel `c`'s windows
    /// occupy `coeffs[c * windows * BLOCK..][..windows * BLOCK]`.
    coeffs: Vec<f32>,
    /// One channel's reconstructed time samples.
    synth: Vec<f32>,
    /// Quantized coefficient staging for one band (encode and decode):
    /// Rice I/O is serial, scaling is a batch kernel over this buffer.
    qbuf: Vec<i32>,
    /// Recycled backing store for the encode-side bit writer.
    bits: Vec<u8>,
}

impl Default for OvlCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl OvlCodec {
    /// Creates an engine with the standard block size and the default
    /// (fast-path) cost model.
    pub fn new() -> Self {
        OvlCodec::with_cost_model(CostModel::default())
    }

    /// Creates an engine billing MDCT work under `cost_model` (see
    /// [`es_sim::CostModel`]); execution is identical either way.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        OvlCodec {
            mdct: Mdct::with_cost_model(BLOCK, cost_model),
            widths: band_widths(BLOCK),
            arena: RefCell::new(DecodeArena::default()),
        }
    }

    /// Encodes interleaved samples into a self-contained packet.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is 0 or `samples.len()` is not a multiple
    /// of `channels`.
    pub fn encode(&self, samples: &[i16], channels: u8, quality: u8) -> OvlEncoded {
        assert!(channels >= 1, "need at least one channel");
        assert!(
            samples.len().is_multiple_of(channels as usize),
            "sample count must be a multiple of the channel count"
        );
        let quality = quality.min(MAX_QUALITY);
        let ch = channels as usize;
        let per_ch = samples.len() / ch;
        let padded_len = per_ch.div_ceil(BLOCK) * BLOCK;

        let mut work: u64 = samples.len() as u64 * 4;

        // Deinterleave, pad and analyze channel by channel into one
        // flat coefficient buffer, then pack windows interleaved by
        // channel so the decoder can stream in the same order.
        let n_windows = self.mdct.analyze_windows(padded_len);
        let wn = n_windows * BLOCK;
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        arena.coeffs.resize(ch * wn, 0.0);
        arena.plane.resize(padded_len, 0.0);
        for c in 0..ch {
            crate::dsp::deinterleave_normalize(samples, ch, c, &mut arena.plane[..per_ch]);
            arena.plane[per_ch..].fill(0.0);
            self.mdct
                .analyze_into(&arena.plane, &mut arena.coeffs[c * wn..(c + 1) * wn]);
            work += n_windows as u64 * self.mdct.ops_per_transform();
        }

        let mut bw = BitWriter::with_buffer(std::mem::take(&mut arena.bits));
        arena.qbuf.resize(BLOCK, 0);
        for w in 0..n_windows {
            for c in 0..ch {
                let coeffs = &arena.coeffs[c * wn + w * BLOCK..][..BLOCK];
                pack_window(&self.widths, &mut bw, coeffs, quality, &mut arena.qbuf);
            }
        }

        let mut bytes = Vec::with_capacity(6 + bw.bit_len() / 8 + 1);
        bytes.push(channels);
        bytes.push(quality);
        bytes.extend_from_slice(&(per_ch as u32).to_le_bytes());
        arena.bits = bw.drain_into(&mut bytes);
        OvlEncoded {
            bytes,
            work_units: work,
        }
    }

    /// Decodes a packet produced by [`OvlCodec::encode`].
    pub fn decode(&self, bytes: &[u8]) -> Result<OvlDecoded, OvlError> {
        let mut samples = Vec::new();
        let (channels, work_units) = self.decode_into(bytes, &mut samples)?;
        Ok(OvlDecoded {
            samples,
            channels,
            work_units,
        })
    }

    // es-hot-path
    /// Decodes a packet into a caller-provided buffer (cleared and
    /// resized), returning `(channels, work_units)`. Reusing `out`
    /// across packets makes steady-state decode allocation-free.
    pub fn decode_into(&self, bytes: &[u8], out: &mut Vec<i16>) -> Result<(u8, u64), OvlError> {
        if bytes.len() < 6 {
            return Err(OvlError::ShortHeader);
        }
        let channels = bytes[0];
        let quality = bytes[1];
        if !(1..=8).contains(&channels) {
            return Err(OvlError::BadHeader("channel count"));
        }
        if quality > MAX_QUALITY {
            return Err(OvlError::BadHeader("quality index"));
        }
        let per_ch = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]) as usize;
        if per_ch > 1 << 24 {
            return Err(OvlError::BadHeader("sample count"));
        }
        let ch = channels as usize;
        let padded_len = per_ch.div_ceil(BLOCK) * BLOCK;
        let n_windows = padded_len / BLOCK + 1;

        // Every window × channel spends at least one keep-flag bit per
        // band, so the header cannot claim more audio than the payload
        // has bits for — checked before the arena is sized from it.
        if n_windows * ch * self.widths.len() > (bytes.len() - 6) * 8 {
            return Err(OvlError::BadBitstream);
        }

        let mut br = BitReader::new(&bytes[6..]);
        let mut work: u64 = (per_ch * ch) as u64 * 2;
        let wn = n_windows * BLOCK;
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        arena.coeffs.resize(ch * wn, 0.0);
        arena.qbuf.resize(BLOCK, 0);
        for w in 0..n_windows {
            for c in 0..ch {
                let coeffs = &mut arena.coeffs[c * wn + w * BLOCK..][..BLOCK];
                unpack_window(&self.widths, &mut br, quality, coeffs, &mut arena.qbuf)?;
            }
        }

        out.clear();
        out.resize(per_ch * ch, 0);
        for c in 0..ch {
            self.mdct
                .synthesize_into(&arena.coeffs[c * wn..(c + 1) * wn], &mut arena.synth);
            work += n_windows as u64 * self.mdct.ops_per_transform();
            crate::dsp::interleave_denormalize(&arena.synth[..per_ch], ch, c, out);
        }
        Ok((channels, work))
    }
}

fn pack_window(
    widths: &[usize],
    bw: &mut BitWriter,
    coeffs: &[f32],
    quality: u8,
    qbuf: &mut [i32],
) {
    // Masking model: a band whose peak sits far enough below the
    // frame's loudest coefficient is inaudible next to it and is
    // culled outright. The margin widens with quality (quality 10
    // keeps everything within 60 dB of the peak).
    let frame_max = crate::dsp::peak_abs(coeffs);
    let mask_db = 30.0 + 3.0 * quality as f32;
    let cull_floor = (frame_max * 10f32.powf(-mask_db / 20.0)).max(1e-4);
    let mut start = 0usize;
    for (b, &width) in widths.iter().enumerate() {
        let band = &coeffs[start..start + width];
        start += width;
        let bits = band_bits(quality, b);
        let max_mag = crate::dsp::peak_abs(band);
        let (bits, keep) = match bits {
            Some(bits) if max_mag >= cull_floor => (bits, true),
            _ => (0, false),
        };
        if !keep {
            bw.write_bit(false);
            continue;
        }
        bw.write_bit(true);
        // Scale exponent: smallest e with 2^e >= max_mag.
        let e = max_mag.log2().ceil().clamp(-32.0, 31.0) as i32;
        bw.write_bits((e + 32) as u32, 6);
        let scale = (e as f32).exp2();
        let qmax = (1i32 << (bits - 1)) - 1;
        let quantized = &mut qbuf[..width];
        crate::dsp::quantize_band(band, scale, qmax, quantized);
        // Rice parameter adapted to this band's actual content;
        // tonal bands are mostly zeros and pack near one bit per
        // coefficient.
        let mean =
            quantized.iter().map(|&q| zigzag(q) as f64).sum::<f64>() / quantized.len() as f64;
        let k = crate::bitstream::rice_param_for_mean(mean).min(12);
        bw.write_bits(k as u32, 4);
        for &q in quantized.iter() {
            bw.write_rice(zigzag(q), k);
        }
    }
}

fn unpack_window(
    widths: &[usize],
    br: &mut BitReader<'_>,
    quality: u8,
    coeffs: &mut [f32],
    qbuf: &mut [i32],
) -> Result<(), OvlError> {
    coeffs.fill(0.0);
    let mut start = 0usize;
    for (b, &width) in widths.iter().enumerate() {
        let keep = br.read_bit().map_err(|_| OvlError::BadBitstream)?;
        if !keep {
            start += width;
            continue;
        }
        let bits = band_bits(quality, b).ok_or(OvlError::BadBitstream)?;
        let e = br.read_bits(6).map_err(|_| OvlError::BadBitstream)? as i32 - 32;
        let scale = (e as f32).exp2();
        let qmax = (1i32 << (bits - 1)) - 1;
        let k = br.read_bits(4).map_err(|_| OvlError::BadBitstream)? as u8;
        // Two phases: the Rice reads are serial (each code's length
        // depends on the bits before it), the rescale is a batch
        // kernel over the staged integers.
        let quantized = &mut qbuf[..width];
        for slot in quantized.iter_mut() {
            let q = unzigzag(br.read_rice(k).map_err(|_| OvlError::BadBitstream)?);
            if q.abs() > qmax {
                return Err(OvlError::BadBitstream);
            }
            *slot = q;
        }
        crate::dsp::dequantize_band(quantized, scale, qmax, &mut coeffs[start..start + width]);
        start += width;
    }
    Ok(())
}

// es-hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::analysis::snr_db;
    use es_audio::gen::{render_stereo, MultiTone, Signal, Sine};

    fn music_stereo(frames: usize) -> Vec<i16> {
        let mut l = MultiTone::music(44_100);
        let mut r = Sine::new(523.25, 44_100, 0.4);
        render_stereo(&mut l, &mut r, frames)
    }

    #[test]
    fn band_widths_cover_block_exactly() {
        let w = band_widths(BLOCK);
        assert_eq!(w.iter().sum::<usize>(), BLOCK);
        assert!(w.windows(2).all(|p| p[1] >= p[0]), "widths must not shrink");
        assert_eq!(w[0], 4);
    }

    #[test]
    fn band_bits_monotone_in_quality_and_band() {
        for b in 0..band_widths(BLOCK).len() {
            let low = band_bits(0, b).unwrap_or(0);
            let high = band_bits(10, b).unwrap_or(0);
            assert!(high >= low, "band {b}");
        }
        // Low frequencies always survive at max quality.
        assert!(band_bits(10, 0).unwrap() >= 8);
        // Very high bands die at quality 0.
        assert_eq!(band_bits(0, 15), None);
    }

    #[test]
    fn roundtrip_preserves_shape_at_max_quality() {
        let codec = OvlCodec::new();
        let samples = music_stereo(2_048);
        let enc = codec.encode(&samples, 2, MAX_QUALITY);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.channels, 2);
        assert_eq!(dec.samples.len(), samples.len());
        let snr = snr_db(&samples, &dec.samples).unwrap();
        assert!(snr > 25.0, "max-quality SNR too low: {snr} dB");
    }

    #[test]
    fn roundtrip_quality_and_size_are_pinned_to_the_2n_point_mdct() {
        // The fold + n/2-point-FFT MDCT is equal to the 2n-point one it
        // replaced only to rounding, so the evidence that the codec did
        // not change is its quality and its size. One second of stereo
        // at the parent commit (2n-point FFT): 12 076 bytes, 49.635370
        // dB. Allowed: 0.01 % and 0.01 dB.
        let codec = OvlCodec::new();
        let samples = music_stereo(44_100);
        let enc = codec.encode(&samples, 2, MAX_QUALITY);
        let dec = codec.decode(&enc.bytes).unwrap();
        let snr = snr_db(&samples, &dec.samples).unwrap();
        assert!((snr - 49.635_370).abs() < 0.01, "snr {snr} dB");
        let len = enc.bytes.len() as f64;
        assert!((len - 12_076.0).abs() <= 12_076.0 * 1e-4, "{len} bytes");
    }

    #[test]
    fn compression_actually_compresses() {
        let codec = OvlCodec::new();
        let samples = music_stereo(4_096);
        let raw_bytes = samples.len() * 2;
        let enc = codec.encode(&samples, 2, MAX_QUALITY);
        assert!(
            enc.bytes.len() * 2 < raw_bytes,
            "max quality must be at least 2:1 on tonal content: {} vs {raw_bytes}",
            enc.bytes.len()
        );
        let enc_low = codec.encode(&samples, 2, 2);
        assert!(
            enc_low.bytes.len() * 6 < raw_bytes,
            "low quality must be at least 6:1: {} vs {raw_bytes}",
            enc_low.bytes.len()
        );
    }

    #[test]
    fn quality_trades_size_for_snr() {
        let codec = OvlCodec::new();
        let samples = music_stereo(2_048);
        let mut last_size = 0usize;
        let mut snr_low = 0.0;
        let mut snr_high = 0.0;
        for q in [0u8, 5, 10] {
            let enc = codec.encode(&samples, 2, q);
            assert!(
                enc.bytes.len() >= last_size,
                "size must not shrink as quality rises"
            );
            last_size = enc.bytes.len();
            let dec = codec.decode(&enc.bytes).unwrap();
            let snr = snr_db(&samples, &dec.samples).unwrap();
            if q == 0 {
                snr_low = snr;
            }
            if q == 10 {
                snr_high = snr;
            }
        }
        assert!(
            snr_high > snr_low + 6.0,
            "SNR must improve with quality: {snr_low} -> {snr_high}"
        );
    }

    #[test]
    fn silence_is_tiny() {
        let codec = OvlCodec::new();
        let silence = vec![0i16; 4_096];
        let enc = codec.encode(&silence, 2, MAX_QUALITY);
        // All bands empty: one flag bit per band per window.
        assert!(enc.bytes.len() < 200, "{} bytes", enc.bytes.len());
        let dec = codec.decode(&enc.bytes).unwrap();
        assert!(dec.samples.iter().all(|&s| s.abs() < 16));
    }

    #[test]
    fn non_multiple_of_block_roundtrips() {
        let codec = OvlCodec::new();
        let samples = music_stereo(777);
        let enc = codec.encode(&samples, 2, 8);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.samples.len(), samples.len());
        assert!(snr_db(&samples, &dec.samples).unwrap() > 15.0);
    }

    #[test]
    fn mono_roundtrips() {
        let codec = OvlCodec::new();
        let mut m = MultiTone::music(44_100);
        let samples: Vec<i16> = (0..3_000)
            .map(|_| es_audio::gen::f32_to_i16(m.next_sample()))
            .collect();
        let enc = codec.encode(&samples, 1, 9);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.channels, 1);
        assert!(snr_db(&samples, &dec.samples).unwrap() > 20.0);
    }

    #[test]
    fn empty_input_roundtrips() {
        let codec = OvlCodec::new();
        let enc = codec.encode(&[], 2, 5);
        let dec = codec.decode(&enc.bytes).unwrap();
        assert!(dec.samples.is_empty());
    }

    #[test]
    fn work_units_scale_with_input() {
        let codec = OvlCodec::new();
        let small = codec.encode(&music_stereo(1_024), 2, 10);
        let large = codec.encode(&music_stereo(8_192), 2, 10);
        assert!(large.work_units > small.work_units * 4);
    }

    #[test]
    fn decode_rejects_garbage() {
        let codec = OvlCodec::new();
        assert!(matches!(codec.decode(&[]), Err(OvlError::ShortHeader)));
        assert!(matches!(codec.decode(&[1, 2]), Err(OvlError::ShortHeader)));
        // Bad channel count.
        assert!(matches!(
            codec.decode(&[0, 5, 0, 0, 0, 0]),
            Err(OvlError::BadHeader(_))
        ));
        // Valid header but truncated bitstream.
        let samples = music_stereo(1_024);
        let enc = codec.encode(&samples, 2, 10);
        let truncated = &enc.bytes[..enc.bytes.len() / 2];
        assert!(matches!(
            codec.decode(truncated),
            Err(OvlError::BadBitstream)
        ));
    }

    #[test]
    fn forged_sample_count_is_rejected_before_allocating() {
        // 8 channels × 2^24 samples claimed by a 6-byte payload: this
        // used to zero 515 MiB of arena before reading the first bit.
        let codec = OvlCodec::new();
        codec
            .decode(&codec.encode(&music_stereo(1_024), 2, 10).bytes)
            .unwrap();
        let before = codec.arena.borrow().coeffs.capacity();
        assert!(matches!(
            codec.decode(&[8, 10, 0, 0, 0, 1]),
            Err(OvlError::BadBitstream)
        ));
        assert_eq!(codec.arena.borrow().coeffs.capacity(), before);
    }

    #[test]
    fn smallest_legal_packet_still_decodes() {
        // One block of mono silence: two windows, one cleared keep
        // flag per band, nothing else.
        let codec = OvlCodec::new();
        let flag_bytes = (2 * band_widths(BLOCK).len()).div_ceil(8);
        let mut bytes = vec![1u8, MAX_QUALITY];
        bytes.extend_from_slice(&(BLOCK as u32).to_le_bytes());
        bytes.resize(6 + flag_bytes, 0);
        assert_eq!(codec.encode(&[0i16; BLOCK], 1, MAX_QUALITY).bytes, bytes);
        assert_eq!(codec.decode(&bytes).unwrap().samples, vec![0i16; BLOCK]);
        bytes.pop();
        assert!(matches!(codec.decode(&bytes), Err(OvlError::BadBitstream)));
    }

    #[test]
    fn decode_rejects_absurd_sample_count() {
        let codec = OvlCodec::new();
        let mut bytes = vec![1u8, 5];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            codec.decode(&bytes),
            Err(OvlError::BadHeader("sample count"))
        ));
    }
}
