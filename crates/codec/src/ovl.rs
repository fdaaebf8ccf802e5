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
//! assumption makes heavier resilience unnecessary). So each packet is
//! framed on its own: a block before the signal and padding after it,
//! up to whole blocks plus one. The decoder keeps only the signal, and
//! time-domain alias cancellation rebuilds every signal sample whatever
//! the padding holds (a padding half-block aliases only onto itself).
//! The padding is therefore the encoder's to choose, and it eases the
//! signal in and out (see [`OvlCodec::encode`]) instead of starting and
//! stopping it with a step that the edge windows would spend most of
//! the packet's bits on.
//!
//! The encoder reports *work units* (multiply-accumulate counts), which
//! the Figure 4 harness converts to Geode-class CPU cycles.

use std::cell::RefCell;

use crate::bitstream::{unzigzag, zigzag, BitReader, BitWriter};
use crate::mdct::Mdct;

/// Half-length of the MDCT (coefficients per window).
pub const BLOCK: usize = 512;

/// Maximum quality index ("we simply set the Ogg Vorbis quality index
/// to its maximum", §2.2).
pub const MAX_QUALITY: u8 = 10;

/// Most channels a packet may carry: one bit each in the twin mask.
const MAX_CHANNELS: usize = 8;

/// Samples of padding on each side of a coded channel's signal that
/// the encoder fills with the signal's faded point reflection.
const EASE: usize = 64;

/// Payload header: channel count, quality index, per-channel sample
/// count (`u32` LE), twin mask. Bit `c` of the mask set means channel
/// `c` carries channel `c - 1`'s samples and codes no window bits.
const HEADER: usize = 7;

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

/// The OVL codec engine. Construction precomputes the MDCT tables and
/// what each quality index decides per band; reuse one instance across
/// packets — the window pipeline runs out of a flat `DecodeArena`
/// that grows once and is reused per packet, so steady-state encode
/// and decode perform no per-packet allocation beyond the returned
/// payload/output buffers (which callers can also recycle via
/// [`OvlCodec::decode_into`]).
///
/// A channel that carries the same samples as the channel before it (a
/// mono signal fanned out to every channel, as the producers send) is
/// one bit of the header's twin mask and nothing else: the encoder
/// neither analyzes nor packs it, and the decoder copies the previous
/// channel's samples into it. Its samples are what coding it on its own
/// would give, and the work units still bill every channel.
pub struct OvlCodec {
    mdct: Mdct,
    widths: Vec<usize>,
    /// Indexed by quality index, `0..=MAX_QUALITY`.
    qualities: Vec<QualityTable>,
    /// The raised-cosine fade of the edge reflection: entry `j - 1`
    /// weighs the padding sample `j` steps out from the signal's end.
    fade: [f32; EASE],
    arena: RefCell<DecodeArena>,
}

/// One quality index's per-band decisions, built once per codec by
/// calling the expressions themselves, so each entry is exactly what
/// evaluating them per window gives.
struct QualityTable {
    /// [`band_bits`] for each band.
    bits: Vec<Option<u8>>,
    /// The masking model's cull factor: a band whose peak sits below
    /// the frame's peak times this is inaudible next to it and is
    /// culled outright. The margin widens with quality (quality 10
    /// keeps everything within 60 dB of the peak).
    mask: f32,
}

impl QualityTable {
    fn new(quality: u8, bands: usize) -> Self {
        let mask_db = 30.0 + 3.0 * quality as f32;
        QualityTable {
            bits: (0..bands).map(|b| band_bits(quality, b)).collect(),
            mask: 10f32.powf(-mask_db / 20.0),
        }
    }
}

/// Reusable per-packet workspace (single-threaded; the sim never
/// re-enters a codec call, and each thread owns its own codec
/// instance and therefore its own arena).
#[derive(Default)]
struct DecodeArena {
    /// Framed time-domain planes ([`Mdct::plane_len`]): on encode, one
    /// per channel, channel `c`'s at `planes[c * plane_len..]`, each a
    /// block of padding, the channel's samples and the padding up to
    /// the plane's end; on decode, the first is each channel's
    /// overlap-add target in turn.
    planes: Vec<f32>,
    /// Flat MDCT coefficients for all channels: channel `c`'s windows
    /// occupy `coeffs[c * windows * BLOCK..][..windows * BLOCK]`.
    coeffs: Vec<f32>,
    /// Quantized coefficient staging for one band (encode and decode):
    /// Rice I/O is serial, scaling is a batch kernel over this buffer.
    qbuf: Vec<i32>,
    /// Recycled backing store for the encode-side bit writer.
    bits: Vec<u8>,
    /// Each band's peak magnitude in the window being packed.
    peaks: Vec<f32>,
}

impl Default for OvlCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl OvlCodec {
    /// Creates an engine with the standard block size.
    pub fn new() -> Self {
        let widths = band_widths(BLOCK);
        let qualities = (0..=MAX_QUALITY)
            .map(|q| QualityTable::new(q, widths.len()))
            .collect();
        OvlCodec {
            mdct: Mdct::new(BLOCK),
            widths,
            qualities,
            fade: std::array::from_fn(|i| {
                let phase = core::f64::consts::PI * (i + 1) as f64 / (EASE + 1) as f64;
                (0.5 + 0.5 * phase.cos()) as f32
            }),
            arena: RefCell::new(DecodeArena::default()),
        }
    }

    /// Encodes interleaved samples into a self-contained packet.
    ///
    /// Each coded channel is analyzed in a plane framed as the module
    /// doc describes. The `EASE` padding samples on each side of the
    /// signal hold its point reflection about its end sample,
    /// `2·x_edge − x_mirror` for the sample as far inside, faded to
    /// zero by a raised cosine; the rest of the padding is zero. The
    /// signal so continues smoothly into silence, and the edge windows
    /// code it as they would mid-stream. The decoder returns only the
    /// signal's samples, so the wire format and the decoder are the
    /// ones zero padding had.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is 0 or more than eight, or `samples.len()`
    /// is not a multiple of `channels`.
    pub fn encode(&self, samples: &[i16], channels: u8, quality: u8) -> OvlEncoded {
        assert!(channels >= 1, "need at least one channel");
        assert!(
            channels as usize <= MAX_CHANNELS,
            "the twin mask has room for {MAX_CHANNELS} channels"
        );
        assert!(
            samples.len().is_multiple_of(channels as usize),
            "sample count must be a multiple of the channel count"
        );
        let quality = quality.min(MAX_QUALITY);
        let ch = channels as usize;
        let per_ch = samples.len() / ch;
        let padded_len = per_ch.div_ceil(BLOCK) * BLOCK;

        let mut work: u64 = samples.len() as u64 * 4;

        // The twin mask: channel `c` repeats channel `c - 1` in every
        // frame, which covers a mono signal fanned out to every channel.
        let twin = |c: usize| samples.chunks_exact(ch).all(|f| f[c] == f[c - 1]);
        let mask = (1..ch).filter(|&c| twin(c)).fold(0u8, |m, c| m | 1 << c);

        // Deinterleave every channel into its framed plane in one pass,
        // analyze each coded channel's plane into one flat coefficient
        // buffer, then pack windows interleaved by coded channel so the
        // decoder can stream in the same order.
        let n_windows = self.mdct.analyze_windows(padded_len);
        let wn = n_windows * BLOCK;
        let plane_len = self.mdct.plane_len(padded_len);
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        let coded = ch - mask.count_ones() as usize;
        arena.coeffs.resize(coded * wn, 0.0);
        arena.planes.resize(ch * plane_len, 0.0);
        crate::dsp::deinterleave_normalize(samples, ch, &mut arena.planes[BLOCK..], plane_len);
        let mut coded_coeffs = arena.coeffs.chunks_exact_mut(wn);
        for (c, plane) in arena.planes.chunks_exact_mut(plane_len).enumerate() {
            // Billed for every channel, analyzed once per coded one.
            work += n_windows as u64 * self.mdct.ops_per_transform();
            if mask & 1 << c != 0 {
                continue;
            }
            self.ease_into_frame(plane, per_ch);
            let coeffs = coded_coeffs
                .next()
                .expect("a coefficient plane per coded channel");
            self.mdct.analyze_plane(plane, coeffs);
        }

        let mut bw = BitWriter::with_buffer(std::mem::take(&mut arena.bits));
        arena.qbuf.resize(BLOCK, 0);
        arena.peaks.resize(self.widths.len(), 0.0);
        let table = &self.qualities[quality as usize];
        for w in 0..n_windows {
            for coeffs in arena.coeffs.chunks_exact(wn) {
                pack_window(
                    &self.widths,
                    table,
                    &mut bw,
                    &coeffs[w * BLOCK..][..BLOCK],
                    &mut arena.peaks,
                    &mut arena.qbuf,
                );
            }
        }

        let mut bytes = Vec::with_capacity(HEADER + bw.bit_len() / 8 + 1);
        bytes.push(channels);
        bytes.push(quality);
        bytes.extend_from_slice(&(per_ch as u32).to_le_bytes());
        bytes.push(mask);
        arena.bits = bw.drain_into(&mut bytes);
        OvlEncoded {
            bytes,
            work_units: work,
        }
    }

    /// Fills a framed plane's padding around its `len` signal samples
    /// at `plane[BLOCK..]`: the faded point reflection of the signal
    /// about each end, up to `EASE` samples out and no further than
    /// the signal reaches in, and zeros beyond it.
    fn ease_into_frame(&self, plane: &mut [f32], len: usize) {
        let (head, rest) = plane.split_at_mut(BLOCK);
        let (signal, tail) = rest.split_at_mut(len);
        head.fill(0.0);
        tail.fill(0.0);
        let (Some(&first), Some(&last)) = (signal.first(), signal.last()) else {
            return;
        };
        let inward = signal[1..].iter().zip(&self.fade);
        for (pad, (&x, &fade)) in head.iter_mut().rev().zip(inward) {
            *pad = fade * (2.0 * first - x);
        }
        let inward = signal[..len - 1].iter().rev().zip(&self.fade);
        for (pad, (&x, &fade)) in tail.iter_mut().zip(inward) {
            *pad = fade * (2.0 * last - x);
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

    /// Decodes a packet into a caller-provided buffer (cleared and
    /// resized), returning `(channels, work_units)`. Reusing `out`
    /// across packets makes steady-state decode allocation-free.
    pub fn decode_into(&self, bytes: &[u8], out: &mut Vec<i16>) -> Result<(u8, u64), OvlError> {
        if bytes.len() < HEADER {
            return Err(OvlError::ShortHeader);
        }
        let channels = bytes[0];
        let quality = bytes[1];
        if !(1..=MAX_CHANNELS as u8).contains(&channels) {
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
        let mask = bytes[6];
        if mask & 1 != 0 || u32::from(mask) >> ch != 0 {
            return Err(OvlError::BadHeader("twin mask"));
        }
        let padded_len = per_ch.div_ceil(BLOCK) * BLOCK;
        let n_windows = padded_len / BLOCK + 1;

        // Every window × coded channel spends at least one keep-flag
        // bit per band, so the header cannot claim more audio than the
        // payload has bits for — checked before the arena is sized
        // from it.
        let coded = ch - mask.count_ones() as usize;
        if n_windows * coded * self.widths.len() > (bytes.len() - HEADER) * 8 {
            return Err(OvlError::BadBitstream);
        }

        let mut br = BitReader::new(&bytes[HEADER..]);
        let mut work: u64 = (per_ch * ch) as u64 * 2;
        let wn = n_windows * BLOCK;
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        arena.coeffs.resize(coded * wn, 0.0);
        arena.qbuf.resize(BLOCK, 0);
        let table = &self.qualities[quality as usize];
        for w in 0..n_windows {
            for coeffs in arena.coeffs.chunks_exact_mut(wn) {
                let coeffs = &mut coeffs[w * BLOCK..][..BLOCK];
                unpack_window(&self.widths, table, &mut br, coeffs, &mut arena.qbuf)?;
            }
        }

        out.clear();
        out.resize(per_ch * ch, 0);
        arena.planes.resize(self.mdct.plane_len(padded_len), 0.0);
        let mut coded_coeffs = arena.coeffs.chunks_exact(wn);
        for c in 0..ch {
            // Billed for every channel, synthesized once per coded one.
            work += n_windows as u64 * self.mdct.ops_per_transform();
            if mask & 1 << c != 0 {
                for frame in out.chunks_exact_mut(ch) {
                    frame[c] = frame[c - 1];
                }
                continue;
            }
            let coeffs = coded_coeffs
                .next()
                .expect("a coefficient plane per coded channel");
            self.mdct.synthesize_plane(coeffs, &mut arena.planes);
            crate::dsp::interleave_denormalize(&arena.planes[BLOCK..][..per_ch], ch, c, out);
        }
        Ok((channels, work))
    }
}

/// `2^e` for an exponent a 6-bit field can carry (`-32..=31`) or its
/// negation, built from its bits: every such power of two is a normal
/// `f32`, and the bits are exactly what `(e as f32).exp2()` returns.
fn exp2i(e: i32) -> f32 {
    debug_assert!((-32..=32).contains(&e));
    f32::from_bits(((e + 127) as u32) << 23)
}

/// The band's scale exponent: the smallest `e` with `2^e >= x`,
/// clamped to `-32..=31` — exactly `x.log2().ceil()` clamped.
///
/// For a normal `x` with at least 2^12 of 2^23 mantissa steps above
/// the power of two below it, `2^exp < x < 2^(exp+1)` and `log2(x)`
/// sits at least 7e-4 above `exp`, far more than `log2f`'s rounding
/// at any `f32` exponent, so the ceiling is `exp + 1`. Right above a
/// power of two `log2f` may round down onto `exp` itself (16.000002
/// gives 4.0), so that sliver, zero, subnormals and non-finite values
/// take the libm call.
fn band_exponent(x: f32) -> i32 {
    let bits = x.to_bits();
    // The sign bit makes `biased` ≥ 256: negative input goes to libm.
    let biased = bits >> 23;
    if (1..255).contains(&biased) && bits & 0x7F_FFFF >= 1 << 12 {
        (biased as i32 - 126).clamp(-32, 31)
    } else {
        x.log2().ceil().clamp(-32.0, 31.0) as i32
    }
}

/// The Rice parameter for a band whose zig-zagged values sum to `sum`:
/// the smallest `k ≤ 12` with `sum ≤ width · 2^k`, i.e. the smallest
/// `2^k` at or above the mean. Equal to `ceil(log2(mean))` of the mean
/// in `f64`, capped at 12 (the test oracle): with `width ≤ 128` and
/// `sum < 2^20`, a mean above `2^k` is above it by at least `2^-7`,
/// too far for `f64` rounding to land on the power of two.
fn rice_param(sum: u32, width: usize) -> u8 {
    let mut k = 0u8;
    while k < 12 && sum > (width as u32) << k {
        k += 1;
    }
    k
}

fn pack_window(
    widths: &[usize],
    table: &QualityTable,
    bw: &mut BitWriter,
    coeffs: &[f32],
    peaks: &mut [f32],
    qbuf: &mut [i32],
) {
    // Each band's peak once; the frame's peak is the largest of them.
    let mut start = 0usize;
    for (peak, &width) in peaks.iter_mut().zip(widths) {
        *peak = crate::dsp::peak_abs(&coeffs[start..start + width]);
        start += width;
    }
    let frame_max = peaks.iter().fold(0.0f32, |m, &p| m.max(p));
    // Masking model (see `QualityTable::mask`).
    let cull_floor = (frame_max * table.mask).max(1e-4);
    let mut start = 0usize;
    for ((&width, &bits), &max_mag) in widths.iter().zip(&table.bits).zip(peaks.iter()) {
        let band = &coeffs[start..start + width];
        start += width;
        let bits = match bits {
            Some(bits) if max_mag >= cull_floor => bits,
            _ => {
                bw.write_bit(false);
                continue;
            }
        };
        // Keep flag, then the scale exponent: smallest e with 2^e >= max_mag.
        let e = band_exponent(max_mag);
        bw.write_bits((1 << 6) | (e + 32) as u32, 7);
        let qmax = (1i32 << (bits - 1)) - 1;
        let quantized = &mut qbuf[..width];
        crate::dsp::quantize_band(band, exp2i(-e), qmax, quantized);
        // Rice parameter adapted to this band's actual content;
        // tonal bands are mostly zeros and pack near one bit per
        // coefficient.
        let sum = quantized.iter().map(|&q| zigzag(q)).sum();
        let k = rice_param(sum, width);
        bw.write_bits(k as u32, 4);
        for &q in quantized.iter() {
            bw.write_rice(zigzag(q), k);
        }
    }
}

fn unpack_window(
    widths: &[usize],
    table: &QualityTable,
    br: &mut BitReader<'_>,
    coeffs: &mut [f32],
    qbuf: &mut [i32],
) -> Result<(), OvlError> {
    coeffs.fill(0.0);
    let mut start = 0usize;
    for (&width, &bits) in widths.iter().zip(&table.bits) {
        let keep = br.read_bit().map_err(|_| OvlError::BadBitstream)?;
        if !keep {
            start += width;
            continue;
        }
        let bits = bits.ok_or(OvlError::BadBitstream)?;
        let e = br.read_bits(6).map_err(|_| OvlError::BadBitstream)? as i32 - 32;
        let scale = exp2i(e);
        let qmax = (1i32 << (bits - 1)) - 1;
        // A zig-zagged value above `2 * qmax` decodes to a magnitude
        // above `qmax`.
        let zmax = 2 * qmax as u32;
        let k = br.read_bits(4).map_err(|_| OvlError::BadBitstream)? as u8;
        // Two phases: the Rice reads are serial (each code's length
        // depends on the bits before it), the rescale is a batch
        // kernel over the staged integers.
        let quantized = &mut qbuf[..width];
        for slot in quantized.iter_mut() {
            let z = br.read_rice(k).map_err(|_| OvlError::BadBitstream)?;
            if z > zmax {
                return Err(OvlError::BadBitstream);
            }
            *slot = unzigzag(z);
        }
        crate::dsp::dequantize_band(quantized, scale, qmax, &mut coeffs[start..start + width]);
        start += width;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::analysis::snr_db;
    use es_audio::gen::{render_stereo, MultiTone, Signal, Sine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn exp2i_is_exp2_at_every_exponent_a_header_can_carry() {
        for e in -32..=32 {
            assert_eq!(exp2i(e).to_bits(), (e as f32).exp2().to_bits(), "2^{e}");
            assert_eq!(exp2i(-e), 1.0 / exp2i(e), "2^-{e}");
        }
    }

    #[test]
    fn band_exponent_is_log2_ceil_near_every_power_of_two_and_at_random() {
        let oracle = |x: f32| x.log2().ceil().clamp(-32.0, 31.0) as i32;
        let check = |x: f32| assert_eq!(band_exponent(x), oracle(x), "{x:e} ({:#x})", x.to_bits());
        for e in -32..=31 {
            let p = (e as f32).exp2();
            let (mut up, mut down) = (p, p);
            check(p);
            for _ in 0..4_096 {
                up = up.next_up();
                down = down.next_down();
                check(up);
                check(down);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xE4_B0);
        for _ in 0..200_000 {
            check(f32::from_bits(rng.gen::<u32>() >> 1));
        }
        for x in [
            0.0,
            f32::MIN_POSITIVE,
            1e-45,
            1e-4,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ] {
            check(x);
        }
    }

    #[test]
    fn rice_param_is_the_f64_mean_formula_for_every_band_and_sum() {
        // The Rice parameter before it went integer: ceil(log2) of the
        // f64 mean, 0 below a mean of 1, capped at 12 by the caller.
        fn rice_param_for_mean(mean: f64) -> u8 {
            if mean < 1.0 {
                return 0;
            }
            (mean.log2().ceil() as i64).clamp(0, 24) as u8
        }
        for width in band_widths(BLOCK) {
            for sum in 0..=width as u32 * 4_096 {
                let want = rice_param_for_mean(sum as f64 / width as f64).min(12);
                assert_eq!(rice_param(sum, width), want, "width {width}, sum {sum}");
            }
        }
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
        // at the commit that replaced the 2n-point FFT: 12 076 bytes,
        // 49.635370 dB. Easing the signal into its frame instead of
        // framing it between zeros made it 10 068 bytes, 49.642091 dB.
        // Allowed: 0.01 % and 0.01 dB.
        let codec = OvlCodec::new();
        let samples = music_stereo(44_100);
        let enc = codec.encode(&samples, 2, MAX_QUALITY);
        let dec = codec.decode(&enc.bytes).unwrap();
        let snr = snr_db(&samples, &dec.samples).unwrap();
        assert!((snr - 49.642_091).abs() < 0.01, "snr {snr} dB");
        let len = enc.bytes.len() as f64;
        assert!((len - 10_068.0).abs() <= 10_068.0 * 1e-4, "{len} bytes");
    }

    /// Length of the pinned signals: not a multiple of BLOCK.
    const PIN_FRAMES: usize = 5_000;

    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The pinned signals: two sources of each of four kinds.
    fn pin_sources(kind: usize) -> [Box<dyn Signal>; 2] {
        use es_audio::gen::{ImpulseTrain, Sweep, WhiteNoise};
        match kind {
            0 => [
                Box::new(MultiTone::music(44_100)),
                Box::new(MultiTone::new(44_100, &[(523.25, 0.4), (1_046.5, 0.2)])),
            ],
            1 => [
                Box::new(WhiteNoise::new(27, 0.6)),
                Box::new(WhiteNoise::new(28, 0.3)),
            ],
            2 => [
                Box::new(Sweep::new(40.0, 18_000.0, 0.1, 44_100, 0.8)),
                Box::new(Sweep::new(9_000.0, 200.0, 0.05, 44_100, 0.5)),
            ],
            _ => [
                Box::new(ImpulseTrain::new(441, 0.9)),
                Box::new(ImpulseTrain::new(97, 0.25)),
            ],
        }
    }

    /// Hashes the encode and the decode of `samples` at qualities
    /// 0/3/7/10: the payloads into `hashes[0]`, the decoded samples
    /// into `hashes[1]`.
    fn hash_roundtrips(codec: &OvlCodec, samples: &[i16], channels: u8, hashes: &mut [u64; 2]) {
        let mut out = Vec::new();
        for quality in [0u8, 3, 7, 10] {
            let enc = codec.encode(samples, channels, quality);
            fnv(&mut hashes[0], &(enc.bytes.len() as u64).to_le_bytes());
            fnv(&mut hashes[0], &enc.bytes);
            codec.decode_into(&enc.bytes, &mut out).unwrap();
            assert_eq!(out.len(), samples.len());
            for s in &out {
                fnv(&mut hashes[1], &s.to_le_bytes());
            }
        }
    }

    const FNV_BASIS: [u64; 2] = [0xCBF2_9CE4_8422_2325; 2];

    #[test]
    fn bitstream_and_decoded_samples_are_pinned_byte_for_byte() {
        // Size and SNR (above) let a changed bitstream pass; this pins
        // every encoded byte and every decoded sample. FNV-1a over
        // encode + decode of four signals × qualities 0/3/7/10 × mono
        // and stereo, at a length that is not a multiple of BLOCK. The
        // signals are rendered sample by sample, so the hash pins the
        // codec, not the renderer. Both hashes are the ones the codec
        // gave once the encoder eased each signal into its frame
        // (different coefficients, so different bits and different
        // quantization noise). Before that, the payload hash had last
        // moved when the header gained the twin mask, and the sample
        // hash had not moved since before the entropy layer went
        // table-driven.
        use es_audio::gen::f32_to_i16;
        assert_ne!(PIN_FRAMES % BLOCK, 0);
        let codec = OvlCodec::new();
        let mut hash = FNV_BASIS;
        for kind in 0..4 {
            for channels in [1u8, 2] {
                let mut src = pin_sources(kind);
                let mut samples = Vec::with_capacity(PIN_FRAMES * channels as usize);
                for _ in 0..PIN_FRAMES {
                    for s in src.iter_mut().take(channels as usize) {
                        samples.push(f32_to_i16(s.next_sample()));
                    }
                }
                hash_roundtrips(&codec, &samples, channels, &mut hash);
            }
        }
        let want = [0x3C2A_513A_05E0_1A81, 0x2192_9D7B_7C20_726E];
        assert_eq!(
            hash, want,
            "payloads {:#018x}, samples {:#018x}",
            hash[0], hash[1]
        );
    }

    #[test]
    fn twin_channels_are_pinned_byte_for_byte() {
        // The pin above has distinct channels, so it never masks one.
        // This one does: each kind's first source as dual mono, then
        // the same with one sample of the right channel raised at
        // mid-packet (no longer a twin: coded in full), then three
        // channels whose last repeats the first but not the one before
        // it (coded in full too). Both hashes are the ones the codec
        // gave once the encoder eased each signal into its frame. Before
        // that, the payload hash was the one it gave once its header
        // carried the twin mask, and the sample hash the one it gave
        // when it still coded every channel's bits.
        use es_audio::gen::f32_to_i16;
        let codec = OvlCodec::new();
        let mut hash = FNV_BASIS;
        for kind in 0..4 {
            let [mut a, mut b] = pin_sources(kind);
            let mono: Vec<i16> = (0..PIN_FRAMES)
                .map(|_| f32_to_i16(a.next_sample()))
                .collect();
            let mut dual: Vec<i16> = mono.iter().flat_map(|&s| [s, s]).collect();
            hash_roundtrips(&codec, &dual, 2, &mut hash);
            let mid = PIN_FRAMES / 2 * 2 + 1;
            dual[mid] = dual[mid].wrapping_add(16_000);
            hash_roundtrips(&codec, &dual, 2, &mut hash);
            let other = (0..PIN_FRAMES).map(|_| f32_to_i16(b.next_sample()));
            let aba: Vec<i16> = mono
                .iter()
                .zip(other)
                .flat_map(|(&s, o)| [s, o, s])
                .collect();
            hash_roundtrips(&codec, &aba, 3, &mut hash);
        }
        let want = [0x9279_3BE6_5630_09D9, 0x90EF_7934_AC60_670D];
        assert_eq!(
            hash, want,
            "payloads {:#018x}, samples {:#018x}",
            hash[0], hash[1]
        );
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
        assert!(matches!(
            codec.decode(&[1, 5, 0, 0, 0, 0]),
            Err(OvlError::ShortHeader)
        ));
        // Bad channel count.
        assert!(matches!(
            codec.decode(&[0, 5, 0, 0, 0, 0, 0]),
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
        // 8 channels × 2^24 samples claimed by a 7-byte payload: this
        // used to zero 515 MiB of arena before reading the first bit.
        // Masking all but the first channel leaves one to code, which
        // the empty body cannot carry either.
        let codec = OvlCodec::new();
        codec
            .decode(&codec.encode(&music_stereo(1_024), 2, 10).bytes)
            .unwrap();
        let before = codec.arena.borrow().coeffs.capacity();
        for mask in [0, 0xFE] {
            assert!(matches!(
                codec.decode(&[8, 10, 0, 0, 0, 1, mask]),
                Err(OvlError::BadBitstream)
            ));
        }
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
        bytes.resize(HEADER + flag_bytes, 0);
        assert_eq!(codec.encode(&[0i16; BLOCK], 1, MAX_QUALITY).bytes, bytes);
        assert_eq!(codec.decode(&bytes).unwrap().samples, vec![0i16; BLOCK]);
        bytes.pop();
        assert!(matches!(codec.decode(&bytes), Err(OvlError::BadBitstream)));
    }

    #[test]
    fn a_rice_code_that_unzigzags_to_i32_min_is_rejected() {
        // k = 15 and a 2^17 − 1 run of ones make the Rice value
        // u32::MAX, which unzigzags to i32::MIN: a 16 KiB datagram whose
        // magnitude check used to be `q.abs()`, an overflow panic in a
        // checked build and an accepted coefficient in a release one.
        let mut bw = BitWriter::new();
        bw.write_bit(true);
        bw.write_bits(32, 6);
        bw.write_bits(15, 4);
        bw.write_unary((1 << 17) - 1);
        bw.write_bits(0x7FFF, 15);
        let mut bytes = vec![1u8, MAX_QUALITY];
        bytes.extend_from_slice(&(BLOCK as u32).to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&bw.into_bytes());
        assert!(matches!(
            OvlCodec::new().decode(&bytes),
            Err(OvlError::BadBitstream)
        ));
    }

    #[test]
    fn decode_rejects_absurd_sample_count() {
        let codec = OvlCodec::new();
        let mut bytes = vec![1u8, 5];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(0);
        assert!(matches!(
            codec.decode(&bytes),
            Err(OvlError::BadHeader("sample count"))
        ));
    }

    #[test]
    fn a_twin_mask_past_the_channels_or_on_the_first_is_refused() {
        let codec = OvlCodec::new();
        let mut dual = codec.encode(&[7i16; 2 * BLOCK], 2, 5).bytes;
        assert_eq!(dual[6], 0b10, "the right channel is the left's twin");
        let body = dual.clone();
        for mask in 0..=u8::MAX {
            dual[6] = mask;
            let got = codec.decode(&dual);
            if mask & 1 != 0 || mask > 0b11 {
                assert_eq!(
                    got.err(),
                    Some(OvlError::BadHeader("twin mask")),
                    "{mask:#b}"
                );
            }
        }
        // Without the mask, the body is too short for two channels.
        dual[6] = 0;
        assert_eq!(codec.decode(&dual).err(), Some(OvlError::BadBitstream));
        let samples = codec.decode(&body).unwrap().samples;
        assert!(samples.chunks_exact(2).all(|f| f[0] == f[1]));
    }

    #[test]
    #[should_panic(expected = "the twin mask has room for 8 channels")]
    fn encoding_nine_channels_is_refused() {
        OvlCodec::new().encode(&[0i16; 9], 9, 5);
    }
}
