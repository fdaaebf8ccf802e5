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
//! Like Vorbis, OVL codes a stream, not packets. One grid of windows,
//! a [`BLOCK`] apart, runs through the whole stream, and a packet
//! carries the windows that end inside its frames: 4 or 5 for a
//! 2 205-frame packet, 4.31 on average, where a packet framed on its
//! own needs 6. The encoder keeps the frames the next packet's first
//! windows overlap, at most [`DELAY`] per channel.
//!
//! So a packet does not decode to its own frames alone. Decoded on its
//! own ([`OvlCodec::decode_span`]), it is the overlap-add of its
//! windows, an [`OvlSpan`]. The frames it plays are that span
//! completed by the [`OvlTail`] the packet before it left
//! ([`OvlSpan::complete`]): the two overlap in the packet's first
//! `DELAY - position % BLOCK` frames, its *head*. Every packet plays as
//! many frames as it carries, the stream's frames [`DELAY`] earlier.
//! A packet that starts a fresh lap (its header's lap bit clear: the
//! stream's first, or the first after [`OvlCodec::reset`]) is complete
//! on its own. A packet whose predecessor is missing plays its head
//! faded in from what its own windows hold there.
//!
//! The encoder reports *work units* (multiply-accumulate counts), which
//! the Figure 4 harness converts to Geode-class CPU cycles.

use std::cell::RefCell;
use std::ops::Range;

use crate::bitstream::{unzigzag, zigzag, BitReader, BitWriter};
use crate::mdct::Mdct;

/// Half-length of the MDCT (coefficients per window, and the hop of
/// the stream's window grid).
pub const BLOCK: usize = 512;

/// The codec delay in frames: a packet plays the stream's frames this
/// far behind the ones it carries. Also the longest head a packet's
/// predecessor completes.
pub const DELAY: usize = 2 * BLOCK;

/// Maximum quality index ("we simply set the Ogg Vorbis quality index
/// to its maximum", §2.2).
pub const MAX_QUALITY: u8 = 10;

/// Most channels a packet may carry: one bit each in the twin mask.
const MAX_CHANNELS: usize = 8;

/// Payload header: channel count, quality index, per-channel frame
/// count (`u32` LE), the mask byte, and the stream position of the
/// packet's first frame (`u32` LE, wrapping). Bit `c ≥ 1` of the mask
/// set means channel `c` carries channel `c - 1`'s samples and codes
/// no window bits; bit 0 is [`LAPS`].
const HEADER: usize = 11;

/// Mask bit 0: the packet laps the one before it. Clear, it starts a
/// fresh lap at position 0.
const LAPS: u8 = 1;

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
    /// The packet payload.
    pub bytes: Vec<u8>,
    /// Multiply-accumulate work performed (for the CPU model).
    pub work_units: u64,
}

/// One packet decoded on its own: the overlap-add of its windows, which
/// cover the packet's frames from its first window on and the next
/// packet's head. Reuse one across packets: decoding into it keeps its
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct OvlSpan {
    channels: u8,
    /// Frames the packet plays.
    frames: usize,
    laps: bool,
    /// Stream position of the packet's first frame.
    position: u32,
    /// Bit `c` set: channel `c` repeats channel `c - 1`.
    twins: u8,
    /// Each coded channel's frames in turn, from the packet's first to
    /// the end of the next packet's head: zero up to its first window,
    /// the overlap-add of its windows from there on (all zero when it
    /// carries none).
    samples: Vec<f32>,
}

/// What a packet leaves the next one: its windows' overlap-add over
/// the next packet's head, the head of its own predecessor added in
/// where that reaches so far.
#[derive(Debug, Clone, Default)]
pub struct OvlTail {
    /// 0 for no tail.
    channels: u8,
    /// Stream position right after the packet that left it.
    end: u32,
    /// Bit `c` set: channel `c` repeats channel `c - 1`.
    twins: u8,
    /// Each channel's frames in turn, a twin's not stored.
    samples: Vec<f32>,
}

impl OvlTail {
    /// Frames of the next packet it reaches into.
    pub fn frames(&self) -> usize {
        let coded = coded(self.channels, self.twins);
        self.samples.len().checked_div(coded).unwrap_or(0)
    }
}

/// Resizes `v` to `len`, first making room for `most` if it has less:
/// a buffer whose length moves with the grid's phase from packet to
/// packet grows once, to the most it can need, instead of doubling.
fn fit<T: Clone>(v: &mut Vec<T>, len: usize, most: usize, value: T) {
    if v.capacity() < most {
        v.clear();
        v.reserve_exact(most);
    }
    v.resize(len, value);
}

/// Most windows a packet of `frames` frames carries, at any phase.
fn most_windows(frames: usize) -> usize {
    frames.div_ceil(BLOCK)
}

/// Frames per run of the twin checks: each run is one or of xors with
/// no exit inside, so it vectorizes, and a channel that differs early
/// stops after its first run.
const RUN: usize = 256;

/// Whether channel `c` of the interleaved `samples` repeats channel
/// `c - 1` in every frame.
fn repeats(samples: &[i16], ch: usize, c: usize) -> bool {
    if ch == 2 {
        let (frames, _) = samples.as_chunks::<2>();
        frames
            .chunks(RUN)
            .all(|run| run.iter().fold(0, |d, &[l, r]| d | (l ^ r)) == 0)
    } else {
        samples
            .chunks(RUN * ch)
            .all(|run| run.chunks_exact(ch).fold(0, |d, f| d | (f[c] ^ f[c - 1])) == 0)
    }
}

/// Whether two channels' held frames are equal. Each frame is an `i16`
/// over 32 768 or the +0 a fresh lap starts from, never a NaN or a −0,
/// so equal bits are equal values (`==` on `f32`s would stop at every
/// element).
fn same_plane(a: &[f32], b: &[f32]) -> bool {
    a.chunks(RUN).zip(b.chunks(RUN)).all(|(a, b)| {
        let diff = a
            .iter()
            .zip(b)
            .fold(0, |d, (x, y)| d | (x.to_bits() ^ y.to_bits()));
        diff == 0
    })
}

/// Channels of `channels` that are no twin.
fn coded(channels: u8, twins: u8) -> usize {
    usize::from(channels) - twins.count_ones() as usize
}

/// Channel `c`'s `len` samples among `planes`, which store each channel
/// but the `twins` in turn.
fn plane(planes: &[f32], twins: u8, c: usize, len: usize) -> &[f32] {
    let mut source = c;
    while twins & 1 << source != 0 {
        source -= 1;
    }
    let below = twins & ((1u16 << source) - 1) as u8;
    &planes[(source - below.count_ones() as usize) * len..][..len]
}

impl OvlSpan {
    /// Channel count from the payload header.
    pub fn channels(&self) -> u8 {
        self.channels
    }

    /// Frames the packet plays.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The packet laps the one before it: without that packet's tail
    /// its head plays faded.
    pub fn laps(&self) -> bool {
        self.laps
    }

    /// `tail` is the one this packet's head laps: left by its stream's
    /// packet right before it.
    pub fn laps_onto(&self, tail: &OvlTail) -> bool {
        self.laps && tail.channels == self.channels && tail.end == self.position
    }

    /// The frames the packet plays, into `out` (interleaved, cleared
    /// first): the span plus `pred`, if that is the tail this packet
    /// laps onto (a tail it does not is ignored). What it leaves the
    /// next packet goes into `tail`.
    pub fn complete(&self, pred: Option<&OvlTail>, out: &mut Vec<i16>, tail: &mut OvlTail) {
        let ch = usize::from(self.channels);
        out.clear();
        tail.samples.clear();
        tail.channels = self.channels;
        tail.end = self.position.wrapping_add(self.frames as u32);
        let pred = pred.filter(|t| self.laps_onto(t));
        // A channel repeats the one before it if it does in both.
        tail.twins = self.twins & pred.map_or(u8::MAX, |t| t.twins);
        if ch == 0 {
            return;
        }
        let frames = self.frames;
        let rest = DELAY - (self.position as usize % BLOCK + frames) % BLOCK;
        let head = pred.map_or(0, OvlTail::frames);
        out.resize(frames * ch, 0);
        let kept = coded(self.channels, tail.twins);
        fit(&mut tail.samples, rest * kept, DELAY * kept, 0.0);
        let mut kept = tail.samples.chunks_exact_mut(rest);
        let mut c = 0;
        while c < ch {
            // Channel `c` and the twins that repeat it, written in one
            // pass: its frames, the predecessor's head added into the
            // first of them.
            let repeats = (u32::from(tail.twins) >> (c + 1)).trailing_ones() as usize;
            let run = c..ch.min(c + 1 + repeats);
            let (windows, left) =
                plane(&self.samples, self.twins, c, frames + rest).split_at(frames);
            let lapped = pred.map_or(&[][..], |t| plane(&t.samples, t.twins, c, head));
            let (lapped, lapped_left) = lapped.split_at(head.min(frames));
            scatter(windows, lapped, ch, run.clone(), out);
            let next = kept.next().expect("a tail plane per channel but its twins");
            next.copy_from_slice(left);
            for (t, &p) in next.iter_mut().zip(lapped_left) {
                *t += p;
            }
            c = run.end;
        }
    }
}

/// Writes channels `run` of the `ch`-channel interleaved frames `out`:
/// frame `i` is `windows[i]`, plus `lapped[i]` where that reaches,
/// converted to i16. Each block of frames is converted on the stack in
/// one loop, then written to its frames' channels in a second.
fn scatter(windows: &[f32], lapped: &[f32], ch: usize, run: Range<usize>, out: &mut [i16]) {
    use crate::dsp::denormalize;
    let mut block = [0i16; BLOCK];
    let blocks = windows.chunks(BLOCK).zip((0..).step_by(BLOCK));
    for (dst, (windows, at)) in out.chunks_mut(BLOCK * ch).zip(blocks) {
        let lapped = lapped.get(at..).unwrap_or_default();
        let ints = &mut block[..windows.len()];
        let (sums, alone) = ints.split_at_mut(lapped.len().min(windows.len()));
        for ((i, &w), &p) in sums.iter_mut().zip(windows).zip(lapped) {
            *i = denormalize(w + p);
        }
        for (i, &w) in alone.iter_mut().zip(&windows[sums.len()..]) {
            *i = denormalize(w);
        }
        // Mono, one channel and dual mono get a fixed-size store, where
        // a `fill` of a runtime length is a loop of its own.
        match (ch, run.len()) {
            (1, _) => dst.copy_from_slice(ints),
            (_, 1) => {
                for (frame, &s) in dst.chunks_exact_mut(ch).zip(ints.iter()) {
                    frame[run.start] = s;
                }
            }
            (2, _) => {
                for (frame, &s) in dst.chunks_exact_mut(2).zip(ints.iter()) {
                    frame.copy_from_slice(&[s, s]);
                }
            }
            _ => {
                for (frame, &s) in dst.chunks_exact_mut(ch).zip(ints.iter()) {
                    frame[run.clone()].fill(s);
                }
            }
        }
    }
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
/// what each quality index decides per band. One instance codes one
/// stream: [`OvlCodec::encode`] laps each packet onto the one it coded
/// before. Decoding keeps no stream state, so one instance decodes any
/// packets. The window pipeline runs out of a flat `DecodeArena` that
/// grows once and is reused per packet, so steady-state encode and
/// decode perform no per-packet allocation beyond the returned
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

/// What the encoder keeps of its stream between packets.
#[derive(Default)]
struct Lap {
    /// Channels of the stream being coded; 0 before its first packet.
    channels: usize,
    /// Stream position of the next packet's first frame.
    position: u32,
    /// The normalized frames the next packet's first windows overlap,
    /// the last `BLOCK + position % BLOCK` coded: channel `c`'s at
    /// `held[c * DELAY..]`.
    held: Vec<f32>,
}

/// Reusable per-packet workspace and the encoder's stream state
/// (single-threaded; the sim never re-enters a codec call, and each
/// thread owns its own codec instance and therefore its own arena).
#[derive(Default)]
struct DecodeArena {
    /// Encode's time-domain planes, one per channel, each the frames
    /// held from the packet before and then this packet's.
    planes: Vec<f32>,
    /// Flat MDCT coefficients for all coded channels: the `c`-th coded
    /// channel's windows occupy `coeffs[c * windows * BLOCK..][..windows * BLOCK]`.
    coeffs: Vec<f32>,
    /// Quantized coefficient staging for one band (encode and decode):
    /// Rice I/O is serial, scaling is a batch kernel over this buffer.
    qbuf: Vec<i32>,
    /// Recycled backing store for the encode-side bit writer.
    bits: Vec<u8>,
    /// Each band's peak magnitude in the window being packed.
    peaks: Vec<f32>,
    lap: Lap,
    /// [`OvlCodec::decode_into`]'s span and the tail it leaves unread.
    alone: (OvlSpan, OvlTail),
}

impl Default for OvlCodec {
    fn default() -> Self {
        Self::new()
    }
}

/// The header fields a decode needs.
struct Header {
    channels: u8,
    quality: u8,
    frames: usize,
    /// The twin mask, [`LAPS`] cleared.
    twins: u8,
    laps: bool,
    position: u32,
}

impl Header {
    fn parse(bytes: &[u8]) -> Result<Header, OvlError> {
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
        let frames = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]) as usize;
        if frames > 1 << 24 {
            return Err(OvlError::BadHeader("sample count"));
        }
        let mask = bytes[6];
        if u32::from(mask) >> channels != 0 {
            return Err(OvlError::BadHeader("twin mask"));
        }
        let position = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]);
        let laps = mask & LAPS != 0;
        if !laps && position != 0 {
            return Err(OvlError::BadHeader("a fresh lap starts at position 0"));
        }
        Ok(Header {
            channels,
            quality,
            frames,
            twins: mask & !LAPS,
            laps,
            position,
        })
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
            arena: RefCell::new(DecodeArena::default()),
        }
    }

    /// Forgets the stream being coded: the next packet starts a fresh
    /// lap.
    pub fn reset(&self) {
        self.arena.borrow_mut().lap.channels = 0;
    }

    /// Encodes the stream's next interleaved samples into a packet: the
    /// windows of the stream's grid that end inside them. The first
    /// packet, the first after [`OvlCodec::reset`] and the first with
    /// another channel count start a fresh lap, with silence before
    /// them.
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
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        let lap = &mut arena.lap;
        let laps = lap.channels == ch;
        if !laps {
            lap.channels = ch;
            lap.position = 0;
            lap.held.clear();
            lap.held.resize(ch * DELAY, 0.0);
        }
        let position = lap.position;
        let phase = position as usize % BLOCK;
        let held = BLOCK + phase;
        let n_windows = (phase + per_ch) / BLOCK;
        let wn = n_windows * BLOCK;
        let covered = if n_windows == 0 { 0 } else { wn + BLOCK };

        // The twin mask: channel `c` repeats channel `c - 1` over every
        // frame the windows cover, which covers a mono signal fanned
        // out to every channel. The windows cover the `held` frames
        // and then `covered - held` of this packet's (none at all
        // without a window, when every channel is a twin), read here as
        // the samples they are normalized from: `s / 32 768` is exact,
        // so equal frames are equal samples.
        let fresh = &samples[..covered.saturating_sub(held) * ch];
        let kept = |c: usize| &lap.held[c * DELAY..][..held.min(covered)];
        let mask = (1..ch)
            .filter(|&c| same_plane(kept(c), kept(c - 1)) && repeats(fresh, ch, c))
            .fold(0u8, |m, c| m | 1 << c);

        // Each channel's plane: the frames held from the packet before,
        // then this packet's. The windows cover the first `covered`
        // frames of each, and the next packet keeps the frames from
        // `wn` on.
        let stride = held + per_ch;
        let most = ch * (2 * BLOCK - 1 + per_ch);
        fit(&mut arena.planes, ch * stride, most, 0.0);
        for (plane, kept) in arena
            .planes
            .chunks_exact_mut(stride)
            .zip(lap.held.chunks_exact(DELAY))
        {
            plane[..held].copy_from_slice(&kept[..held]);
        }
        // A twin's frames before `wn` feed only its windows, which are
        // not analyzed, so this packet's first `skip` frames are
        // deinterleaved for the other channels alone and the rest for
        // every channel in one pass.
        let skip = if mask == 0 {
            0
        } else {
            wn.saturating_sub(held)
        };
        if skip > 0 {
            for c in (0..ch).filter(|&c| mask & 1 << c == 0) {
                let plane = &mut arena.planes[c * stride + held..][..skip];
                crate::dsp::deinterleave_channel(&samples[..skip * ch], ch, c, plane);
            }
        }
        let rest = &mut arena.planes[held + skip..];
        crate::dsp::deinterleave_normalize(&samples[skip * ch..], ch, rest, stride);

        // Analyze each coded channel's windows into one flat
        // coefficient buffer (billed for every channel), then pack
        // windows interleaved by coded channel so the decoder can
        // stream in the same order.
        let work =
            samples.len() as u64 * 4 + (ch * n_windows) as u64 * self.mdct.ops_per_transform();
        let coded = ch - mask.count_ones() as usize;
        let most = coded * most_windows(per_ch) * BLOCK;
        fit(&mut arena.coeffs, coded * wn, most, 0.0);
        if n_windows > 0 {
            let no_twin = |&(c, _): &(usize, &[f32])| mask & 1 << c == 0;
            let planes = arena
                .planes
                .chunks_exact(stride)
                .enumerate()
                .filter(no_twin);
            for ((_, plane), coeffs) in planes.zip(arena.coeffs.chunks_exact_mut(wn)) {
                self.mdct.analyze_plane(&plane[..covered], coeffs);
            }
        }
        // What the next packet's first windows overlap.
        for (kept, plane) in lap
            .held
            .chunks_exact_mut(DELAY)
            .zip(arena.planes.chunks_exact(stride))
        {
            kept[..stride - wn].copy_from_slice(&plane[wn..]);
        }
        lap.position = position.wrapping_add(per_ch as u32);

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
        bytes.push(if laps { mask | LAPS } else { mask });
        bytes.extend_from_slice(&position.to_le_bytes());
        arena.bits = bw.drain_into(&mut bytes);
        OvlEncoded {
            bytes,
            work_units: work,
        }
    }

    /// Decodes a packet on its own into a caller-provided buffer
    /// (cleared and resized): the frames it plays, with no predecessor
    /// to complete its head. Returns `(channels, work_units)`. Reusing
    /// `out` across packets makes steady-state decode allocation-free.
    pub fn decode_into(&self, bytes: &[u8], out: &mut Vec<i16>) -> Result<(u8, u64), OvlError> {
        let (mut span, mut tail) = std::mem::take(&mut self.arena.borrow_mut().alone);
        let decoded = self.decode_span(bytes, &mut span);
        if decoded.is_ok() {
            span.complete(None, out, &mut tail);
        }
        let channels = span.channels;
        self.arena.borrow_mut().alone = (span, tail);
        decoded.map(|work| (channels, work))
    }

    /// Decodes a packet's windows into `span`, returning the work
    /// units. On an error `span` holds nothing to play.
    pub fn decode_span(&self, bytes: &[u8], span: &mut OvlSpan) -> Result<u64, OvlError> {
        span.channels = 0;
        span.samples.clear();
        let h = Header::parse(bytes)?;
        let ch = h.channels as usize;
        let phase = h.position as usize % BLOCK;
        let n_windows = (phase + h.frames) / BLOCK;

        // Every window × coded channel spends at least one keep-flag
        // bit per band, so the header cannot claim more windows than
        // the payload has bits for — checked before the arena is sized
        // from it.
        let coded = ch - h.twins.count_ones() as usize;
        if n_windows * coded * self.widths.len() > (bytes.len() - HEADER) * 8 {
            return Err(OvlError::BadBitstream);
        }

        let mut br = BitReader::new(&bytes[HEADER..]);
        let work =
            (h.frames * ch) as u64 * 2 + (ch * n_windows) as u64 * self.mdct.ops_per_transform();
        let wn = n_windows * BLOCK;
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        // The most a phase can need is one window more than this one
        // has, within the bound just checked.
        let most = most_windows(h.frames);
        fit(&mut arena.coeffs, coded * wn, coded * most * BLOCK, 0.0);
        arena.qbuf.resize(BLOCK, 0);
        let table = &self.qualities[h.quality as usize];
        for w in 0..n_windows {
            for coeffs in arena.coeffs.chunks_exact_mut(wn) {
                let coeffs = &mut coeffs[w * BLOCK..][..BLOCK];
                unpack_window(&self.widths, table, &mut br, coeffs, &mut arena.qbuf)?;
            }
        }

        // Each coded channel's frames to the end of the next packet's
        // head: zero up to the first window, which starts `BLOCK -
        // phase` frames into the packet, the windows from there on.
        let covered = h.frames + DELAY - (phase + h.frames) % BLOCK;
        fit(
            &mut span.samples,
            coded * covered,
            coded * (most + 2) * BLOCK,
            0.0,
        );
        for (c, plane) in span.samples.chunks_exact_mut(covered).enumerate() {
            if n_windows == 0 {
                plane.fill(0.0);
                continue;
            }
            let (lead, windows) = plane.split_at_mut(BLOCK - phase);
            lead.fill(0.0);
            self.mdct
                .synthesize_plane(&arena.coeffs[c * wn..][..wn], windows);
        }
        span.twins = h.twins;
        span.channels = h.channels;
        span.frames = h.frames;
        span.laps = h.laps;
        span.position = h.position;
        Ok(work)
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

    /// One packet decoded on its own into a fresh buffer.
    fn decode(codec: &OvlCodec, bytes: &[u8]) -> Result<Vec<i16>, OvlError> {
        let mut out = Vec::new();
        codec.decode_into(bytes, &mut out).map(|_| out)
    }

    /// `samples` coded as a stream's first packet with `DELAY` frames
    /// of silence after them, and the decoded frames that play
    /// `samples`: a packet plays the stream `DELAY` frames late.
    fn roundtrip(
        codec: &OvlCodec,
        samples: &[i16],
        channels: u8,
        quality: u8,
    ) -> (OvlEncoded, Vec<i16>) {
        codec.reset();
        let mut padded = samples.to_vec();
        padded.resize(samples.len() + DELAY * channels as usize, 0);
        let enc = codec.encode(&padded, channels, quality);
        let mut dec = decode(codec, &enc.bytes).expect("own packet decodes");
        dec.drain(..DELAY * channels as usize);
        (enc, dec)
    }

    /// `samples` coded as one stream in packets of `lengths` frames
    /// (cycled), each decoded and completed by its predecessor's tail:
    /// the payloads and the frames played, in order.
    fn stream(
        codec: &OvlCodec,
        samples: &[i16],
        channels: u8,
        quality: u8,
        lengths: &[usize],
    ) -> (Vec<Vec<u8>>, Vec<i16>) {
        codec.reset();
        let ch = channels as usize;
        let (mut payloads, mut played) = (Vec::new(), Vec::new());
        let (mut span, mut tail, mut next, mut out) = (
            OvlSpan::default(),
            OvlTail::default(),
            OvlTail::default(),
            Vec::new(),
        );
        let mut at = 0;
        for &len in lengths.iter().cycle() {
            if at == samples.len() {
                break;
            }
            let end = (at + len * ch).min(samples.len());
            let enc = codec.encode(&samples[at..end], channels, quality);
            at = end;
            codec
                .decode_span(&enc.bytes, &mut span)
                .expect("own packet decodes");
            span.complete(Some(&tail), &mut out, &mut next);
            std::mem::swap(&mut tail, &mut next);
            played.extend_from_slice(&out);
            payloads.push(enc.bytes);
        }
        (payloads, played)
    }

    #[test]
    fn roundtrip_preserves_shape_at_max_quality() {
        let codec = OvlCodec::new();
        let samples = music_stereo(2_048);
        let (_, dec) = roundtrip(&codec, &samples, 2, MAX_QUALITY);
        assert_eq!(dec.len(), samples.len());
        let snr = snr_db(&samples, &dec).unwrap();
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
        // Coded as a stream's first packet, with silence for its last
        // windows to reach into, it is 12 081 bytes, 49.635436 dB: the
        // stream starts on a step out of silence, which its first
        // windows pay for as the packet framed between zeros did.
        // Allowed: 0.01 % and 0.01 dB.
        let codec = OvlCodec::new();
        let samples = music_stereo(44_100);
        let (enc, dec) = roundtrip(&codec, &samples, 2, MAX_QUALITY);
        let snr = snr_db(&samples, &dec).unwrap();
        let len = enc.bytes.len() as f64;
        assert!((snr - 49.635_436).abs() < 0.01, "snr {snr} dB");
        assert!((len - 12_081.0).abs() <= 12_081.0 * 1e-4, "{len} bytes");
    }

    #[test]
    fn a_stream_plays_a_delay_late_whatever_its_packets() {
        // The window grid is the stream's, so the packet lengths change
        // no window: completed packet by packet, the stream plays what
        // it plays coded as one packet, bit for bit, `DELAY` frames
        // late.
        let codec = OvlCodec::new();
        let samples = music_stereo(20_000);
        let (_, whole) = stream(&codec, &samples, 2, MAX_QUALITY, &[20_000]);
        for lengths in [&[2_205][..], &[1, 511, 512, 513, 1_023, 3_000], &[700, 2]] {
            let (_, played) = stream(&codec, &samples, 2, MAX_QUALITY, lengths);
            assert!(played == whole, "{lengths:?}");
        }
        // Before the stream, no window reaches the first BLOCK frames.
        assert!(whole[..2 * BLOCK].iter().all(|&s| s == 0));
        let snr = snr_db(&samples[..samples.len() - 2 * DELAY], &whole[2 * DELAY..]).unwrap();
        assert!(snr > 45.0, "{snr} dB");
    }

    #[test]
    fn a_2205_frame_packet_carries_4_or_5_windows() {
        // The windows that end inside a packet's frames: (phase + 2 205)
        // div 512, with the phase advancing 157 frames a packet. Mono
        // silence spends one keep flag per band per window, so the
        // payload counts them.
        let codec = OvlCodec::new();
        let bands = band_widths(BLOCK).len();
        let mut windows = 0;
        for n in 0..512 {
            let bytes = codec.encode(&[0; 2_205], 1, MAX_QUALITY).bytes;
            let w = (bytes.len() - HEADER) * 8 / bands;
            assert!(w == 4 || w == 5, "packet {n}: {w} windows");
            assert_eq!(bytes[6], if n == 0 { 0 } else { LAPS });
            windows += w;
        }
        // 512 packets, 512 × 2 205 frames: exactly 2 205 windows.
        assert_eq!(windows, 2_205);
    }

    #[test]
    fn a_head_without_its_predecessor_fades_in() {
        // Packet 1 completed with packet 0's tail plays what the stream
        // does; without it, its head (the first `DELAY - phase` frames)
        // holds only its own windows: silence, then the lone half of
        // its first window rising out of it. Beyond the head, nothing
        // changes. A tail from another stream position is ignored.
        let codec = OvlCodec::new();
        let samples = music_stereo(4_410);
        let p0 = codec.encode(&samples[..4_410], 2, MAX_QUALITY).bytes;
        let p1 = codec.encode(&samples[4_410..], 2, MAX_QUALITY).bytes;
        let (mut span, mut tail, mut scratch) =
            (OvlSpan::default(), OvlTail::default(), OvlTail::default());
        let (mut lapped, mut faded) = (Vec::new(), Vec::new());
        codec.decode_span(&p0, &mut span).unwrap();
        assert!(!span.laps());
        span.complete(None, &mut lapped, &mut tail);
        codec.decode_span(&p1, &mut span).unwrap();
        assert!(span.laps() && span.laps_onto(&tail));
        span.complete(Some(&tail), &mut lapped, &mut scratch);
        span.complete(None, &mut faded, &mut scratch);
        let head = DELAY - 2_205 % BLOCK;
        assert!(lapped[2 * head..] == faded[2 * head..]);
        assert!(faded[..2 * (head - BLOCK)].iter().all(|&s| s == 0));
        assert!(lapped[..2 * head] != faded[..2 * head]);
        let mut elsewhere = tail.clone();
        elsewhere.end = elsewhere.end.wrapping_add(1);
        assert!(!span.laps_onto(&elsewhere));
        let mut ignored = Vec::new();
        span.complete(Some(&elsewhere), &mut ignored, &mut scratch);
        assert_eq!(ignored, faded);
    }

    /// Length of the pinned signals: not a multiple of BLOCK.
    const PIN_FRAMES: usize = 5_000;

    /// Packet lengths the pins code their signals in, cycled: a
    /// producer's, one frame, and one that is not a multiple of BLOCK.
    const PIN_PACKETS: [usize; 3] = [2_205, 1, 700];

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

    /// Hashes `samples` coded as one stream in [`PIN_PACKETS`] at
    /// qualities 0/3/7/10 and played back: the payloads into
    /// `hashes[0]`, the frames played into `hashes[1]`.
    fn hash_roundtrips(codec: &OvlCodec, samples: &[i16], channels: u8, hashes: &mut [u64; 2]) {
        for quality in [0u8, 3, 7, 10] {
            let (payloads, played) = stream(codec, samples, channels, quality, &PIN_PACKETS);
            for bytes in payloads {
                fnv(&mut hashes[0], &(bytes.len() as u64).to_le_bytes());
                fnv(&mut hashes[0], &bytes);
            }
            assert_eq!(played.len(), samples.len());
            for s in &played {
                fnv(&mut hashes[1], &s.to_le_bytes());
            }
        }
    }

    const FNV_BASIS: [u64; 2] = [0xCBF2_9CE4_8422_2325; 2];

    #[test]
    fn bitstream_and_decoded_samples_are_pinned_byte_for_byte() {
        // Size and SNR (above) let a changed bitstream pass; this pins
        // every encoded byte and every played sample. FNV-1a over four
        // signals × qualities 0/3/7/10 × mono and stereo, each coded as
        // one stream in packets of several lengths and played back with
        // every head completed, at a length that is not a multiple of
        // BLOCK. The signals are rendered sample by sample, so the hash
        // pins the codec, not the renderer. Both hashes are the ones
        // the codec gave once it lapped each packet onto the one before
        // (other windows, so other bits and other quantization noise).
        // Before that, eased packet edges had last moved both.
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
        let want = [0x005D_1509_389C_529C, 0xE0CC_4BE1_3F13_3296];
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
        // mid-stream (no longer a twin in the windows that cover it:
        // coded in full there), then three channels whose last repeats
        // the first but not the one before it (coded in full too). Both
        // hashes are the ones the codec gave once it lapped each packet
        // onto the one before; eased packet edges had last moved both.
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
        let want = [0xA058_416B_C3BE_9E03, 0xF3FC_C2A9_A078_52E9];
        assert_eq!(
            hash, want,
            "payloads {:#018x}, samples {:#018x}",
            hash[0], hash[1]
        );
    }

    #[test]
    fn a_channel_is_a_twin_unless_it_differs_in_a_frame_its_windows_cover() {
        // Dual mono in packets of 700 frames, with the right channel
        // changed in one frame: at each edge of each packet's covered
        // span (the held frames and then this packet's, up to the end
        // of its last window) and one frame outside it. A packet masks
        // the right channel exactly when the changed frame is not one
        // its windows cover, whichever side of the deinterleave (held
        // or fresh) that frame sits on.
        const FRAMES: usize = 700;
        const PACKETS: usize = 5;
        let covered = |k: usize| {
            let position = k * FRAMES;
            let phase = position % BLOCK;
            let n_windows = (phase + FRAMES) / BLOCK;
            let start = position as isize - (BLOCK + phase) as isize;
            let len = if n_windows == 0 {
                0
            } else {
                (n_windows + 1) * BLOCK
            };
            start..start + len as isize
        };
        let total = (FRAMES * PACKETS) as isize;
        let mut changed: Vec<isize> = (0..PACKETS)
            .flat_map(|k| {
                let span = covered(k);
                [span.start - 1, span.start, span.end - 1, span.end]
            })
            .filter(|g| (0..total).contains(g))
            .collect();
        changed.dedup();
        for g in changed {
            let mut dual: Vec<i16> = (0..FRAMES * PACKETS)
                .flat_map(|i| {
                    let s = (i * 37 % 2_000) as i16 - 1_000;
                    [s, s]
                })
                .collect();
            dual[2 * g as usize + 1] ^= 1;
            let codec = OvlCodec::new();
            for (k, packet) in dual.chunks(2 * FRAMES).enumerate() {
                let bytes = codec.encode(packet, 2, MAX_QUALITY).bytes;
                assert_eq!(
                    bytes[6] & 2 != 0,
                    !covered(k).contains(&g),
                    "packet {k}, right channel changed at frame {g}"
                );
            }
        }
    }

    #[test]
    fn compression_actually_compresses() {
        let codec = OvlCodec::new();
        let samples = music_stereo(4_096);
        let raw_bytes = samples.len() * 2;
        codec.reset();
        let enc = codec.encode(&samples, 2, MAX_QUALITY);
        assert!(
            enc.bytes.len() * 2 < raw_bytes,
            "max quality must be at least 2:1 on tonal content: {} vs {raw_bytes}",
            enc.bytes.len()
        );
        codec.reset();
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
            let (enc, dec) = roundtrip(&codec, &samples, 2, q);
            assert!(
                enc.bytes.len() >= last_size,
                "size must not shrink as quality rises"
            );
            last_size = enc.bytes.len();
            let snr = snr_db(&samples, &dec).unwrap();
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
        let dec = decode(&codec, &enc.bytes).unwrap();
        assert!(dec.iter().all(|&s| s.abs() < 16));
    }

    #[test]
    fn non_multiple_of_block_roundtrips() {
        let codec = OvlCodec::new();
        let samples = music_stereo(777);
        let (_, dec) = roundtrip(&codec, &samples, 2, 8);
        assert_eq!(dec.len(), samples.len());
        assert!(snr_db(&samples, &dec).unwrap() > 15.0);
    }

    #[test]
    fn mono_roundtrips() {
        let codec = OvlCodec::new();
        let mut m = MultiTone::music(44_100);
        let samples: Vec<i16> = (0..3_000)
            .map(|_| es_audio::gen::f32_to_i16(m.next_sample()))
            .collect();
        let (enc, dec) = roundtrip(&codec, &samples, 1, 9);
        assert_eq!(enc.bytes[0], 1);
        assert!(snr_db(&samples, &dec).unwrap() > 20.0);
    }

    #[test]
    fn empty_input_roundtrips() {
        let codec = OvlCodec::new();
        let enc = codec.encode(&[], 2, 5);
        let dec = decode(&codec, &enc.bytes).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn work_units_scale_with_input() {
        let codec = OvlCodec::new();
        let small = codec.encode(&music_stereo(1_024), 2, 10);
        let large = codec.encode(&music_stereo(8_192), 2, 10);
        assert!(large.work_units > small.work_units * 4);
    }

    /// An 11-byte header: `channels`, `quality`, `frames`, `mask`,
    /// `position`.
    fn header(channels: u8, quality: u8, frames: u32, mask: u8, position: u32) -> Vec<u8> {
        let mut bytes = vec![channels, quality];
        bytes.extend_from_slice(&frames.to_le_bytes());
        bytes.push(mask);
        bytes.extend_from_slice(&position.to_le_bytes());
        bytes
    }

    #[test]
    fn decode_rejects_garbage() {
        let codec = OvlCodec::new();
        assert!(matches!(decode(&codec, &[]), Err(OvlError::ShortHeader)));
        assert!(matches!(
            decode(&codec, &[1, 2]),
            Err(OvlError::ShortHeader)
        ));
        let short = &header(1, 5, 0, 0, 0)[..HEADER - 1];
        assert!(matches!(decode(&codec, short), Err(OvlError::ShortHeader)));
        // Bad channel count.
        assert!(matches!(
            decode(&codec, &header(0, 5, 0, 0, 0)),
            Err(OvlError::BadHeader(_))
        ));
        // Valid header but truncated bitstream.
        let samples = music_stereo(1_024);
        let enc = codec.encode(&samples, 2, 10);
        let truncated = &enc.bytes[..enc.bytes.len() / 2];
        assert!(matches!(
            decode(&codec, truncated),
            Err(OvlError::BadBitstream)
        ));
    }

    #[test]
    fn forged_sample_count_is_rejected_before_allocating() {
        // 8 channels × 2^24 samples claimed by an 11-byte payload: this
        // used to zero 515 MiB of arena before reading the first bit.
        // Masking all but the first channel leaves one to code, which
        // the empty body cannot carry either, at any grid phase.
        let codec = OvlCodec::new();
        decode(&codec, &codec.encode(&music_stereo(1_024), 2, 10).bytes).unwrap();
        let before = codec.arena.borrow().coeffs.capacity();
        for (mask, position) in [(0, 0), (0xFE, 0), (0xFF, 511), (0xFF, u32::MAX)] {
            assert!(matches!(
                decode(&codec, &header(8, 10, 1 << 24, mask, position)),
                Err(OvlError::BadBitstream)
            ));
        }
        assert_eq!(codec.arena.borrow().coeffs.capacity(), before);
    }

    #[test]
    fn smallest_legal_packet_still_decodes() {
        // A stream's first block of mono silence: one window, one
        // cleared keep flag per band, nothing else.
        let codec = OvlCodec::new();
        let flag_bytes = band_widths(BLOCK).len().div_ceil(8);
        let mut bytes = header(1, MAX_QUALITY, BLOCK as u32, 0, 0);
        bytes.resize(HEADER + flag_bytes, 0);
        assert_eq!(codec.encode(&[0i16; BLOCK], 1, MAX_QUALITY).bytes, bytes);
        assert_eq!(decode(&codec, &bytes).unwrap(), vec![0i16; BLOCK]);
        bytes.pop();
        assert!(matches!(
            decode(&codec, &bytes),
            Err(OvlError::BadBitstream)
        ));
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
        let mut bytes = header(1, MAX_QUALITY, BLOCK as u32, 0, 0);
        bytes.extend_from_slice(&bw.into_bytes());
        assert!(matches!(
            decode(&OvlCodec::new(), &bytes),
            Err(OvlError::BadBitstream)
        ));
    }

    #[test]
    fn decode_rejects_absurd_sample_count() {
        let codec = OvlCodec::new();
        assert!(matches!(
            decode(&codec, &header(1, 5, u32::MAX, 0, 0)),
            Err(OvlError::BadHeader("sample count"))
        ));
    }

    #[test]
    fn a_fresh_lap_away_from_position_0_is_refused() {
        // Clear, the lap bit says the packet starts its stream's grid;
        // the grid starts at position 0. Set, any position is a lap.
        let codec = OvlCodec::new();
        let mut bytes = codec.encode(&[3i16; 700], 1, 5).bytes;
        for position in [1u32, 511, 512, u32::MAX] {
            bytes[7..HEADER].copy_from_slice(&position.to_le_bytes());
            bytes[6] = 0;
            assert_eq!(
                decode(&codec, &bytes).err(),
                Some(OvlError::BadHeader("a fresh lap starts at position 0"))
            );
        }
    }

    #[test]
    fn a_twin_mask_past_the_channels_is_refused() {
        let codec = OvlCodec::new();
        let mut dual = codec.encode(&[7i16; 2 * BLOCK], 2, 5).bytes;
        assert_eq!(
            dual[6], 0b10,
            "a fresh lap, the right channel the left's twin"
        );
        let body = dual.clone();
        for mask in 0..=u8::MAX {
            dual[6] = mask;
            let got = decode(&codec, &dual);
            if mask > 0b11 {
                assert_eq!(
                    got.err(),
                    Some(OvlError::BadHeader("twin mask")),
                    "{mask:#b}"
                );
            }
        }
        // Without the mask, the body is too short for two channels.
        dual[6] = 0;
        assert_eq!(decode(&codec, &dual).err(), Some(OvlError::BadBitstream));
        let samples = decode(&codec, &body).unwrap();
        assert!(samples.chunks_exact(2).all(|f| f[0] == f[1]));
    }

    #[test]
    #[should_panic(expected = "the twin mask has room for 8 channels")]
    fn encoding_nine_channels_is_refused() {
        OvlCodec::new().encode(&[0i16; 9], 9, 5);
    }

    /// The multi-pass completion the one-pass [`OvlSpan::complete`]
    /// replaced: each coded channel summed into a buffer of its own,
    /// then converted by the scalar kernel, then each twin copied from
    /// the channel before it in a pass over the frames of its own.
    fn oracle_complete(
        span: &OvlSpan,
        pred: Option<&OvlTail>,
        out: &mut Vec<i16>,
        tail: &mut OvlTail,
    ) {
        let ch = usize::from(span.channels);
        out.clear();
        tail.samples.clear();
        tail.channels = span.channels;
        tail.end = span.position.wrapping_add(span.frames as u32);
        let pred = pred.filter(|t| span.laps_onto(t));
        tail.twins = span.twins & pred.map_or(u8::MAX, |t| t.twins);
        if ch == 0 {
            return;
        }
        let frames = span.frames;
        let covered = span.samples.len() / coded(span.channels, span.twins);
        let head = pred.map_or(0, OvlTail::frames);
        out.resize(frames * ch, 0);
        let mut sum = Vec::new();
        for c in 0..ch {
            if tail.twins & 1 << c != 0 {
                for frame in out.chunks_exact_mut(ch) {
                    frame[c] = frame[c - 1];
                }
                continue;
            }
            sum.clear();
            sum.extend_from_slice(plane(&span.samples, span.twins, c, covered));
            if let Some(t) = pred {
                for (s, &p) in sum.iter_mut().zip(plane(&t.samples, t.twins, c, head)) {
                    *s += p;
                }
            }
            crate::dsp::scalar::interleave_denormalize(&sum[..frames], ch, c, out);
            tail.samples.extend_from_slice(&sum[frames..]);
        }
    }

    /// A sample of a span or a tail: mostly in range, some past it (the
    /// conversion saturates), and now and then a signed zero, an
    /// infinity or a NaN.
    fn random_sample(rng: &mut StdRng) -> f32 {
        const ODD: [f32; 6] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-30];
        match rng.gen::<u32>() % 64 {
            0 => ODD[rng.gen::<usize>() % ODD.len()],
            1..=8 => rng.gen::<f32>() * 8.0 - 4.0,
            _ => rng.gen::<f32>() * 2.0 - 1.0,
        }
    }

    /// A span as `decode_span` lays one out, filled with random
    /// samples: `channels` of them, bit `c ≥ 1` of `mask` making
    /// channel `c` a twin.
    fn random_span(
        rng: &mut StdRng,
        channels: u8,
        mask: u8,
        frames: usize,
        position: u32,
    ) -> OvlSpan {
        let twins = mask & !LAPS & ((1u16 << channels) - 1) as u8;
        let phase = position as usize % BLOCK;
        let covered = frames + DELAY - (phase + frames) % BLOCK;
        OvlSpan {
            channels,
            frames,
            laps: rng.gen::<u32>() % 8 != 0,
            position,
            twins,
            samples: (0..coded(channels, twins) * covered)
                .map(|_| random_sample(rng))
                .collect(),
        }
    }

    fn same_tail(a: &OvlTail, b: &OvlTail) -> bool {
        let bits = |t: &OvlTail| t.samples.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        (a.channels, a.end, a.twins) == (b.channels, b.end, b.twins) && bits(a) == bits(b)
    }

    proptest::proptest! {
        /// One stream of packets, each completed by the tail the one
        /// before it left (or by none, or by a tail it does not lap),
        /// by the one-pass completion and by the oracle: the same i16
        /// frames and the same tail, bit for bit. Half the streams
        /// cross the stream position's wrap.
        #[test]
        fn prop_complete_equals_the_multi_pass_completion(
            channels in 1u8..=8,
            lengths in proptest::collection::vec(1usize..=3_000, 1..6),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut position = match rng.gen::<bool>() {
                true => u32::MAX - rng.gen::<u32>() % 6_000,
                false => rng.gen::<u32>() % (1 << 20),
            };
            let (mut tail, mut next, mut out) = (OvlTail::default(), OvlTail::default(), Vec::new());
            let (mut want_tail, mut want_next, mut want) =
                (OvlTail::default(), OvlTail::default(), Vec::new());
            for &frames in &lengths {
                // Now and then a packet of another channel count, which
                // laps nothing the stream left.
                let chs = match rng.gen::<u32>() % 8 {
                    0 => 1 + rng.gen::<u8>() % 8,
                    _ => channels,
                };
                let mask = rng.gen();
                let span = random_span(&mut rng, chs, mask, frames, position);
                let lapped = rng.gen::<u32>() % 4 != 0;
                span.complete(lapped.then_some(&tail), &mut out, &mut next);
                oracle_complete(&span, lapped.then_some(&want_tail), &mut want, &mut want_next);
                proptest::prop_assert_eq!(&out, &want);
                proptest::prop_assert!(same_tail(&next, &want_next));
                std::mem::swap(&mut tail, &mut next);
                std::mem::swap(&mut want_tail, &mut want_next);
                // Now and then a gap: the next packet laps no tail.
                let gap = u32::from(rng.gen::<u32>() % 8 == 0);
                position = position.wrapping_add(frames as u32 + gap);
            }
        }
    }
}
