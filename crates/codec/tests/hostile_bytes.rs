//! Hostile bytes into the self-describing payload decoder, OVL's.
//!
//! A speaker decodes whatever arrives on its multicast group (§5.1:
//! garbage must be cheap to reject), so `Codecs::decode_wire` has to be
//! total on bytes no encoder produced: no panic — this runs in the dev
//! profile, so arithmetic overflow panics too — and no decode that
//! hands back more audio than the payload could have carried, which is
//! what bounds the memory a datagram can make a speaker touch. The
//! inputs are pure noise, and valid packets damaged the ways a wire or
//! an attacker damages them: flipped bits, truncation at every length,
//! and a forged header in front of a real body.
//!
//! Every OVL input is also decoded by an oracle: the decoder as it was
//! before its entropy layer went table-driven (libm `band_bits` and
//! `exp2` per band, the two-call Rice read, the scalar kernels), built
//! from public pieces and framed on the stream's window grid. The two
//! must agree on every input — the same samples and work, or the same
//! error. Some valid packets carry one signal on every channel, as the
//! producers send, so their header's twin mask marks channels that
//! code no bits; the oracle decodes every other channel in full and
//! copies the channel before into a twin. Every value of the mask byte
//! is tried on every OVL layout: bits past the channel count are
//! refused, and a mask that leaves fewer channels to code cannot make
//! the decoder hand back more audio than the coded bits bound. Some
//! valid packets lap the packet before them: decoded alone, their head
//! plays faded. The lap bit and the stream position are forged too: a
//! fresh lap away from position 0 is refused, a position at any grid
//! phase or wrapping past `u32::MAX` decodes or is refused within the
//! same bound, and so does a frame count whose windows the body cannot
//! hold.
//!
//! `PROPTEST_CASES=20000 cargo test -p es-codec --test hostile_bytes`
//! is the deep run; the default 64 cases per property keep it in the
//! tier-1 budget.

use es_codec::bitstream::{unzigzag, BitReader, OutOfBits};
use es_codec::mdct::Mdct;
use es_codec::ovl::{band_bits, band_widths, OvlError, BLOCK, DELAY};
use es_codec::{dsp, CodecError, CodecId, Codecs, OvlSpan, OvlTail, MAX_QUALITY};
use proptest::collection::vec;
use proptest::num::u8::ANY as ANY_U8;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the channels of a valid packet relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Twins {
    /// Each channel its own signal.
    None,
    /// One signal on every channel, as the producers send: OVL masks
    /// every channel after the first as a twin of the one before.
    All,
    /// Every channel the same but for one sample of the last at
    /// mid-packet: the last channel is no twin and is coded in full.
    AllButOne,
}

/// OVL, the one codec that parses a header of its own (PCM and µ-law
/// decode any bytes), at the channel counts the system streams and in
/// three twin layouts, whose masked channels its decoder copies.
const LAYOUTS: [(u8, Twins); 5] = [
    (1, Twins::None),
    (2, Twins::None),
    (2, Twins::All),
    (2, Twins::AllButOne),
    (3, Twins::All),
];

/// Samples in the valid packet each damaged input starts from.
const VALID_SAMPLES: usize = 4_096;

thread_local! {
    static CODECS: Codecs = Codecs::new();
    static ORACLE_MDCT: Mdct = Mdct::new(BLOCK);
}

/// The most samples a `len`-byte OVL payload of `channels` channels
/// can honestly decode to. Every window × coded channel spends at least
/// one keep-flag bit per band and yields at most BLOCK samples, so
/// `len` bytes carry at most `8 · len / bands` windows of one coded
/// channel; the twins copy them, at most once per channel.
fn max_samples(len: usize, channels: u8) -> usize {
    channels as usize * BLOCK * 8 * len / band_widths(BLOCK).len()
}

/// The oracle's Rice read: the unary quotient, then the remainder.
fn oracle_read_rice(br: &mut BitReader<'_>, k: u8) -> Result<u32, OutOfBits> {
    let q = br.read_unary()?;
    let r = br.read_bits(k)?;
    Ok((q << k) | r)
}

/// One window of one channel, unpacked the way the oracle decoder did.
fn oracle_unpack_window(
    br: &mut BitReader<'_>,
    quality: u8,
    coeffs: &mut [f32],
) -> Result<(), OvlError> {
    let bad = |_| OvlError::BadBitstream;
    coeffs.fill(0.0);
    let mut start = 0usize;
    for (b, width) in band_widths(BLOCK).into_iter().enumerate() {
        let band = &mut coeffs[start..start + width];
        start += width;
        if !br.read_bit().map_err(bad)? {
            continue;
        }
        let bits = band_bits(quality, b).ok_or(OvlError::BadBitstream)?;
        let scale = ((br.read_bits(6).map_err(bad)? as i32 - 32) as f32).exp2();
        let qmax = (1i32 << (bits - 1)) - 1;
        let k = br.read_bits(4).map_err(bad)? as u8;
        let mut quantized = vec![0i32; width];
        for slot in &mut quantized {
            let q = unzigzag(oracle_read_rice(br, k).map_err(bad)?);
            // `q.abs()`, made total: i32::MIN is out of range too.
            if q.unsigned_abs() > qmax as u32 {
                return Err(OvlError::BadBitstream);
            }
            *slot = q;
        }
        dsp::scalar::dequantize_band(&quantized, scale, qmax, band);
    }
    Ok(())
}

/// `Codecs::decode_wire` for OVL as it was: header checks, the window
/// unpack above for every coded channel, synthesis at the packet's
/// place on the stream's window grid, the scalar interleave of the
/// frames it plays with nothing before it, a copy of the channel
/// before for every twin and the same work units.
fn oracle_ovl_decode(bytes: &[u8], channels: u8) -> Result<(Vec<i16>, u64), CodecError> {
    if bytes.len() < 11 {
        return Err(OvlError::ShortHeader.into());
    }
    let (ch, quality) = (bytes[0], bytes[1]);
    if !(1..=8).contains(&ch) {
        return Err(OvlError::BadHeader("channel count").into());
    }
    if quality > MAX_QUALITY {
        return Err(OvlError::BadHeader("quality index").into());
    }
    let per_ch = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]) as usize;
    if per_ch > 1 << 24 {
        return Err(OvlError::BadHeader("sample count").into());
    }
    let chs = ch as usize;
    let bit: Vec<bool> = (0..8).map(|c| bytes[6] >> c & 1 == 1).collect();
    if bit[chs..].contains(&true) {
        return Err(OvlError::BadHeader("twin mask").into());
    }
    let position = u32::from_le_bytes([bytes[7], bytes[8], bytes[9], bytes[10]]);
    if !bit[0] && position != 0 {
        return Err(OvlError::BadHeader("a fresh lap starts at position 0").into());
    }
    let twin = |c: usize| c > 0 && bit[c];
    let coded: Vec<usize> = (0..chs).filter(|&c| !twin(c)).collect();
    let phase = position as usize % BLOCK;
    let n_windows = (phase + per_ch) / BLOCK;
    if n_windows * coded.len() * band_widths(BLOCK).len() > (bytes.len() - 11) * 8 {
        return Err(OvlError::BadBitstream.into());
    }
    let mut br = BitReader::new(&bytes[11..]);
    let wn = n_windows * BLOCK;
    let mut coeffs = vec![0.0f32; chs * wn];
    for w in 0..n_windows {
        for &c in &coded {
            oracle_unpack_window(&mut br, quality, &mut coeffs[c * wn + w * BLOCK..][..BLOCK])?;
        }
    }
    let mut out = vec![0i16; per_ch * chs];
    let mut work = (per_ch * chs) as u64 * 2;
    for c in 0..chs {
        work += ORACLE_MDCT.with(|m| n_windows as u64 * m.ops_per_transform());
        if twin(c) {
            for frame in out.chunks_exact_mut(chs) {
                frame[c] = frame[c - 1];
            }
            continue;
        }
        // The packet's frames and the next packet's head, zero where
        // none of its windows reaches.
        let mut span = vec![0.0f32; per_ch + DELAY];
        if n_windows > 0 {
            let windows = &mut span[BLOCK - phase..][..wn + BLOCK];
            ORACLE_MDCT.with(|m| m.synthesize_plane(&coeffs[c * wn..(c + 1) * wn], windows));
        }
        dsp::scalar::interleave_denormalize(&span[..per_ch], chs, c, &mut out);
    }
    if ch != channels {
        return Err(CodecError::ChannelMismatch {
            expected: channels,
            got: ch,
        });
    }
    Ok((out, work))
}

/// Decodes `bytes` as OVL, holds the decode to the oracle's and an
/// `Ok` to the format's bound.
fn assert_total(channels: u8, bytes: &[u8]) {
    let decoded = CODECS.with(|c| c.decode_wire(CodecId::Ovl.to_wire(), bytes, channels));
    let oracle = oracle_ovl_decode(bytes, channels);
    assert_eq!(
        format!("{decoded:?}"),
        format!("{oracle:?}"),
        "ovl x{channels}: {} bytes decode unlike the oracle",
        bytes.len()
    );
    if let Ok((samples, _)) = decoded {
        assert!(
            samples.len() <= max_samples(bytes.len(), channels),
            "ovl x{channels}: {} samples out of {} bytes",
            samples.len(),
            bytes.len()
        );
        assert_eq!(samples.len() % channels as usize, 0, "torn final frame");
    }
}

/// The samples of a valid packet: a tone under noise, so OVL keeps
/// some bands, culls others and the Rice coder sees both short and
/// long codes; as many whole frames as fit in `VALID_SAMPLES`.
fn valid_samples(channels: u8, twins: Twins) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ channels as u64);
    let wave = (0..).map(|i| {
        let tone = (i as f32 * 0.05).sin() * 9_000.0;
        tone as i16 + (rng.gen::<i16>() >> 6)
    });
    if twins == Twins::None {
        return wave.take(VALID_SAMPLES).collect();
    }
    let ch = channels as usize;
    let frames = VALID_SAMPLES / ch;
    let mut samples: Vec<i16> = wave
        .take(frames)
        .flat_map(|s| std::iter::repeat_n(s, ch))
        .collect();
    if twins == Twins::AllButOne {
        let at = frames / 2 * ch + ch - 1;
        samples[at] = samples[at].wrapping_add(16_000);
    }
    samples
}

/// A valid packet of [`valid_samples`]: the first of its stream, or
/// (`lapped`) the second, which laps the first.
fn valid_packet(channels: u8, twins: Twins, lapped: bool) -> Vec<u8> {
    let samples = valid_samples(channels, twins);
    CODECS.with(|c| {
        c.reset();
        if lapped {
            c.encode(CodecId::Ovl, &samples, channels, MAX_QUALITY);
        }
        c.encode(CodecId::Ovl, &samples, channels, MAX_QUALITY)
            .bytes
    })
}

/// Every layout, fresh and lapped.
fn valid_packets() -> impl Iterator<Item = (u8, Twins, Vec<u8>)> {
    LAYOUTS.into_iter().flat_map(|(channels, twins)| {
        [false, true].map(|lapped| (channels, twins, valid_packet(channels, twins, lapped)))
    })
}

#[test]
fn every_twin_mask_on_a_valid_packet_is_rejected_or_bounded() {
    for (channels, twins, mut packet) in valid_packets() {
        let lapped = packet[6] & 1 == 1;
        for mask in 0..=u8::MAX {
            packet[6] = mask;
            assert_total(channels, &packet);
            // A bit past the channel count; bit 0 is the lap bit.
            let bad = u32::from(mask) >> channels != 0;
            let got = CODECS.with(|c| c.decode_wire(CodecId::Ovl.to_wire(), &packet, channels));
            let refused = matches!(got, Err(CodecError::Ovl(OvlError::BadHeader("twin mask"))));
            assert_eq!(
                refused, bad,
                "x{channels} {twins:?}, lapped {lapped}, mask {mask:#b}: {got:?}"
            );
        }
    }
}

#[test]
fn every_truncation_of_a_valid_packet_is_rejected_or_bounded() {
    for (channels, twins, packet) in valid_packets() {
        // The untruncated packet is the one input that must decode.
        let whole = CODECS.with(|c| c.decode_wire(CodecId::Ovl.to_wire(), &packet, channels));
        let len = valid_samples(channels, twins).len();
        assert_eq!(whole.expect("valid packet decodes").0.len(), len);
        for len in 0..=packet.len() {
            assert_total(channels, &packet[..len]);
        }
    }
}

#[test]
fn a_lapped_packet_without_its_predecessor_plays_a_faded_head() {
    // The second packet of a stream claims a predecessor. Decoded alone,
    // or completed by a tail that is not that predecessor's (another
    // position, another channel count), it plays the same faded head;
    // completed by the first packet's tail, it plays what the stream
    // does. Past the head, all three agree.
    for (channels, twins) in LAYOUTS {
        let samples = valid_samples(channels, twins);
        let codecs = Codecs::new();
        let first = codecs
            .encode(CodecId::Ovl, &samples, channels, MAX_QUALITY)
            .bytes;
        let second = codecs
            .encode(CodecId::Ovl, &samples, channels, MAX_QUALITY)
            .bytes;
        let (mut span, mut tail, mut scratch) =
            (OvlSpan::default(), OvlTail::default(), OvlTail::default());
        let mut out = Vec::new();
        codecs.decode_span(&first, channels, &mut span).unwrap();
        span.complete(None, &mut out, &mut tail);
        codecs.decode_span(&second, channels, &mut span).unwrap();
        let (mut lapped, mut faded) = (Vec::new(), Vec::new());
        span.complete(Some(&tail), &mut lapped, &mut scratch);
        span.complete(None, &mut faded, &mut scratch);
        let (alone, _) = codecs
            .decode_wire(CodecId::Ovl.to_wire(), &second, channels)
            .unwrap();
        assert_eq!(alone, faded, "x{channels} {twins:?}");
        let mut stranger = Vec::new();
        codecs.decode_span(&second, channels, &mut span).unwrap();
        let other = codecs.encode(
            CodecId::Ovl,
            &samples[..samples.len() - channels as usize],
            channels,
            MAX_QUALITY,
        );
        let mut other_span = OvlSpan::default();
        codecs
            .decode_span(&other.bytes, channels, &mut other_span)
            .unwrap();
        let mut other_tail = OvlTail::default();
        other_span.complete(None, &mut stranger, &mut other_tail);
        assert!(!span.laps_onto(&other_tail));
        span.complete(Some(&other_tail), &mut stranger, &mut scratch);
        assert_eq!(stranger, faded, "x{channels} {twins:?}: a stranger's tail");
        let head = (DELAY - (samples.len() / channels as usize) % BLOCK) * channels as usize;
        assert_eq!(lapped[head..], faded[head..], "x{channels} {twins:?}");
        assert_ne!(lapped[..head], faded[..head], "x{channels} {twins:?}");
    }
}

#[test]
fn a_stream_plays_the_same_across_the_position_wrap() {
    // Three packets of a stream, their positions moved by the same
    // multiple of BLOCK (the grid's phase unchanged) so that the second
    // starts right before `u32::MAX` and the third past the wrap: each
    // still laps the one before, and the stream plays what it played.
    let codecs = Codecs::new();
    let samples = valid_samples(2, Twins::None);
    let packets: Vec<Vec<u8>> = (0..3)
        .map(|_| codecs.encode(CodecId::Ovl, &samples, 2, MAX_QUALITY).bytes)
        .collect();
    let play = |packets: &[Vec<u8>]| {
        let (mut span, mut tail, mut next, mut out) = (
            OvlSpan::default(),
            OvlTail::default(),
            OvlTail::default(),
            Vec::new(),
        );
        let mut played = Vec::new();
        for (n, p) in packets.iter().enumerate() {
            codecs.decode_span(p, 2, &mut span).expect("decodes");
            assert_eq!(n > 0, span.laps_onto(&tail), "packet {n}");
            span.complete(Some(&tail), &mut out, &mut next);
            std::mem::swap(&mut tail, &mut next);
            played.extend_from_slice(&out);
        }
        played
    };
    let frames = (samples.len() / 2) as u32;
    let block = BLOCK as u32;
    let second = (u32::MAX - frames / 2) / block * block + frames % block;
    let shift = second.wrapping_sub(frames);
    let mut moved = packets.clone();
    for p in &mut moved[1..] {
        let at = u32::from_le_bytes([p[7], p[8], p[9], p[10]]).wrapping_add(shift);
        p[7..11].copy_from_slice(&at.to_le_bytes());
    }
    assert_eq!(moved[1][7..11], second.to_le_bytes());
    assert!(
        second.checked_add(frames).is_none(),
        "the second packet ends past the wrap"
    );
    // The first packet starts its lap at 0, so the second no longer
    // follows it: only the wrap is compared.
    assert_eq!(play(&moved[1..]), play(&packets[1..]));
    for p in &moved {
        assert_total(2, p);
    }
}

proptest! {
    #[test]
    fn noise_is_rejected_or_bounded(bytes in vec(ANY_U8, 0..65)) {
        for (channels, _) in LAYOUTS {
            assert_total(channels, &bytes);
        }
    }

    #[test]
    fn bit_flips_are_rejected_or_bounded(flips in vec((0usize..1 << 16, 0u8..8), 1..9)) {
        for (channels, _, mut packet) in valid_packets() {
            // Damage accumulates: every prefix of the flip list is an input.
            for &(at, bit) in &flips {
                let at = at % packet.len();
                packet[at] ^= 1 << bit;
                assert_total(channels, &packet);
            }
        }
    }

    #[test]
    fn forged_header_on_a_real_body_is_rejected_or_bounded(
        header in vec(ANY_U8, 0..13),
        keep in 0usize..1 << 16,
    ) {
        for (channels, _, mut packet) in valid_packets() {
            packet[..header.len()].copy_from_slice(&header);
            packet.truncate(header.len() + keep % (packet.len() - header.len() + 1));
            assert_total(channels, &packet);
        }
    }

    /// The lap bit, the stream position and the frame count forged on a
    /// real body: any grid phase, any position up to the wrap, counts
    /// whose windows the body cannot hold.
    #[test]
    fn forged_lap_position_and_length_are_rejected_or_bounded(
        laps in proptest::bool::ANY,
        position in proptest::num::u32::ANY,
        frames in 0u32..1 << 25,
    ) {
        for (channels, _, mut packet) in valid_packets() {
            packet[2..6].copy_from_slice(&frames.to_le_bytes());
            packet[6] = packet[6] & !1 | u8::from(laps);
            packet[7..11].copy_from_slice(&position.to_le_bytes());
            assert_total(channels, &packet);
        }
    }
}
