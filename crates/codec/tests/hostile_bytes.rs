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
//! from public pieces. The two must agree on every input — the same
//! samples and work, or the same error. Some valid packets carry one
//! signal on every channel, as the producers send, so their header's
//! twin mask marks channels that code no bits; the oracle decodes every
//! other channel in full and copies the channel before into a twin.
//! Every value of the mask byte is tried on every OVL layout: bit 0
//! set, bits past the channel count and every channel masked are all
//! refused, and a mask that leaves fewer channels to code cannot make
//! the decoder hand back more audio than the coded bits bound.
//!
//! `PROPTEST_CASES=20000 cargo test -p es-codec --test hostile_bytes`
//! is the deep run; the default 64 cases per property keep it in the
//! tier-1 budget.

use es_codec::bitstream::{unzigzag, BitReader, OutOfBits};
use es_codec::mdct::Mdct;
use es_codec::ovl::{band_bits, band_widths, OvlError, BLOCK};
use es_codec::{dsp, CodecError, CodecId, Codecs, MAX_QUALITY};
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
/// unpack above for every coded channel, synthesis, the scalar
/// interleave, a copy of the channel before for every twin and the
/// same work units.
fn oracle_ovl_decode(bytes: &[u8], channels: u8) -> Result<(Vec<i16>, u64), CodecError> {
    if bytes.len() < 7 {
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
    let twin: Vec<bool> = (0..8).map(|c| bytes[6] >> c & 1 == 1).collect();
    if twin[0] || twin[chs..].contains(&true) {
        return Err(OvlError::BadHeader("twin mask").into());
    }
    let coded: Vec<usize> = (0..chs).filter(|&c| !twin[c]).collect();
    let n_windows = per_ch.div_ceil(BLOCK) + 1;
    if n_windows * coded.len() * band_widths(BLOCK).len() > (bytes.len() - 7) * 8 {
        return Err(OvlError::BadBitstream.into());
    }
    let mut br = BitReader::new(&bytes[7..]);
    let wn = n_windows * BLOCK;
    let mut coeffs = vec![0.0f32; chs * wn];
    for w in 0..n_windows {
        for &c in &coded {
            oracle_unpack_window(&mut br, quality, &mut coeffs[c * wn + w * BLOCK..][..BLOCK])?;
        }
    }
    let mut out = vec![0i16; per_ch * chs];
    let mut work = (per_ch * chs) as u64 * 2;
    let mut plane = vec![0.0f32; wn + BLOCK];
    for c in 0..chs {
        work += ORACLE_MDCT.with(|m| n_windows as u64 * m.ops_per_transform());
        if twin[c] {
            for frame in out.chunks_exact_mut(chs) {
                frame[c] = frame[c - 1];
            }
            continue;
        }
        ORACLE_MDCT.with(|m| m.synthesize_plane(&coeffs[c * wn..(c + 1) * wn], &mut plane));
        dsp::scalar::interleave_denormalize(&plane[BLOCK..][..per_ch], chs, c, &mut out);
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

fn valid_packet(channels: u8, twins: Twins) -> Vec<u8> {
    let samples = valid_samples(channels, twins);
    CODECS.with(|c| {
        c.encode(CodecId::Ovl, &samples, channels, MAX_QUALITY)
            .bytes
    })
}

#[test]
fn every_twin_mask_on_a_valid_packet_is_rejected_or_bounded() {
    for (channels, twins) in LAYOUTS {
        let mut packet = valid_packet(channels, twins);
        for mask in 0..=u8::MAX {
            packet[6] = mask;
            assert_total(channels, &packet);
            // Bit 0, a bit past the channel count, or every channel.
            let bad = mask & 1 == 1 || u32::from(mask) >> channels != 0;
            let got = CODECS.with(|c| c.decode_wire(CodecId::Ovl.to_wire(), &packet, channels));
            let refused = matches!(got, Err(CodecError::Ovl(OvlError::BadHeader("twin mask"))));
            assert_eq!(
                refused, bad,
                "x{channels} {twins:?}, mask {mask:#b}: {got:?}"
            );
        }
    }
}

#[test]
fn every_truncation_of_a_valid_packet_is_rejected_or_bounded() {
    for (channels, twins) in LAYOUTS {
        let packet = valid_packet(channels, twins);
        // The untruncated packet is the one input that must decode.
        let whole = CODECS.with(|c| c.decode_wire(CodecId::Ovl.to_wire(), &packet, channels));
        let len = valid_samples(channels, twins).len();
        assert_eq!(whole.expect("valid packet decodes").0.len(), len);
        for len in 0..=packet.len() {
            assert_total(channels, &packet[..len]);
        }
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
        for (channels, twins) in LAYOUTS {
            let mut packet = valid_packet(channels, twins);
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
        for (channels, twins) in LAYOUTS {
            let mut packet = valid_packet(channels, twins);
            packet[..header.len()].copy_from_slice(&header);
            packet.truncate(header.len() + keep % (packet.len() - header.len() + 1));
            assert_total(channels, &packet);
        }
    }
}
