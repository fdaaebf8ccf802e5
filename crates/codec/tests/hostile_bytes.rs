//! Hostile bytes into the self-describing payload decoders.
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
//! `PROPTEST_CASES=20000 cargo test -p es-codec --test hostile_bytes`
//! is the deep run; the default 64 cases per property keep it in the
//! tier-1 budget.

use es_codec::ovl::{band_widths, BLOCK};
use es_codec::{CodecId, Codecs, MAX_QUALITY};
use proptest::collection::vec;
use proptest::num::u8::ANY as ANY_U8;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The decoders that parse a header of their own, at the channel
/// counts the system streams.
const LAYOUTS: [(CodecId, u8); 4] = [
    (CodecId::Ovl, 1),
    (CodecId::Ovl, 2),
    (CodecId::Adpcm, 1),
    (CodecId::Adpcm, 2),
];

/// Samples in the valid packet each damaged input starts from.
const VALID_SAMPLES: usize = 4_096;

thread_local! {
    static CODECS: Codecs = Codecs::new();
}

/// The most samples a `len`-byte payload can honestly decode to.
fn max_samples(codec: CodecId, len: usize) -> usize {
    match codec {
        // One 4-bit code per sample behind the header.
        CodecId::Adpcm => 2 * len,
        // Every window × channel spends at least one keep-flag bit per
        // band and yields at most BLOCK samples, so `len` bytes carry
        // at most `8 · len / bands` of them.
        CodecId::Ovl => BLOCK * 8 * len / band_widths(BLOCK).len(),
        CodecId::Pcm | CodecId::ULaw => unreachable!("headerless codecs are not in LAYOUTS"),
    }
}

/// Decodes `bytes` and holds an `Ok` to the format's bound.
fn assert_total(codec: CodecId, channels: u8, bytes: &[u8]) {
    let decoded = CODECS.with(|c| c.decode_wire(codec.to_wire(), bytes, channels));
    if let Ok((samples, _)) = decoded {
        assert!(
            samples.len() <= max_samples(codec, bytes.len()),
            "{codec} x{channels}: {} samples out of {} bytes",
            samples.len(),
            bytes.len()
        );
        assert_eq!(samples.len() % channels as usize, 0, "torn final frame");
    }
}

/// A valid packet: a tone under noise, so OVL keeps some bands, culls
/// others and the Rice coder sees both short and long codes.
fn valid_packet(codec: CodecId, channels: u8) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ channels as u64);
    let samples: Vec<i16> = (0..VALID_SAMPLES)
        .map(|i| {
            let tone = (i as f32 * 0.05).sin() * 9_000.0;
            tone as i16 + (rng.gen::<i16>() >> 6)
        })
        .collect();
    CODECS.with(|c| c.encode(codec, &samples, channels, MAX_QUALITY).bytes)
}

#[test]
fn every_truncation_of_a_valid_packet_is_rejected_or_bounded() {
    for (codec, channels) in LAYOUTS {
        let packet = valid_packet(codec, channels);
        // The untruncated packet is the one input that must decode.
        let whole = CODECS.with(|c| c.decode_wire(codec.to_wire(), &packet, channels));
        assert_eq!(whole.expect("valid packet decodes").0.len(), VALID_SAMPLES);
        for len in 0..=packet.len() {
            assert_total(codec, channels, &packet[..len]);
        }
    }
}

proptest! {
    #[test]
    fn noise_is_rejected_or_bounded(bytes in vec(ANY_U8, 0..65)) {
        for (codec, channels) in LAYOUTS {
            assert_total(codec, channels, &bytes);
        }
    }

    #[test]
    fn bit_flips_are_rejected_or_bounded(flips in vec((0usize..1 << 16, 0u8..8), 1..9)) {
        for (codec, channels) in LAYOUTS {
            let mut packet = valid_packet(codec, channels);
            // Damage accumulates: every prefix of the flip list is an input.
            for &(at, bit) in &flips {
                let at = at % packet.len();
                packet[at] ^= 1 << bit;
                assert_total(codec, channels, &packet);
            }
        }
    }

    #[test]
    fn forged_header_on_a_real_body_is_rejected_or_bounded(
        header in vec(ANY_U8, 0..13),
        keep in 0usize..1 << 16,
    ) {
        for (codec, channels) in LAYOUTS {
            let mut packet = valid_packet(codec, channels);
            packet[..header.len()].copy_from_slice(&header);
            packet.truncate(header.len() + keep % (packet.len() - header.len() + 1));
            assert_total(codec, channels, &packet);
        }
    }
}
