//! Hostile packets into the broker's protocol.
//!
//! The control plane is unauthenticated (ROADMAP 5(a)), so whatever a
//! LAN host multicasts on the announce group reaches
//! [`SessionServer::on_packet`]. These packets are *well-formed* — they
//! are the decoder's output type — with fields no receiver would send:
//! empty and 255-byte speaker names, stream ids nobody offers, playout
//! delays at both ends of `u64`, sixteen NACK ranges of 65 535
//! packets each, session ids never granted, the producer's own packet
//! kinds echoed back, and a clock that runs backwards. The server has
//! no clock, socket or simulator, so the properties are about the
//! protocol alone: no panic (dev profile, so arithmetic overflow
//! panics too), a bounded answer to every packet, retransmissions only
//! for streams that exist, and a table that holds no more sessions
//! than SETUPs it accepted.
//!
//! What this tier does *not* hold is a bound on the table itself:
//! `a_fresh_name_setup_flood_grows_the_table_without_bound` records
//! what a flood costs today (DESIGN.md §9), the input to ROADMAP 5(b).
//!
//! `PROPTEST_CASES=5000 cargo test -p es-proto --test hostile_control`
//! is the deep run; the default 64 cases keep it in the tier-1 budget.

use std::collections::BTreeSet;

use es_audio::AudioConfig;
use es_proto::{
    BrokerStats, Capabilities, DeviceClass, RefuseReason, ServerAction, SessionPacket,
    SessionServer, StreamInfo, TeardownReason, MAX_NACK_RANGES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TIMEOUT_US: u64 = 2_500_000;

fn lineup() -> Vec<StreamInfo> {
    let stream = |stream_id: u16, name: &str, codecs: &[u8]| StreamInfo {
        stream_id,
        group: 10 + stream_id,
        name: name.into(),
        codec: codecs[0],
        config: AudioConfig::CD,
        flags: 0,
        caps: Capabilities {
            codecs: codecs.to_vec(),
            sample_rates: vec![44_100],
            device_class: DeviceClass::Standard,
        },
    };
    vec![stream(1, "radio", &[0, 3]), stream(2, "pa", &[0])]
}

fn pick<T: Clone>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen::<usize>() % from.len()].clone()
}

/// A handful of names, so retries and collisions happen: empty, the
/// longest the wire carries, and a few ordinary ones.
fn speaker(rng: &mut StdRng) -> String {
    let long = "x".repeat(255);
    pick(rng, &["", "es1", "es2", "es3", long.as_str()]).to_string()
}

/// Anything goes half the time, so that sessions do open; otherwise
/// lists that exclude the stream, or the longest the wire carries.
fn caps(rng: &mut StdRng) -> Capabilities {
    if rng.gen() {
        return Capabilities::any();
    }
    Capabilities {
        codecs: pick(rng, &[vec![], vec![0], vec![3], vec![0; 255]]),
        sample_rates: pick(rng, &[vec![], vec![8_000], vec![u32::MAX; 255]]),
        device_class: DeviceClass::Thin,
    }
}

/// What the server has granted so far.
#[derive(Default)]
struct Seen {
    /// `(speaker, stream)` pairs a SETUP was accepted for.
    accepted: BTreeSet<(String, u16)>,
    /// Session ids handed out, live or not.
    ids: Vec<u32>,
}

/// A session id that was granted, or one that never was.
fn session_id(rng: &mut StdRng, seen: &Seen) -> u32 {
    if seen.ids.is_empty() || rng.gen() {
        pick(rng, &[0, 1_000_000, u32::MAX])
    } else {
        pick(rng, &seen.ids)
    }
}

/// One well-formed packet of any kind, hostile fields included.
fn packet(rng: &mut StdRng, seen: &Seen) -> SessionPacket {
    let reason = pick(
        rng,
        &[
            TeardownReason::Requested,
            TeardownReason::Expired,
            TeardownReason::StreamEnded,
        ],
    );
    match rng.gen::<u8>() % 13 {
        0 => SessionPacket::Discover {
            seq: rng.gen(),
            speaker: speaker(rng),
            caps: caps(rng),
        },
        1..=4 => SessionPacket::Setup {
            speaker: speaker(rng),
            stream_id: pick(rng, &[1, 1, 2, 2, 0, 3, u16::MAX]),
            codec: pick(rng, &[0, 0, 3, 2, u8::MAX]),
            playout_delay_us: pick(rng, &[0, 150_000, u64::MAX]),
            caps: caps(rng),
        },
        5 => SessionPacket::Keepalive {
            session_id: session_id(rng, seen),
        },
        6 => SessionPacket::Teardown {
            session_id: session_id(rng, seen),
            reason,
        },
        7 | 8 => SessionPacket::Param {
            session_id: session_id(rng, seen),
            volume_milli: rng.gen(),
            metadata: speaker(rng),
            fec_group: rng.gen(),
            // The wire admits 16 ranges; a forger is not bound by our
            // encoder.
            nack: vec![(rng.gen(), u16::MAX); pick(rng, &[0, 1, MAX_NACK_RANGES, 40])],
        },
        // The producer's own kinds, echoed back.
        9 => SessionPacket::Offer {
            seq: rng.gen(),
            streams: lineup(),
        },
        10 => SessionPacket::SetupAck {
            session_id: session_id(rng, seen),
            speaker: speaker(rng),
            stream_id: 1,
            group: rng.gen(),
            codec: rng.gen(),
            playout_delay_us: rng.gen(),
        },
        11 => SessionPacket::Flush {
            session_id: session_id(rng, seen),
        },
        _ => SessionPacket::Refuse {
            speaker: speaker(rng),
            stream_id: rng.gen(),
            reason: RefuseReason::CodecMismatch,
        },
    }
}

/// Holds one step's actions to the bounds; records accepted SETUPs.
fn judge(out: &[ServerAction], most_wire: usize, streams: usize, seen: &mut Seen) {
    let mut wire = 0;
    for action in out {
        match action {
            ServerAction::Reply(SessionPacket::SetupAck {
                session_id,
                speaker,
                stream_id,
                ..
            }) => {
                wire += 1;
                seen.accepted.insert((speaker.clone(), *stream_id));
                seen.ids.push(*session_id);
            }
            ServerAction::Reply(_) | ServerAction::Announce(_) => wire += 1,
            ServerAction::Retransmit { stream, ranges } => {
                wire += 1;
                assert!(*stream < streams, "stream {stream} is not in the line-up");
                assert!((1..=MAX_NACK_RANGES).contains(&ranges.len()));
            }
            _ => {}
        }
    }
    assert!(wire <= most_wire, "{wire} packets out: {out:?}");
    // At most one hook beside each packet.
    assert!(out.len() <= 2 * most_wire.max(1), "{out:?}");
}

fn abuse(rng: &mut StdRng) -> BrokerStats {
    let streams = lineup().len();
    let mut server = SessionServer::new(lineup(), TIMEOUT_US);
    let mut seen = Seen::default();
    let mut out = Vec::new();
    let mut now_us = 0u64;
    for _ in 0..400 {
        // Mostly forwards by up to a second; sometimes to either end
        // of the clock and back.
        now_us = match rng.gen::<u8>() % 64 {
            0 => 0,
            1 => u64::MAX,
            2..=4 => now_us / 2,
            _ => now_us.wrapping_add(rng.gen::<u64>() % 1_000_000),
        };
        let live = server.sessions_active();
        match rng.gen::<u8>() % 32 {
            0..=3 => {
                server.sweep(now_us, &mut out);
                judge(&out, live, streams, &mut seen);
            }
            4 => {
                server.flush_all(&mut out);
                server.update_fec(pick(rng, &[None, Some(4)]), &mut out);
                judge(&out, 2 * live, streams, &mut seen);
            }
            5 => {
                server.teardown_speaker(&speaker(rng), &mut out);
                server.update_params(&speaker(rng), rng.gen(), "", &mut out);
                judge(&out, 2, streams, &mut seen);
            }
            // A packet is answered with one packet at most, however
            // many sessions are live.
            _ => {
                server.on_packet(now_us, &packet(rng, &seen), &mut out);
                judge(&out, 1, streams, &mut seen);
            }
        }
        out.clear();
        assert!(
            server.sessions_active() <= seen.accepted.len(),
            "{} live sessions from {} accepted (speaker, stream) pairs",
            server.sessions_active(),
            seen.accepted.len()
        );
    }
    server.stats()
}

/// The bait is taken: over a few seeds sessions are granted, refused,
/// kept alive, expired, torn down and NACKed for.
#[test]
fn hostile_traffic_reaches_every_counter() {
    let mut sum = [0u64; 9];
    for seed in 0..16 {
        let s = abuse(&mut StdRng::seed_from_u64(seed));
        let counters = [
            s.discovers,
            s.offers,
            s.setups,
            s.acks,
            s.refusals,
            s.keepalives,
            s.flushes,
            s.teardowns,
            s.nacks,
        ];
        for (total, c) in sum.iter_mut().zip(counters) {
            *total += c;
        }
    }
    assert!(sum.iter().all(|&total| total >= 16), "{sum:?}");
}

proptest! {
    #[test]
    fn the_broker_survives_hostile_control_traffic(seed in 0u64..u64::MAX) {
        abuse(&mut StdRng::seed_from_u64(seed));
    }
}

/// The measured input to ROADMAP 5(b): every fresh name is a new
/// session, nothing caps the table, and each SETUP scans the stream's
/// table for the name — so a flood of N costs N entries and N²/2 name
/// comparisons until the sweep, one timeout later, takes them all out.
#[test]
fn a_fresh_name_setup_flood_grows_the_table_without_bound() {
    const FLOOD: usize = 4_096;
    let mut server = SessionServer::new(lineup(), TIMEOUT_US);
    let mut out = Vec::new();
    for i in 0..FLOOD {
        let setup = SessionPacket::Setup {
            speaker: format!("forged-{i}"),
            stream_id: 1,
            codec: 0,
            playout_delay_us: 0,
            caps: Capabilities::any(),
        };
        server.on_packet(i as u64, &setup, &mut out);
        out.clear();
    }
    assert_eq!(server.sessions_active(), FLOOD);
    assert_eq!(server.table(0).opened, FLOOD as u64);
    server.sweep(FLOOD as u64 + TIMEOUT_US + 1, &mut out);
    assert_eq!(out.len(), 2 * FLOOD, "an Expired and a TEARDOWN each");
    assert_eq!(server.sessions_active(), 0);
}
