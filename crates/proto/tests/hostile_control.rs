//! Hostile packets into the broker's protocol.
//!
//! The control plane is unauthenticated (ROADMAP 4(a)), so whatever a
//! LAN host multicasts on the announce group reaches
//! [`SessionServer::on_packet`]. These packets are *well-formed* — they
//! are the decoder's output type — with fields no receiver would send:
//! empty and 255-byte speaker names, stream ids nobody offers, playout
//! delays at both ends of `u64`, session ids never granted, the
//! producer's own packet kinds echoed back, and a clock that runs
//! backwards. The server has no clock, socket or simulator, so the
//! properties are about the protocol alone: no panic (dev profile, so
//! arithmetic overflow panics too), a bounded answer to every packet,
//! and a table that holds no more sessions than SETUPs it accepted.
//! `a_fresh_name_setup_flood_stops_at_the_cap` holds the table itself
//! to its per-stream cap, in entries and in time (DESIGN.md §9), and
//! `retired_wire_fields_are_refused` holds the decoder to the fields
//! and the packet kind the plane no longer carries.
//!
//! The default 64 cases keep it in the tier-1 budget; `scripts/check.sh`
//! runs `PROPTEST_CASES=2000 cargo test --release -p es-proto --test
//! hostile_control`, and `PROPTEST_CASES=5000` is a deeper run.

use std::collections::BTreeSet;

use es_audio::AudioConfig;
use es_proto::crc::crc32;
use es_proto::{
    decode, encode_session, BrokerStats, Capabilities, RefuseReason, ServerAction, SessionPacket,
    SessionServer, StreamInfo, TeardownReason, WireError,
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
    let reason = pick(rng, &[TeardownReason::Requested, TeardownReason::Expired]);
    match rng.gen::<u8>() % 11 {
        0 => SessionPacket::Discover {
            seq: rng.gen(),
            speaker: speaker(rng),
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
        // The producer's own kinds, echoed back.
        7 => SessionPacket::Offer {
            seq: rng.gen(),
            streams: lineup(),
        },
        8 => SessionPacket::SetupAck {
            session_id: session_id(rng, seen),
            speaker: speaker(rng),
            stream_id: 1,
            group: rng.gen(),
            codec: rng.gen(),
            playout_delay_us: rng.gen(),
        },
        9 => SessionPacket::Flush {
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
fn judge(out: &[ServerAction], most_wire: usize, seen: &mut Seen) {
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
            _ => {}
        }
    }
    assert!(wire <= most_wire, "{wire} packets out: {out:?}");
    // At most one hook beside each packet.
    assert!(out.len() <= 2 * most_wire.max(1), "{out:?}");
}

fn abuse(rng: &mut StdRng) -> BrokerStats {
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
                judge(&out, live, &mut seen);
            }
            4 => {
                server.flush_all(&mut out);
                judge(&out, live, &mut seen);
            }
            5 => {
                server.teardown_speaker(&speaker(rng), &mut out);
                judge(&out, 1, &mut seen);
            }
            // A packet is answered with one packet at most, however
            // many sessions are live.
            _ => {
                server.on_packet(now_us, &packet(rng, &seen), &mut out);
                judge(&out, 1, &mut seen);
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
/// kept alive, expired and torn down.
#[test]
fn hostile_traffic_reaches_every_counter() {
    let mut sum = [0u64; 8];
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

/// ROADMAP 4(b): every fresh name used to be a new session, and each
/// SETUP scans its stream's table for the name, so 65 536 forged
/// SETUPs held 65 536 entries and took 18 s (DESIGN.md §9). Now a
/// stream's table fills to its cap, every fresh name past it is
/// refused and counted, a name that holds a session is still answered,
/// and the flood costs a bounded scan per packet.
#[test]
fn a_fresh_name_setup_flood_stops_at_the_cap() {
    const FLOOD: usize = 65_536;
    let mut server = SessionServer::new(lineup(), TIMEOUT_US);
    let mut out = Vec::new();
    let setup = |speaker: String| SessionPacket::Setup {
        speaker,
        stream_id: 1,
        codec: 0,
        playout_delay_us: 0,
        caps: Capabilities::any(),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the bound under test is the flood's cost in time (DESIGN.md §8)"
    )]
    let start = std::time::Instant::now();
    let mut full = 0;
    for i in 0..FLOOD {
        server.on_packet(i as u64, &setup(format!("forged-{i}")), &mut out);
        full += out
            .iter()
            .filter(|a| matches!(a, ServerAction::Refused { reason, .. } if *reason == RefuseReason::TableFull))
            .count();
        out.clear();
    }
    let took = start.elapsed();
    let cap = server.sessions_active();
    // Every negotiated fleet the suite and the ledger build fits.
    assert!((16..FLOOD / 64).contains(&cap), "cap {cap}");
    assert_eq!(server.table(0).opened, cap as u64);
    assert_eq!(
        (full, server.stats().refusals),
        (FLOOD - cap, (FLOOD - cap) as u64)
    );
    assert!(took.as_secs() < 5, "{FLOOD} SETUPs took {took:?}");
    // A receiver whose ACK was lost is re-granted the session it holds.
    server.on_packet(FLOOD as u64, &setup("forged-0".into()), &mut out);
    assert!(
        matches!(
            out.as_slice(),
            [ServerAction::Reply(SessionPacket::SetupAck {
                session_id: 1,
                ..
            })]
        ),
        "{out:?}"
    );
    out.clear();
    server.sweep(FLOOD as u64 + TIMEOUT_US + 1, &mut out);
    assert_eq!(out.len(), 2 * cap, "an Expired and a TEARDOWN each");
    assert_eq!(server.sessions_active(), 0);
}

/// Bytes the decoder once accepted: the catalog's retired packet
/// (type 3), a caps block still ending in its old device-class byte,
/// and the retired PARAM (session kind 9), bare or still carrying
/// metadata. Each is sealed with a good CRC, so the parser sees it,
/// and each is refused with an error.
#[test]
fn retired_wire_fields_are_refused() {
    let seal = |mut body: Vec<u8>| {
        body.extend_from_slice(&crc32(&body).to_le_bytes());
        decode(&body)
    };
    // `pkt` re-sealed with `tail` appended to its body.
    let with_tail = |pkt: &SessionPacket, tail: &[u8]| {
        let bytes = encode_session(pkt);
        seal([&bytes[..bytes.len() - 4], tail].concat())
    };
    let trailing = Err(WireError::BadField("trailing bytes"));

    // Header (magic, version, type 3, stream 0, seq 0), producer time
    // and an empty line-up: the old catalog announce.
    let mut announce = vec![0xAB, 0xE5, 1, 3, 0, 0, 0, 0, 0, 0];
    announce.extend_from_slice(&[0; 8 + 2]);
    assert_eq!(seal(announce), Err(WireError::BadType(3)));

    // The old device byte after a caps block: SETUP ends in one, and an
    // OFFER in its last entry's.
    let setup = SessionPacket::Setup {
        speaker: "es1".into(),
        stream_id: 1,
        codec: 0,
        playout_delay_us: 200_000,
        caps: Capabilities {
            codecs: vec![0, 3],
            sample_rates: vec![44_100],
        },
    };
    let offer = SessionPacket::Offer {
        seq: 0,
        streams: lineup(),
    };
    for device in 0..=3 {
        assert_eq!(with_tail(&setup, &[device]), trailing);
        assert_eq!(with_tail(&offer, &[device]), trailing);
    }
    // The old DISCOVER carried a whole caps block after the name.
    let discover = SessionPacket::Discover {
        seq: 0,
        speaker: "es1".into(),
    };
    assert_eq!(with_tail(&discover, &[0, 0, 1]), trailing);

    // A PARAM: a FLUSH's header with kind 9 and a `u16` volume, bare
    // and with the metadata (a length byte and text) it once carried.
    let flush = encode_session(&SessionPacket::Flush { session_id: 7 });
    let mut param = flush[..flush.len() - 4].to_vec();
    let kind = param.len() - 1;
    param[kind] = 9;
    param.extend_from_slice(&500u16.to_le_bytes());
    let retired = Err(WireError::BadField("session kind"));
    assert_eq!(seal(param.clone()), retired);
    assert_eq!(seal([&param[..], b"\x04news"].concat()), retired);
}
