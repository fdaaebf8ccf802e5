//! Hostile packets into the speaker's receive protocol.
//!
//! A networked speaker plays whatever its multicast group carries
//! (SPEAKE(a)R, PAPERS.md: it is an attack surface), and the CRC keeps
//! out line noise, not an attacker: these packets are *well-formed* —
//! correct magic, correct CRC — with fields no producer would send.
//! Sequence numbers and parity bases sit around `u32::MAX` and off the
//! group grid, timestamps at the edges of `u64` and `i64`, parity
//! counts change mid-stream, `xor_len` overshoots its payload,
//! payloads are empty; noise, truncations and bad auth trailers are
//! mixed in. [`SpeakerRx`] has no clock, socket or simulator, so the
//! properties are about the protocol alone: no panic (dev profile, so
//! arithmetic overflow panics too), a bounded number of events per
//! message and per wakeup, bounded tables however long the abuse
//! lasts, and — sequence jumps being the cheapest bait there is — a
//! bounded appetite for retransmissions: a hole is asked for twice at
//! most, sixteen ranges to a NACK.
//!
//! `PROPTEST_CASES=5000 cargo test -p es-speaker --test hostile_rx` is
//! the deep run; the default 64 cases keep it in the tier-1 budget.

use bytes::Bytes;
use es_audio::AudioConfig;
use es_proto::{
    decode, encode_announce, encode_control, encode_data, encode_parity, encode_session,
    AnnouncePacket, ControlPacket, DataPacket, ParityPacket, SessionPacket, StreamSigner,
    MAX_NACK_RANGES, TRAILER_LEN,
};
use es_sim::{SimDuration, SimTime};
use es_speaker::{RxEvent, SpeakerRx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timestamps at every edge of the wire field and of the signed
/// offset arithmetic behind it, plus two a real stream would carry.
const TIMES: [u64; 8] = [
    0,
    1,
    250_000,
    3_600_000_000,
    (1 << 63) - 1,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];

/// Parity group sizes the parser admits; changing between them
/// mid-stream rebuilds the recoverer, so the smallest comes up often
/// enough for groups to complete in between.
const GROUPS: [u8; 8] = [2, 2, 2, 2, 2, 3, 4, 32];

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen::<usize>() % from.len()]
}

/// A sequence number within 48 of the `u32` wrap, either side, and not
/// on any group's grid — or, one time in four, anywhere at all.
fn seq(rng: &mut StdRng) -> u32 {
    if rng.gen::<u8>() % 4 == 0 {
        rng.gen()
    } else {
        (u32::MAX - 48).wrapping_add(rng.gen::<u32>() % 96)
    }
}

fn bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.gen::<usize>() % (max + 1);
    (0..len).map(|_| rng.gen()).collect()
}

/// One well-formed packet with hostile fields, or damage.
fn message(rng: &mut StdRng) -> Bytes {
    match rng.gen::<u8>() % 10 {
        0 | 1 => encode_control(&ControlPacket {
            stream_id: 1,
            seq: seq(rng),
            producer_time_us: pick(rng, &TIMES),
            config: pick(rng, &[AudioConfig::CD, AudioConfig::PHONE]),
            codec: rng.gen(),
            quality: rng.gen(),
            control_interval_ms: rng.gen(),
            flags: rng.gen(),
        }),
        2..=4 => encode_data(&DataPacket {
            stream_id: 1,
            seq: seq(rng),
            play_at_us: pick(rng, &TIMES),
            codec: rng.gen(),
            // Empty one time in three.
            payload: Bytes::from(bytes(rng, 2).repeat(12)),
        }),
        5 | 6 => {
            let payload = bytes(rng, 24);
            let count = pick(rng, &GROUPS);
            // Half on the group grid, where data can complete a group
            // and the XOR of hostile fields is "recovered" as a packet;
            // half off it.
            let base_seq = seq(rng);
            let on_grid = base_seq - base_seq % count as u32;
            encode_parity(&ParityPacket {
                stream_id: 1,
                base_seq: if rng.gen() { on_grid } else { base_seq },
                count,
                xor_play_at_us: pick(rng, &TIMES),
                // Often larger than the payload it claims to describe.
                xor_len: rng.gen::<u32>() % 64,
                xor_codec: rng.gen(),
                payload: Bytes::from(payload),
            })
        }
        7 => encode_announce(&AnnouncePacket {
            seq: seq(rng),
            producer_time_us: pick(rng, &TIMES),
            streams: Vec::new(),
        }),
        8 => encode_session(&SessionPacket::Flush {
            session_id: rng.gen(),
        }),
        // Noise, or a real packet cut short.
        _ => {
            let whole = control(0);
            if rng.gen() {
                Bytes::from(bytes(rng, 40))
            } else {
                Bytes::copy_from_slice(&whole[..rng.gen::<usize>() % whole.len()])
            }
        }
    }
}

/// Steps `rx` the way a driver does and holds every step to the
/// bounds; returns how many blocks were cleared for playback.
fn feed(rx: &mut SpeakerRx, now: SimTime, datagram: &Bytes, events: &mut Vec<RxEvent>) -> usize {
    let mut blocks = 0;
    for msg in rx.admit(datagram) {
        match decode(&msg) {
            Ok(pkt) => rx.on_packet(now, pkt, events),
            Err(_) => rx.stats.bad_packets += 1,
        }
        // A data packet and the one it completes by FEC; a group
        // change and the packet the new parity recovers.
        assert!(
            events.len() <= 2,
            "{} events from one message",
            events.len()
        );
        blocks += events
            .drain(..)
            .filter(|e| matches!(e, RxEvent::Block(_)))
            .count();
        let [holes, settled, dedupe] = rx.table_sizes();
        assert!(
            holes <= MAX_HOLES && settled <= MAX_HOLES,
            "{holes} open / {settled} settled holes"
        );
        assert!(dedupe <= 512, "{dedupe} dedupe slots");
    }
    blocks
}

/// The hole table's bound (`rx::MAX_HOLES`; the producer's retransmit
/// cache is as long).
const MAX_HOLES: usize = 64;

/// Polls `rx` the way a driver does when `now` is the instant it
/// asked for, again while it asks for `now` again, and holds every
/// poll to the bounds; returns the NACKs raised.
fn wake(rx: &mut SpeakerRx, now: SimTime, events: &mut Vec<RxEvent>) -> Vec<Vec<(u32, u16)>> {
    let mut nacks = Vec::new();
    let mut polls = 0;
    while rx.next_wakeup().is_some_and(|at| at <= now) {
        polls += 1;
        // Each poll settles or asks for at least one range-full of
        // holes, so the table is worked off in a handful.
        assert!(polls <= 1 + MAX_HOLES / MAX_NACK_RANGES, "poll {polls}");
        rx.poll(now, events);
        // A replica per hole at the very most, and one NACK.
        assert!(events.len() <= MAX_HOLES + 1, "{} events", events.len());
        for event in events.drain(..) {
            match event {
                RxEvent::Nack(ranges) => {
                    assert!((1..=MAX_NACK_RANGES).contains(&ranges.len()));
                    assert!(ranges.iter().all(|&(_, count)| count >= 1));
                    let asked: usize = ranges.iter().map(|&(_, n)| n as usize).sum();
                    assert!(asked <= MAX_HOLES, "asked for {asked}");
                    nacks.push(ranges.into_vec());
                }
                RxEvent::Conceal { nth, .. } => assert!((1..=3).contains(&nth)),
                _ => panic!("poll emits NACKs and replicas only"),
            }
        }
        let [holes, settled, _] = rx.table_sizes();
        assert!(holes <= MAX_HOLES && settled <= MAX_HOLES);
    }
    nacks
}

/// A few hundred hostile messages into a speaker that conceals and
/// NACKs, with the rest of its surface — the wakeups it asks for,
/// retunes, session flushes — exercised in between.
fn abuse(rx: &mut SpeakerRx, rng: &mut StdRng, mut wrap: impl FnMut(&mut StdRng, Bytes) -> Bytes) {
    rx.conceal_losses();
    rx.request_repairs();
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..300 {
        let msg = message(rng);
        let datagram = wrap(rng, msg);
        feed(rx, now, &datagram, &mut events);
        now = now.saturating_add(SimDuration::from_micros(rng.gen::<u64>() % 60_000));
        match rng.gen::<u8>() % 32 {
            0..=7 => drop(wake(rx, now, &mut events)),
            8 => rx.retune(),
            9 => rx.resync(),
            _ => {}
        }
    }
    assert_eq!(rx.stats.datagrams, 300);
}

fn control(producer_time_us: u64) -> Bytes {
    encode_control(&ControlPacket {
        stream_id: 1,
        seq: 0,
        producer_time_us,
        config: AudioConfig::CD,
        codec: 0,
        quality: 0,
        control_interval_ms: 500,
        flags: 0,
    })
}

fn data(seq: u32, play_at_us: u64) -> Bytes {
    encode_data(&DataPacket {
        stream_id: 1,
        seq,
        play_at_us,
        codec: 0,
        payload: Bytes::from(vec![0u8; 8]),
    })
}

/// Satellite 1, first half: `local - producer` has no `i64` when the
/// producer claims 2^63 µs. Before the fix this was `attempt to
/// subtract with overflow` in `ClockSync::on_control`.
#[test]
fn forged_control_timestamp_is_counted_and_ignored() {
    let mut rx = SpeakerRx::new(None);
    let mut events = Vec::new();
    let now = SimTime::from_secs(1);
    feed(&mut rx, now, &control(1 << 63), &mut events);
    assert_eq!((rx.stats.bad_packets, rx.stats.control_packets), (1, 0));
    // Still gated: the forged sample taught the clock nothing.
    assert_eq!(feed(&mut rx, now, &data(0, 1_000_000), &mut events), 0);
    assert_eq!(rx.stats.dropped_waiting_control, 1);
}

/// Satellite 1, second half: a synchronized speaker (offset > 0) asked
/// to play at `i64::MAX` µs. Before the fix this was `attempt to add
/// with overflow` in `ClockSync::to_local`.
#[test]
fn forged_play_deadline_is_counted_and_ignored() {
    let mut rx = SpeakerRx::new(None);
    let mut events = Vec::new();
    let now = SimTime::from_secs(10);
    feed(&mut rx, now, &control(3_000_000), &mut events);
    for (seq, forged) in [i64::MAX as u64, 1 << 63, u64::MAX, u64::MAX / 1_000]
        .into_iter()
        .enumerate()
    {
        assert_eq!(
            feed(&mut rx, now, &data(seq as u32, forged), &mut events),
            0
        );
        assert_eq!(
            rx.stats.bad_packets,
            seq as u64 + 1,
            "play_at_us = {forged}"
        );
    }
    // The stream itself is unharmed.
    assert_eq!(feed(&mut rx, now, &data(9, 4_000_000), &mut events), 1);
}

/// A synchronized speaker that conceals and NACKs, having played
/// sequence number `first`.
fn baited(first: u32) -> (SpeakerRx, Vec<RxEvent>) {
    let mut rx = SpeakerRx::new(None);
    rx.conceal_losses();
    rx.request_repairs();
    let mut events = Vec::new();
    feed(&mut rx, SimTime::ZERO, &control(0), &mut events);
    assert_eq!(
        feed(&mut rx, SimTime::ZERO, &data(first, 200_000), &mut events),
        1
    );
    (rx, events)
}

/// NACK-bait, first kind: forged sequence numbers alternating between
/// two far-apart neighbourhoods, every jump a "loss burst" of a
/// thousand packets.
#[test]
fn alternating_far_apart_seqs_cannot_grow_the_hole_table_or_a_nack() {
    let (mut rx, mut events) = baited(u32::MAX - 2_000);
    let mut nacks = 0;
    for round in 0..200u32 {
        let now = SimTime::from_millis(round as u64 * 25);
        let near = (u32::MAX - 2_000).wrapping_add(round * 3 + 1);
        let seq = [near.wrapping_add(1_000), near][round as usize % 2];
        feed(
            &mut rx,
            now,
            &data(seq, 200_000 + now.as_micros()),
            &mut events,
        );
        nacks += wake(&mut rx, now, &mut events).len();
    }
    // Every forward jump opens the newest 64 of its thousand holes,
    // in one range: one NACK and one re-ask per jump, no more.
    assert!(nacks <= 2 * 100, "{nacks} NACKs for 100 forged jumps");
    assert_eq!(
        rx.table_sizes()[1],
        MAX_HOLES,
        "what came due is remembered, to the bound"
    );
}

/// Second kind: every other packet "lost", so no two holes share a
/// range and a NACK fills up.
#[test]
fn a_flood_of_one_packet_gaps_is_asked_for_sixteen_ranges_at_a_time() {
    let (mut rx, mut events) = baited(u32::MAX - 100);
    // 150 gaps inside one hold-off: the table keeps the newest 64.
    for k in 1..=150u32 {
        let seq = (u32::MAX - 100).wrapping_add(2 * k);
        let now = SimTime::from_micros(k as u64 * 10);
        feed(&mut rx, now, &data(seq, 10_000_000 + k as u64), &mut events);
    }
    assert_eq!(rx.table_sizes()[0], MAX_HOLES);
    assert!(wake(&mut rx, SimTime::from_millis(19), &mut events).is_empty());
    let nacks = wake(&mut rx, SimTime::from_millis(30), &mut events);
    assert_eq!(nacks.len(), MAX_HOLES / MAX_NACK_RANGES);
    // Oldest first, each range one packet, across the sequence wrap.
    let asked: Vec<u32> = nacks.concat().iter().map(|&(first, _)| first).collect();
    let newest = (u32::MAX - 100).wrapping_add(299);
    let want: Vec<u32> = (0..64).rev().map(|k| newest.wrapping_sub(2 * k)).collect();
    assert_eq!(asked, want);
    // Once more after the re-ask interval, then never again.
    assert_eq!(
        wake(&mut rx, SimTime::from_millis(75), &mut events).len(),
        4
    );
    assert!(wake(&mut rx, SimTime::from_secs(5), &mut events).is_empty());
    // (The oldest hole left, between the 86th and 87th packets.)
    assert_eq!(rx.next_wakeup(), Some(SimTime::from_nanos(10_000_086_500)));
}

/// Third kind: gaps whose deadlines are an hour away never come due,
/// so nothing ever clears them out — except the bound.
#[test]
fn gaps_with_far_future_deadlines_are_held_to_the_bound_and_asked_twice() {
    let (mut rx, mut events) = baited(7);
    let hour = 3_600_000_000u64;
    let mut nacks = 0;
    for k in 1..=500u32 {
        let now = SimTime::from_millis(k as u64 * 50);
        feed(&mut rx, now, &data(7 + 3 * k, hour + k as u64), &mut events);
        nacks += wake(&mut rx, now, &mut events).len();
    }
    assert_eq!(rx.table_sizes()[..2], [MAX_HOLES, 0]);
    // Two holes a packet, one range: asked for at the next packet's
    // wakeup and once more at the one after, where it shares the NACK
    // with its successor's first request.
    assert_eq!(nacks, 499);
    // The last two pairs are asked for (again) …
    assert_eq!(wake(&mut rx, SimTime::from_secs(26), &mut events).len(), 1);
    assert_eq!(wake(&mut rx, SimTime::from_secs(27), &mut events).len(), 1);
    // … and, left alone, the speaker sleeps until the first is due.
    assert!(wake(&mut rx, SimTime::from_secs(60), &mut events).is_empty());
    assert!(rx
        .next_wakeup()
        .is_some_and(|at| at > SimTime::from_secs(3_000)));
}

/// Parity counts the recoverer cannot be built for never reach it.
#[test]
fn degenerate_parity_counts_are_refused_at_parse() {
    for count in [0u8, 1, 33, 255] {
        let forged = encode_parity(&ParityPacket {
            stream_id: 1,
            base_seq: u32::MAX - 1,
            count,
            xor_play_at_us: 0,
            xor_len: 0,
            xor_codec: 0,
            payload: Bytes::new(),
        });
        assert!(decode(&forged).is_err(), "count {count}");
    }
}

proptest! {
    #[test]
    fn open_channel_survives_hostile_traffic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        abuse(&mut SpeakerRx::new(None), &mut rng, |_, msg| msg);
    }

    #[test]
    fn authenticated_channel_survives_hostile_traffic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let signer = StreamSigner::new(b"hostile", 40, 2);
        let mut rx = SpeakerRx::new(Some(signer.anchor()));
        let mut sent = 0u32;
        abuse(&mut rx, &mut rng, |rng, msg| {
            sent += 1;
            let mut datagram = msg.to_vec();
            match rng.gen::<u8>() % 8 {
                // No trailer at all, or 72 bytes of noise for one.
                0 => datagram.truncate(rng.gen::<usize>() % (TRAILER_LEN + 1)),
                1 => datagram.extend((0..TRAILER_LEN).map(|_| rng.gen::<u8>())),
                // Properly signed: hostile fields from the key holder
                // (a compromised producer) reach the protocol.
                _ => {
                    let trailer = signer.sign(1 + sent / 8, &datagram);
                    datagram.extend_from_slice(&trailer.encode());
                }
            }
            Bytes::from(datagram)
        });
        prop_assert!(rx.stats.control_packets > 0, "signed traffic was released");
    }
}
