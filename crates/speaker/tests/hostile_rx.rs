//! Hostile packets into the speaker's receive protocol.
//!
//! A networked speaker plays whatever its multicast group carries
//! (SPEAKE(a)R, PAPERS.md: it is an attack surface), and the CRC keeps
//! out line noise, not an attacker: these packets are *well-formed* —
//! correct magic, correct CRC — with fields no producer would send.
//! Sequence numbers and parity bases sit around `u32::MAX` and off the
//! group grid, timestamps at the edges of `u64` and `i64`, parity
//! counts change mid-stream, `xor_len` overshoots its payload,
//! payloads are empty; other speakers' NACKs, noise, truncations and
//! bad auth trailers are mixed in. `SpeakerNode` has no clock, socket
//! or simulator, so the properties are about the speaker alone: no
//! panic (dev profile, so arithmetic overflow panics too), a bounded
//! number of outcomes per message and per wakeup, bounded tables
//! however long the abuse lasts, and — sequence jumps being the
//! cheapest bait there is — a bounded appetite for retransmissions: a
//! hole is asked for twice at most, sixteen ranges to a NACK.
//!
//! `PROPTEST_CASES=5000 cargo test -p es-speaker --test hostile_rx` is
//! the deep run; the default 64 cases keep it in the tier-1 budget.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use bytes::Bytes;
use es_audio::AudioConfig;
use es_net::McastGroup;
use es_proto::{
    decode, encode_control, encode_data, encode_nack, encode_parity, encode_session, ControlPacket,
    DataPacket, Packet, ParityPacket, SessionPacket, StreamSigner, WireError, MAX_NACK_RANGES,
    TRAILER_LEN,
};
use es_sim::{SimDuration, SimTime};
use es_speaker::{Action, Decoder, Pcm, SharedBlock, SpeakerConfig, SpeakerNode};
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
    match rng.gen::<u8>() % 11 {
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
        // A catalog announce.
        7 => encode_session(&SessionPacket::Offer {
            seq: seq(rng),
            streams: Vec::new(),
        }),
        8 => encode_session(&SessionPacket::Flush {
            session_id: rng.gen(),
        }),
        9 => encode_nack(1, &[(seq(rng), u16::MAX); MAX_NACK_RANGES]),
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

/// What the decoder saw: a weak handle on each block it decoded (what
/// is still alive, the node holds), and how many it had decoded when
/// each message was parsed.
#[derive(Default)]
struct Log {
    blocks: Vec<Weak<SharedBlock>>,
    parsed: Vec<usize>,
}

/// Parses with the wire parser and decodes every payload to a 50 ms
/// CD block, ready at once.
struct Blocks(Rc<RefCell<Log>>);

impl Decoder for Blocks {
    fn parse(&mut self, raw: &Bytes) -> Result<Packet, WireError> {
        let mut log = self.0.borrow_mut();
        let decoded = log.blocks.len();
        log.parsed.push(decoded);
        decode(raw)
    }

    fn decode(
        &mut self,
        now: SimTime,
        _: es_codec::CodecId,
        _: u8,
        _: &Bytes,
    ) -> Option<(Pcm, u64, SimTime)> {
        let pcm = SharedBlock::new(vec![1; 4_410]);
        self.0.borrow_mut().blocks.push(Rc::downgrade(&pcm));
        Some((pcm, 0, now))
    }
}

type Node = SpeakerNode<(), Blocks>;

/// A speaker node and what its decoder saw.
struct Speaker {
    node: Node,
    log: Rc<RefCell<Log>>,
}

impl Speaker {
    /// A speaker that has heard nothing yet, on an authenticated
    /// channel if `anchor` is set; one that `repairs` conceals and
    /// NACKs.
    fn new(anchor: Option<[u8; 32]>, repairs: bool) -> Self {
        let mut cfg = SpeakerConfig::new("es", McastGroup(1));
        cfg.auth_anchor = anchor;
        cfg.conceal_loss = repairs;
        let log = Rc::default();
        let mut node = SpeakerNode::new(cfg, Blocks(Rc::clone(&log)));
        if repairs {
            node.request_repairs();
        }
        Speaker { node, log }
    }
}

/// Steps `spk` with one datagram and holds the step to the bounds;
/// returns how many blocks were cleared for playback.
fn feed(spk: &mut Speaker, now: SimTime, datagram: &Bytes) -> usize {
    let (decoded, parsed) = {
        let log = spk.log.borrow();
        (log.blocks.len(), log.parsed.len())
    };
    spk.node.on_datagram(now, (), datagram);
    let log = spk.log.borrow();
    let mut marks = log.parsed[parsed..].to_vec();
    marks.push(log.blocks.len());
    for pair in marks.windows(2) {
        // A data packet and the one it completes by FEC; a group
        // change and the packet the new parity recovers.
        let blocks = pair[1] - pair[0];
        assert!(blocks <= 2, "{blocks} blocks from one message");
    }
    // Each message decides two outcomes at most — a block played or
    // held, a late copy, a format, a group change — and arms at most
    // one poll of the hole table.
    let (messages, actions) = (marks.len() - 1, spk.node.actions.len());
    assert!(
        actions <= 3 * messages,
        "{actions} actions from {messages} messages"
    );
    spk.node.actions.clear();
    let [holes, settled, dedupe] = spk.node.table_sizes();
    assert!(
        holes <= MAX_HOLES && settled <= MAX_HOLES,
        "{holes} open / {settled} settled holes"
    );
    assert!(dedupe <= 512, "{dedupe} dedupe slots");
    log.blocks.len() - decoded
}

/// The hole table's bound (`rx::MAX_HOLES`; the producer's retransmit
/// cache is as long).
const MAX_HOLES: usize = 64;

/// Wakes `spk` the way an adapter does when `now` is the instant it
/// asked for, again while it asks for `now` again, and holds every
/// wakeup to the bounds; returns the ranges of the NACKs sent.
fn wake(spk: &mut Speaker, now: SimTime) -> Vec<Vec<(u32, u16)>> {
    let mut nacks = Vec::new();
    let mut repolls = 0;
    while spk.node.next_wake().is_some_and(|at| at <= now) {
        spk.node.on_wake(now);
        let (mut replicas, mut sent) = (0, 0);
        for action in spk.node.actions.drain(..) {
            match action {
                Action::Nack((), raw) => {
                    let Ok(Packet::Nack { ranges, .. }) = decode(&raw) else {
                        panic!("a NACK that does not parse");
                    };
                    assert!((1..=MAX_NACK_RANGES).contains(&ranges.len()));
                    assert!(ranges.iter().all(|&(_, count)| count >= 1));
                    let asked: usize = ranges.iter().map(|&(_, n)| n as usize).sum();
                    assert!(asked <= MAX_HOLES, "asked for {asked}");
                    nacks.push(ranges);
                    sent += 1;
                }
                // A replica, faded for the first, second or third
                // block missing in a row.
                Action::Play(play) if play.fade < 1.0 => {
                    let fade = |nth| 0.6f64.powi(nth);
                    assert!((1..=3).any(|nth| (play.fade - fade(nth)).abs() < 1e-12));
                    replicas += 1;
                }
                // The hole table asks for `now` again: one NACK could
                // not carry every range due.
                Action::Wake(at) if at <= now => repolls += 1,
                Action::Play(_) | Action::Wake(_) | Action::Note(_) => {}
                _ => panic!("a wakeup plays, asks and journals only"),
            }
        }
        // A replica per hole at the very most, and one NACK.
        assert!(sent <= 1 && replicas + sent <= MAX_HOLES + 1);
        // Each poll settles or asks for at least one range-full of
        // holes, so the table is worked off in a handful.
        assert!(
            repolls <= MAX_HOLES / MAX_NACK_RANGES,
            "poll {}",
            repolls + 1
        );
        let [holes, settled, _] = spk.node.table_sizes();
        assert!(holes <= MAX_HOLES && settled <= MAX_HOLES);
    }
    nacks
}

/// A few hundred hostile messages into a speaker that conceals and
/// NACKs, with the rest of its surface — the wakeups it asks for,
/// retunes, session flushes — exercised in between.
fn abuse(spk: &mut Speaker, rng: &mut StdRng, mut wrap: impl FnMut(&mut StdRng, Bytes) -> Bytes) {
    let mut now = SimTime::ZERO;
    for _ in 0..300 {
        let msg = message(rng);
        let datagram = wrap(rng, msg);
        feed(spk, now, &datagram);
        now = now.saturating_add(SimDuration::from_micros(rng.gen::<u64>() % 60_000));
        match rng.gen::<u8>() % 32 {
            0..=7 => drop(wake(spk, now)),
            8 => spk.node.tune(McastGroup(1)),
            9 => spk.node.resync(),
            _ => {}
        }
        spk.node.actions.clear();
    }
    assert_eq!(spk.node.stats.datagrams, 300);
}

fn control_packet(producer_time_us: u64) -> ControlPacket {
    ControlPacket {
        stream_id: 1,
        seq: 0,
        producer_time_us,
        config: AudioConfig::CD,
        codec: 0,
        quality: 0,
        control_interval_ms: 500,
        flags: 0,
    }
}

fn control(producer_time_us: u64) -> Bytes {
    encode_control(&control_packet(producer_time_us))
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
    let mut spk = Speaker::new(None, false);
    let now = SimTime::from_secs(1);
    feed(&mut spk, now, &control(1 << 63));
    let st = spk.node.stats;
    assert_eq!((st.bad_packets, st.control_packets), (1, 0));
    // Still gated: the forged sample taught the clock nothing.
    assert_eq!(feed(&mut spk, now, &data(0, 1_000_000)), 0);
    assert_eq!(spk.node.stats.dropped_waiting_control, 1);
}

/// Satellite 1, second half: a synchronized speaker (offset > 0) asked
/// to play at `i64::MAX` µs. Before the fix this was `attempt to add
/// with overflow` in `ClockSync::to_local`.
#[test]
fn forged_play_deadline_is_counted_and_ignored() {
    let mut spk = Speaker::new(None, false);
    let now = SimTime::from_secs(10);
    feed(&mut spk, now, &control(3_000_000));
    for (seq, forged) in [i64::MAX as u64, 1 << 63, u64::MAX, u64::MAX / 1_000]
        .into_iter()
        .enumerate()
    {
        assert_eq!(feed(&mut spk, now, &data(seq as u32, forged)), 0);
        assert_eq!(
            spk.node.stats.bad_packets,
            seq as u64 + 1,
            "play_at_us = {forged}"
        );
    }
    // The stream itself is unharmed.
    assert_eq!(feed(&mut spk, now, &data(9, 4_000_000)), 1);
}

/// A synchronized speaker that conceals and NACKs, having played
/// sequence number `first`.
fn baited(first: u32) -> Speaker {
    let mut spk = Speaker::new(None, true);
    feed(&mut spk, SimTime::ZERO, &control(0));
    assert_eq!(feed(&mut spk, SimTime::ZERO, &data(first, 200_000)), 1);
    spk
}

/// NACK-bait, first kind: forged sequence numbers alternating between
/// two far-apart neighbourhoods, every jump a "loss burst" of a
/// thousand packets.
#[test]
fn alternating_far_apart_seqs_cannot_grow_the_hole_table_or_a_nack() {
    let mut spk = baited(u32::MAX - 2_000);
    let mut nacks = 0;
    for round in 0..200u32 {
        let now = SimTime::from_millis(round as u64 * 25);
        let near = (u32::MAX - 2_000).wrapping_add(round * 3 + 1);
        let seq = [near.wrapping_add(1_000), near][round as usize % 2];
        feed(&mut spk, now, &data(seq, 200_000 + now.as_micros()));
        nacks += wake(&mut spk, now).len();
    }
    // Every forward jump opens the newest 64 of its thousand holes,
    // in one range: one NACK and one re-ask per jump, no more.
    assert!(nacks <= 2 * 100, "{nacks} NACKs for 100 forged jumps");
    assert_eq!(
        spk.node.table_sizes()[1],
        MAX_HOLES,
        "what came due is remembered, to the bound"
    );
}

/// One forged datagram must not turn repair off. A well-formed data
/// packet `0x7fff_0000` ahead of the stream is still "ahead" in serial
/// arithmetic; it used to pin the newest sequence number, so every
/// real packet after it read as a late arrival and no gap opened
/// again. A jump that long either way is a restart: the real stream
/// re-anchors on its next packet.
#[test]
fn a_forged_far_jump_does_not_stop_repair() {
    let repair = |forge: bool| {
        let mut spk = baited(100);
        if forge {
            let forged = data(100 + 0x7fff_0000, 250_000);
            feed(&mut spk, SimTime::from_millis(10), &forged);
        }
        // Seq 100 + k arrives at k · 50 ms, due 200 ms later; 103 is
        // lost on the wire.
        let mut nacks = 0;
        for ms in (10..=500u64).step_by(10) {
            let now = SimTime::from_millis(ms);
            let k = ms / 50;
            if ms % 50 == 0 && [1, 2, 4, 5].contains(&k) {
                let real = data(100 + k as u32, 200_000 + ms * 1_000);
                assert_eq!(feed(&mut spk, now, &real), 1);
            }
            nacks += wake(&mut spk, now).len();
        }
        (nacks, spk.node.stats.quality_lost)
    };
    let (clean, lost) = repair(false);
    assert_eq!((clean, lost), (2, 1), "the NACK and its re-ask");
    let (forged, lost) = repair(true);
    assert_eq!(forged, clean, "repair survives the forged jump");
    assert!(lost < 2, "the jump is no loss: quality_lost {lost}");
}

/// Second kind: every other packet "lost", so no two holes share a
/// range and a NACK fills up.
#[test]
fn a_flood_of_one_packet_gaps_is_asked_for_sixteen_ranges_at_a_time() {
    let mut spk = baited(u32::MAX - 100);
    // 150 gaps inside one hold-off: the table keeps the newest 64.
    for k in 1..=150u32 {
        let seq = (u32::MAX - 100).wrapping_add(2 * k);
        let now = SimTime::from_micros(k as u64 * 10);
        feed(&mut spk, now, &data(seq, 10_000_000 + k as u64));
    }
    assert_eq!(spk.node.table_sizes()[0], MAX_HOLES);
    assert!(wake(&mut spk, SimTime::from_millis(19)).is_empty());
    let nacks = wake(&mut spk, SimTime::from_millis(30));
    assert_eq!(nacks.len(), MAX_HOLES / MAX_NACK_RANGES);
    // Oldest first, each range one packet, across the sequence wrap.
    let asked: Vec<u32> = nacks.concat().iter().map(|&(first, _)| first).collect();
    let newest = (u32::MAX - 100).wrapping_add(299);
    let want: Vec<u32> = (0..64).rev().map(|k| newest.wrapping_sub(2 * k)).collect();
    assert_eq!(asked, want);
    // Once more after the re-ask interval, then never again.
    assert_eq!(wake(&mut spk, SimTime::from_millis(75)).len(), 4);
    assert!(wake(&mut spk, SimTime::from_secs(5)).is_empty());
    // Once the blocks it holds have played, the speaker next wakes for
    // the oldest hole left, between the 86th and 87th packets.
    let oldest = SimTime::from_nanos(10_000_086_500);
    assert!(wake(&mut spk, oldest - SimDuration::from_nanos(1)).is_empty());
    assert_eq!(spk.node.next_wake(), Some(oldest));
}

/// Third kind: gaps whose deadlines are an hour away never come due,
/// so nothing ever clears them out — except the bound.
#[test]
fn gaps_with_far_future_deadlines_are_held_to_the_bound_and_asked_twice() {
    let mut spk = baited(7);
    let hour = 3_600_000_000u64;
    let mut nacks = 0;
    for k in 1..=500u32 {
        let now = SimTime::from_millis(k as u64 * 50);
        feed(&mut spk, now, &data(7 + 3 * k, hour + k as u64));
        nacks += wake(&mut spk, now).len();
    }
    assert_eq!(spk.node.table_sizes()[..2], [MAX_HOLES, 0]);
    // Two holes a packet, one range: asked for at the next packet's
    // wakeup and once more at the one after, where it shares the NACK
    // with its successor's first request.
    assert_eq!(nacks, 499);
    // The last two pairs are asked for (again) …
    assert_eq!(wake(&mut spk, SimTime::from_secs(26)).len(), 1);
    assert_eq!(wake(&mut spk, SimTime::from_secs(27)).len(), 1);
    // … and, left alone, the speaker sleeps until the first is due.
    assert!(wake(&mut spk, SimTime::from_secs(60)).is_empty());
    assert!(spk
        .node
        .next_wake()
        .is_some_and(|at| at > SimTime::from_secs(3_000)));
}

/// An open channel accepts any deadline: two thousand blocks due an
/// hour from now would each hold a decoded block for the hour. The
/// node holds 64, the soonest due, and counts the rest as receive-
/// buffer drops.
#[test]
fn a_flood_of_far_future_blocks_is_held_to_the_bound() {
    let Speaker { mut node, log } = Speaker::new(None, false);
    let hour = 3_600_000_000;
    node.on_datagram(SimTime::ZERO, (), &control(0));
    for seq in 0..2_000u32 {
        node.on_datagram(
            SimTime::ZERO,
            (),
            &data(seq, hour + u64::from(seq) * 50_000),
        );
        node.on_wake(SimTime::ZERO);
    }
    let blocks = &log.borrow().blocks;
    let held = blocks.iter().filter(|b| b.strong_count() > 0).count();
    assert_eq!((blocks.len(), held), (2_000, 64));
    assert_eq!(node.stats.dropped_busy, 2_000 - 64);
    let played = |node: &mut Node| {
        let plays = node.actions.drain(..);
        plays.filter(|a| matches!(a, Action::Play(_))).count()
    };
    assert_eq!(played(&mut node), 0, "nothing is due yet");
    while let Some(at) = node.next_wake() {
        node.on_wake(at);
    }
    assert_eq!(played(&mut node), 64);
    assert_eq!(node.stats.data_packets, 64);
}

/// Wire codec id 2 is retired: no codec owns it, so a control or data
/// packet stamped with it carries a hostile field like any other. The
/// production decoder plays each block as `SpeakerNode::codec_for` says
/// — a data packet's unknown byte defers to the stream's codec, a
/// stream's unknown byte to PCM — or counts a decode error when the
/// payload is not that codec's.
#[test]
fn a_retired_codec_byte_decodes_as_the_stream_codec_or_counts_an_error() {
    use es_codec::{CodecId, Codecs, MAX_QUALITY};
    const RETIRED: u8 = 2;
    assert_eq!(CodecId::from_wire(RETIRED), None);
    let codecs = Codecs::new();
    let block = |k: i32| -> Vec<i16> {
        (0..4_410)
            .map(|i| ((i * (k + 3) * 37) % 20_000 - 10_000) as i16)
            .collect()
    };
    let pcm = |k| codecs.encode(CodecId::Pcm, &block(k), 2, 0).bytes;
    // Each OVL block the first of its stream, so it plays as it decodes
    // alone.
    let ovl = |k| {
        codecs.reset();
        codecs.encode(CodecId::Ovl, &block(k), 2, MAX_QUALITY).bytes
    };
    let ovl_played = |k| codecs.decode(CodecId::Ovl, &ovl(k), 2).unwrap().0;

    let cfg = es_speaker::SpeakerConfig::new("es", es_net::McastGroup(1));
    let decoder = es_speaker::MemoDecoder::new(&cfg);
    let mut node = es_speaker::SpeakerNode::new(cfg, decoder);
    let stamped = |stream_codec| {
        encode_control(&ControlPacket {
            codec: stream_codec,
            ..control_packet(0)
        })
    };
    let mut seq = 0;
    let mut send = |node: &mut es_speaker::SpeakerNode<(), es_speaker::MemoDecoder>,
                    codec: u8,
                    payload: Vec<u8>| {
        let packet = DataPacket {
            stream_id: 1,
            seq,
            play_at_us: 200_000 + u64::from(seq) * 50_000,
            codec,
            payload: Bytes::from(payload),
        };
        node.on_datagram(SimTime::ZERO, (), &encode_data(&packet));
        seq += 1;
    };
    // A stream stamped 2 plays as PCM, and so does its block stamped 2.
    node.on_datagram(SimTime::ZERO, (), &stamped(RETIRED));
    assert_eq!(node.codec_for(RETIRED), CodecId::Pcm);
    send(&mut node, RETIRED, pcm(0));
    // Under an OVL stream a block stamped 2 decodes as OVL: an OVL
    // payload plays, a PCM or an empty one is a decode error.
    node.on_datagram(SimTime::ZERO, (), &stamped(CodecId::Ovl.to_wire()));
    assert_eq!(node.codec_for(RETIRED), CodecId::Ovl);
    send(&mut node, RETIRED, ovl(1));
    send(&mut node, RETIRED, pcm(2));
    send(&mut node, RETIRED, Vec::new());
    // A known byte still names its own codec.
    send(&mut node, CodecId::Pcm.to_wire(), pcm(3));
    send(&mut node, CodecId::Ovl.to_wire(), ovl(4));
    while let Some(at) = node.next_wake() {
        node.on_wake(at);
    }

    let mut played = Vec::new();
    for action in node.actions.drain(..) {
        if let es_speaker::Action::Play(play) = action {
            play.render_into(&mut played);
        }
    }
    let expected = [block(0), ovl_played(1), block(3), ovl_played(4)].concat();
    assert!(played == expected, "played {} samples", played.len());
    let stats = node.stats;
    assert_eq!(
        (stats.data_packets, stats.decode_errors, stats.bad_packets),
        (4, 2, 0),
        "{stats:?}"
    );
}

/// A NACK is the one packet a speaker sends; one that reaches a
/// speaker — another speaker's on a shared LAN, or a forger's — is
/// nobody's business there.
#[test]
fn a_nack_sent_to_a_speaker_is_ignored() {
    let mut spk = baited(10);
    let before = format!("{:?}", spk.node.stats);
    let nack = encode_nack(1, &[(11, 3), (0, u16::MAX)]);
    spk.node.on_datagram(SimTime::from_millis(1), (), &nack);
    assert!(spk.node.actions.is_empty());
    let after = format!("{:?}", spk.node.stats);
    assert_eq!(after, before.replace("datagrams: 2", "datagrams: 3"));
    // No hole and no poll: the one wakeup is the baited block's.
    let holes = spk.node.table_sizes()[0];
    let baited_block = Some(SimTime::from_millis(200));
    assert_eq!((holes, spk.node.next_wake()), (0, baited_block));
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
        abuse(&mut Speaker::new(None, true), &mut rng, |_, msg| msg);
    }

    #[test]
    fn authenticated_channel_survives_hostile_traffic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let signer = StreamSigner::new(b"hostile", 40, 2);
        let mut spk = Speaker::new(Some(signer.anchor()), true);
        let mut sent = 0u32;
        abuse(&mut spk, &mut rng, |rng, msg| {
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
        prop_assert!(spk.node.stats.control_packets > 0, "signed traffic was released");
    }
}
