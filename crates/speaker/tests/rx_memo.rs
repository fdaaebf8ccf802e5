//! Decode-once sharing is invisible: speakers on one group share the
//! parse and the codec decode of each datagram, and nothing a speaker
//! plays, counts or bills can tell.
//!
//! Every test uses its own stream id and sample values, so no two
//! tests ever put byte-equal packets through a memo (the memos are
//! per thread and outlive a `Sim`).

use bytes::Bytes;
use es_audio::gen::{render_stereo, MultiTone, Sine};
use es_audio::{AudioConfig, Encoding};
use es_codec::{CodecId, Codecs, MAX_QUALITY};
use es_net::{Lan, LanConfig, McastGroup, NodeId};
use es_proto::{encode_control, encode_data, ControlPacket, DataPacket, Packet};
use es_sim::{Sim, SimDuration};
use es_speaker::{rx_memo_stats, EthernetSpeaker, RxMemoStats, SpeakerConfig};

const G: McastGroup = McastGroup(1);
const G2: McastGroup = McastGroup(2);

/// A LAN with one producer host.
struct Rig {
    sim: Sim,
    lan: Lan,
    producer: NodeId,
}

impl Rig {
    fn new(config: LanConfig) -> Rig {
        let lan = Lan::new(config);
        let producer = lan.attach("producer");
        Rig {
            sim: Sim::new(1),
            lan,
            producer,
        }
    }

    /// A clean LAN whose `n` speakers on [`G`] have already learned a
    /// CD-format PCM stream from a control packet at t = 0.
    fn tuned(n: usize, stream_id: u16) -> (Rig, Vec<EthernetSpeaker>) {
        let mut rig = Rig::new(LanConfig::default());
        let spk = rig.speakers(n, G);
        rig.send(G, control(stream_id, 0, AudioConfig::CD, CodecId::Pcm));
        rig.sim.run();
        (rig, spk)
    }

    /// Every test here compares what was played sample for sample,
    /// so every speaker keeps its output.
    fn speaker(&mut self, mut cfg: SpeakerConfig) -> EthernetSpeaker {
        cfg.capture_output = true;
        EthernetSpeaker::start(&mut self.sim, &self.lan, cfg)
    }

    /// A speaker on [`G`] at a fixed `volume` gain.
    fn speaker_at(&mut self, name: &str, volume: f64) -> EthernetSpeaker {
        let mut cfg = SpeakerConfig::new(name, G);
        cfg.volume = volume;
        self.speaker(cfg)
    }

    fn speakers(&mut self, n: usize, group: McastGroup) -> Vec<EthernetSpeaker> {
        (0..n)
            .map(|i| self.speaker(SpeakerConfig::new(format!("es{}-{i}", group.0), group)))
            .collect()
    }

    fn send(&mut self, group: McastGroup, datagram: Bytes) {
        self.lan
            .multicast(&mut self.sim, self.producer, group, datagram);
    }

    fn run_ms(&mut self, ms: u64) {
        self.sim.run_for(SimDuration::from_millis(ms));
    }
}

fn control(stream_id: u16, t_us: u64, config: AudioConfig, codec: CodecId) -> Bytes {
    encode_control(&ControlPacket {
        stream_id,
        seq: 0,
        producer_time_us: t_us,
        config,
        codec: codec.to_wire(),
        quality: 0,
        control_interval_ms: 500,
        flags: 0,
    })
}

fn data(stream_id: u16, seq: u32, play_at_us: u64, codec: CodecId, payload: Bytes) -> Bytes {
    encode_data(&DataPacket {
        stream_id,
        seq,
        play_at_us,
        codec: codec.to_wire(),
        payload,
    })
}

/// A 50 ms stereo PCM payload of one constant sample value.
fn pcm(value: i16) -> Bytes {
    Bytes::from(es_audio::convert::encode_samples(
        &vec![value; 2 * 2_205],
        Encoding::Slinear16Le,
    ))
}

fn delta(after: RxMemoStats, before: RxMemoStats) -> RxMemoStats {
    RxMemoStats {
        parse_hits: after.parse_hits - before.parse_hits,
        parse_misses: after.parse_misses - before.parse_misses,
        decode_hits: after.decode_hits - before.decode_hits,
        decode_misses: after.decode_misses - before.decode_misses,
        completion_hits: after.completion_hits - before.completion_hits,
        completion_misses: after.completion_misses - before.completion_misses,
        render_hits: after.render_hits - before.render_hits,
        render_misses: after.render_misses - before.render_misses,
    }
}

/// What one speaker's run is judged by.
type Outcome = (u64, u64, Vec<i16>);

fn played(spk: &EthernetSpeaker) -> Vec<i16> {
    let heard = spk.tap().borrow().samples();
    heard.expect("Rig::speaker sets capture_output")
}

fn outcome(spk: &EthernetSpeaker) -> Outcome {
    let st = spk.stats();
    (st.decode_work_units, st.samples_played, played(spk))
}

#[test]
fn fleet_parses_and_decodes_each_datagram_once_and_no_speaker_can_tell() {
    const N: u64 = 12;
    const PACKETS: u64 = 10;
    // One device block (50 ms) per packet, as the producer cuts them.
    const FRAMES: usize = 2_205;
    let codecs = Codecs::new();
    let mut left = MultiTone::music(44_100);
    let mut right = Sine::new(311.0, 44_100, 0.4);
    let mut wire = vec![control(41, 0, AudioConfig::CD, CodecId::Ovl)];
    for seq in 0..PACKETS {
        let samples = render_stereo(&mut left, &mut right, FRAMES);
        let enc = codecs.encode(CodecId::Ovl, &samples, 2, MAX_QUALITY);
        let at = 300_000 + seq * 50_000;
        wire.push(data(41, seq as u32, at, CodecId::Ovl, enc.bytes.into()));
    }
    let run = |n: u64| -> Vec<Outcome> {
        let mut rig = Rig::new(LanConfig::default());
        let spk = rig.speakers(n as usize, G);
        for dg in &wire {
            rig.send(G, dg.clone());
            rig.run_ms(1);
        }
        rig.run_ms(2_000);
        spk.iter().map(outcome).collect()
    };

    let before = rx_memo_stats();
    let fleet = run(N);
    let datagrams = wire.len() as u64;
    assert_eq!(
        delta(rx_memo_stats(), before),
        RxMemoStats {
            parse_misses: datagrams,
            parse_hits: datagrams * (N - 1),
            decode_misses: PACKETS,
            decode_hits: PACKETS * (N - 1),
            completion_misses: PACKETS,
            completion_hits: PACKETS * (N - 1),
            render_misses: PACKETS,
            render_hits: PACKETS * (N - 1),
        },
        "one parse, one decode, one completion and one rendering per produced datagram"
    );

    let alone = run(1).remove(0);
    let (work, played, ref heard) = alone;
    assert!(work > 0 && played == PACKETS * FRAMES as u64 * 2);
    assert!(heard.iter().any(|&s| s != 0));
    for (i, got) in fleet.iter().enumerate() {
        assert_eq!(
            got, &alone,
            "speaker {i} differs from the same speaker alone"
        );
    }
}

#[test]
fn shared_pcm_is_never_scaled_by_a_neighbours_volume() {
    let mut rig = Rig::new(LanConfig::default());
    let spk = [0.5, 0.25, 1.0].map(|volume| rig.speaker_at(&format!("es-{volume}"), volume));
    rig.send(G, control(42, 0, AudioConfig::CD, CodecId::Pcm));
    rig.sim.run();
    rig.send(G, data(42, 0, 10_000, CodecId::Pcm, pcm(1_000)));
    rig.run_ms(200);
    let peaks: Vec<i16> = spk
        .iter()
        .map(|s| played(s).iter().map(|&v| v.abs()).max().unwrap_or(0))
        .collect();
    assert_eq!(peaks, vec![500, 250, 1_000]);
}

#[test]
fn reconfigured_stream_is_decoded_under_the_live_channel_count() {
    // One pipelined and one §3.4 serial speaker on the group. Packet 1
    // waits in the serial speaker's queue while a control packet turns
    // the stream mono: the pipelined speaker already played it as
    // stereo, the serial one must decode it under the live layout —
    // and fail the OVL channel cross-check — not reuse its
    // neighbour's stereo decode.
    let mut rig = Rig::new(LanConfig::default());
    let pipelined = rig.speaker(SpeakerConfig::new("pipe", G));
    let mut cfg = SpeakerConfig::new("serial", G);
    cfg.serial_queue_depth = Some(4);
    let serial = rig.speaker(cfg);
    rig.send(G, control(43, 0, AudioConfig::CD, CodecId::Ovl));
    rig.sim.run();
    let codecs = Codecs::new();
    for seq in 0..2u32 {
        let samples = vec![3_000 + seq as i16; 2 * 2_205];
        let enc = codecs.encode(CodecId::Ovl, &samples, 2, 0);
        let at = 300_000 + seq as u64 * 50_000;
        rig.send(G, data(43, seq, at, CodecId::Ovl, enc.bytes.into()));
    }
    rig.run_ms(100);
    let mono = AudioConfig {
        channels: 1,
        ..AudioConfig::CD
    };
    let now_us = rig.sim.now().as_micros();
    rig.send(G, control(43, now_us, mono, CodecId::Ovl));
    rig.run_ms(1_000);
    assert_eq!(pipelined.stats().decode_errors, 0);
    assert_eq!(pipelined.stats().data_packets, 2);
    assert_eq!(serial.stats().decode_errors, 1, "{:?}", serial.stats());
    assert_eq!(serial.stats().data_packets, 1);
}

#[test]
fn same_payload_under_another_wire_codec_is_decoded_again() {
    let (mut rig, spk) = Rig::tuned(2, 44);
    // 4 410 bytes: 2 205 samples as 16-bit PCM, 4 410 as µ-law.
    let payload = Bytes::from(vec![0x55u8; 4_410]);
    rig.send(G, data(44, 0, 300_000, CodecId::Pcm, payload.clone()));
    rig.send(G, data(44, 1, 325_000, CodecId::ULaw, payload));
    rig.run_ms(1_000);
    for s in &spk {
        assert_eq!(s.stats().samples_played, 2_205 + 4_410, "{:?}", s.stats());
        assert_eq!(s.stats().decode_work_units, 2_205 + 2 * 4_410);
    }
}

/// Everything a speaker played that is not silence.
fn audible(spk: &EthernetSpeaker) -> Vec<i16> {
    let mut v = played(spk);
    v.retain(|&x| x != 0);
    v
}

/// The distinct non-silent sample values a speaker played, in order.
fn heard(spk: &EthernetSpeaker) -> Vec<i16> {
    let mut v = audible(spk);
    v.dedup();
    v
}

#[test]
fn interleaved_channels_each_play_their_own_audio() {
    let mut rig = Rig::new(LanConfig::default());
    let a = rig.speakers(2, G);
    let b = rig.speakers(2, G2);
    rig.send(G, control(45, 0, AudioConfig::CD, CodecId::Pcm));
    rig.send(G2, control(46, 0, AudioConfig::CD, CodecId::Pcm));
    rig.sim.run();
    for seq in 0..6u32 {
        // Same sequence numbers and deadlines on both channels; only
        // the audio differs.
        let at = 300_000 + seq as u64 * 50_000;
        rig.send(G, data(45, seq, at, CodecId::Pcm, pcm(1_000 + seq as i16)));
        rig.send(G2, data(46, seq, at, CodecId::Pcm, pcm(2_000 + seq as i16)));
    }
    rig.run_ms(1_000);
    for s in &a {
        assert_eq!(heard(s), (1_000..1_006).collect::<Vec<i16>>());
    }
    for s in &b {
        assert_eq!(heard(s), (2_000..2_006).collect::<Vec<i16>>());
    }
}

#[test]
fn lan_duplicates_play_once_on_every_speaker() {
    let mut rig = Rig::new(LanConfig::duplicating(1.0));
    let spk = rig.speakers(3, G);
    rig.send(G, control(47, 0, AudioConfig::CD, CodecId::Pcm));
    rig.sim.run();
    for seq in 0..4u32 {
        let at = 300_000 + seq as u64 * 50_000;
        rig.send(G, data(47, seq, at, CodecId::Pcm, pcm(700 + seq as i16)));
    }
    rig.run_ms(1_000);
    for s in &spk {
        let st = s.stats();
        assert_eq!(st.dropped_duplicate, 4, "{st:?}");
        assert_eq!(st.data_packets, 4, "{st:?}");
        assert_eq!(st.samples_played, 4 * 4_410, "{st:?}");
    }
}

#[test]
fn restamped_copy_shares_the_decode_but_keeps_its_own_deadline() {
    // Same audio in a new datagram with a later `play_at_us`, on
    // another group.
    let mut rig = Rig::new(LanConfig::default());
    let near = rig.speakers(1, G).remove(0);
    let far = rig.speakers(1, G2).remove(0);
    for g in [G, G2] {
        rig.send(g, control(48, 0, AudioConfig::CD, CodecId::Pcm));
    }
    rig.sim.run();
    let before = rx_memo_stats();
    rig.send(G, data(48, 0, 300_000, CodecId::Pcm, pcm(900)));
    rig.send(G2, data(48, 0, 400_000, CodecId::Pcm, pcm(900)));
    rig.run_ms(1_000);
    let shared = delta(rx_memo_stats(), before);
    assert_eq!(
        (shared.parse_misses, shared.parse_hits),
        (2, 0),
        "two datagrams"
    );
    assert_eq!(
        (shared.decode_misses, shared.decode_hits),
        (1, 1),
        "one payload"
    );
    let t_near = near.tap().borrow().first_block_time().unwrap();
    let t_far = far.tap().borrow().first_block_time().unwrap();
    assert_eq!((t_far - t_near).as_millis(), 100);
    assert_eq!(played(&near), played(&far));
}

#[test]
fn corrupted_twin_of_a_good_datagram_is_rejected_by_every_speaker() {
    let (mut rig, spk) = Rig::tuned(3, 49);
    let good = data(49, 0, 300_000, CodecId::Pcm, pcm(600));
    let mut torn = good.to_vec();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x01;
    // Good first, then its equal-length corrupted twin, then the good
    // bytes again from a fresh allocation.
    rig.send(G, good.clone());
    rig.send(G, torn.into());
    rig.send(G, good.to_vec().into());
    rig.run_ms(1_000);
    for s in &spk {
        let st = s.stats();
        assert_eq!(st.bad_packets, 1, "{st:?}");
        assert_eq!(st.data_packets, 1, "{st:?}");
        assert_eq!(st.dropped_duplicate, 1, "{st:?}");
        assert_eq!(st.samples_played, 4_410, "{st:?}");
    }
}

#[test]
fn buffers_freed_and_reallocated_between_sends_never_alias() {
    // Far more datagrams than memo slots, each dropped by the sender
    // before the next is allocated, so the allocator gets every chance
    // to hand a recycled address to different bytes.
    let (mut rig, spk) = Rig::tuned(2, 50);
    const ROUNDS: i16 = 64;
    for seq in 0..ROUNDS {
        let at = 300_000 + seq as u64 * 50_000;
        rig.send(G, data(50, seq as u32, at, CodecId::Pcm, pcm(100 + seq)));
        rig.run_ms(50);
    }
    rig.run_ms(1_000);
    for s in &spk {
        assert_eq!(heard(s), (100..100 + ROUNDS).collect::<Vec<i16>>());
        assert_eq!(s.stats().data_packets, ROUNDS as u64);
    }
}

/// What a speaker asked its producer to send again, request by
/// request.
type Nacks = es_sim::Shared<Vec<Vec<(u32, u16)>>>;

/// Has `spk` request repairs and the rig's producer node — the one its
/// control packets come from — take notes of the NACKs of `stream_id`
/// it receives, answering none.
fn log_nacks(rig: &Rig, spk: &EthernetSpeaker, stream_id: u16) -> Nacks {
    spk.request_repairs();
    let nacks = es_sim::shared(Vec::new());
    let log = nacks.clone();
    rig.lan.set_handler(rig.producer, move |_, dg| {
        if let Ok(Packet::Nack {
            stream_id: s,
            ranges,
        }) = es_proto::decode(&dg.payload)
        {
            assert_eq!(s, stream_id);
            log.borrow_mut().push(ranges);
        }
    });
    nacks
}

/// One loss-concealing speaker on [`G`], tuned to a CD-format PCM
/// stream, and the NACKs it raises.
fn concealing(stream_id: u16) -> (Rig, EthernetSpeaker, Nacks) {
    let mut rig = Rig::new(LanConfig::default());
    let mut cfg = SpeakerConfig::new("plc", G);
    cfg.conceal_loss = true;
    let spk = rig.speaker(cfg);
    let nacks = log_nacks(&rig, &spk, stream_id);
    rig.send(G, control(stream_id, 0, AudioConfig::CD, CodecId::Pcm));
    rig.sim.run();
    (rig, spk, nacks)
}

#[test]
fn forged_max_seq_neither_panics_nor_disables_concealment() {
    let (mut rig, spk, nacks) = concealing(51);
    let at = |seq: u32| 300_000 + seq as u64 * 50_000;
    // One unauthenticated datagram at the top of the sequence space,
    // then the real stream.
    rig.send(G, data(51, u32::MAX, at(4), CodecId::Pcm, pcm(400)));
    for seq in [5u32, 6] {
        rig.send(
            G,
            data(51, seq, at(seq), CodecId::Pcm, pcm(500 + seq as i16)),
        );
    }
    rig.run_ms(10);
    rig.send(G, data(51, 8, at(8), CodecId::Pcm, pcm(508)));
    // Whatever the forged jump itself cost is not the point — the
    // holes it opened (0..=4) have all come due by the time block 6
    // plays; what follows it is.
    rig.sim
        .run_until(es_sim::SimTime::from_micros(at(6) + 40_000));
    let concealed_before = spk.stats().concealed_packets;
    rig.run_ms(1_000);
    let st = spk.stats();
    assert_eq!(st.concealed_packets, concealed_before + 1, "{st:?}");
    assert_eq!(nacks.borrow().last(), Some(&vec![(7, 1)]));
}

#[test]
fn stream_plays_straight_across_the_sequence_wrap() {
    let (mut rig, spk, nacks) = concealing(52);
    for k in 0..6u32 {
        let seq = (u32::MAX - 2).wrapping_add(k);
        let at = 300_000 + k as u64 * 50_000;
        rig.send(G, data(52, seq, at, CodecId::Pcm, pcm(800 + k as i16)));
    }
    rig.run_ms(1_000);
    let st = spk.stats();
    assert_eq!(st.data_packets, 6, "{st:?}");
    assert_eq!(st.dropped_duplicate, 0, "{st:?}");
    assert_eq!(st.concealed_packets, 0, "{st:?}");
    assert!(nacks.borrow().is_empty());
    assert_eq!(heard(&spk), (800..806).collect::<Vec<i16>>());
}

#[test]
fn late_arrivals_fill_a_gap_that_straddles_the_sequence_wrap() {
    let (mut rig, spk) = Rig::tuned(1, 53);
    let nacks = log_nacks(&rig, &spk[0], 53);
    // Stream positions 0..4 carry u32::MAX - 1, u32::MAX, 0, 1. The
    // middle two overtake nothing and arrive last: reordered, not lost.
    for k in [0u32, 3, 1, 2] {
        let seq = (u32::MAX - 1).wrapping_add(k);
        let at = 300_000 + k as u64 * 50_000;
        rig.send(G, data(53, seq, at, CodecId::Pcm, pcm(900 + k as i16)));
        rig.run_ms(1);
    }
    rig.run_ms(1_000);
    let st = spk[0].stats();
    assert_eq!(st.data_packets, 4, "{st:?}");
    assert_eq!(st.dropped_duplicate, 0, "{st:?}");
    // Both holes were filled inside the reorder hold-off.
    assert!(nacks.borrow().is_empty(), "{:?}", nacks.borrow());
}

/// Sends `count` consecutive packets starting at sequence number
/// `first`, one per 50 ms of stream time, each played before the next
/// is sent.
fn stream(rig: &mut Rig, stream_id: u16, first: u32, count: u32) {
    for k in 0..count {
        let at = 300_000 + k as u64 * 50_000;
        let seq = first.wrapping_add(k);
        rig.send(
            G,
            data(stream_id, seq, at, CodecId::Pcm, pcm(100 + (k % 50) as i16)),
        );
        rig.run_ms(50);
    }
}

#[test]
fn duplicates_are_suppressed_after_a_full_window_crosses_the_sequence_wrap() {
    let (mut rig, spk) = Rig::tuned(1, 54);
    let first = u32::MAX - 515;
    stream(&mut rig, 54, first, 519);
    // The 520th packet, and a LAN duplicate of it on its heels.
    let last = first.wrapping_add(519);
    let at = 300_000 + 519 * 50_000;
    for _ in 0..2 {
        rig.send(G, data(54, last, at, CodecId::Pcm, pcm(77)));
    }
    rig.run_ms(1_000);
    let st = spk[0].stats();
    assert_eq!(st.data_packets, 520, "{st:?}");
    assert_eq!(st.dropped_duplicate, 1, "{st:?}");
}

#[test]
fn dedupe_window_is_bounded_at_512_sequence_numbers() {
    let (mut rig, spk) = Rig::tuned(1, 55);
    let first = u32::MAX - 300;
    stream(&mut rig, 55, first, 601);
    rig.run_ms(1_000);
    assert_eq!(spk[0].stats().data_packets, 601);
    let newest = first.wrapping_add(600);
    let replay = |rig: &mut Rig, back: u32| {
        rig.send(
            G,
            data(55, newest.wrapping_sub(back), 0, CodecId::Pcm, pcm(66)),
        );
        rig.run_ms(1);
    };
    // 511 back is the oldest number still in the window …
    replay(&mut rig, 511);
    let st = spk[0].stats();
    assert_eq!((st.dropped_duplicate, st.dropped_late), (1, 0), "{st:?}");
    // … 600 back has left it: the copy gets as far as the §3.2
    // deadline check, which is what discards it.
    replay(&mut rig, 600);
    let st = spk[0].stats();
    assert_eq!((st.dropped_duplicate, st.dropped_late), (1, 1), "{st:?}");
}

/// A 50 ms stereo PCM block ramping up from `base`, never zero, so
/// what a tap heard of it can be told from silence padding.
fn ramp(base: i16) -> Vec<i16> {
    (0..2 * 2_205).map(|i| base + i as i16).collect()
}

#[test]
fn gain_and_concealment_fade_stay_private_to_the_speaker_that_applies_them() {
    let mut rig = Rig::new(LanConfig::default());
    // Delivery runs in attach order, so the speakers that scale and
    // fade handle every shared block before the unity speaker does.
    let half = rig.speaker_at("half", 0.5);
    let mut cfg = SpeakerConfig::new("plc", G);
    cfg.conceal_loss = true;
    let plc = rig.speaker(cfg);
    let unity = rig.speaker(SpeakerConfig::new("unity", G));
    rig.send(G, control(56, 0, AudioConfig::CD, CodecId::Pcm));
    rig.sim.run();

    // Packets 0, 1 and 3 arrive together, long before any deadline:
    // the concealing speaker fades its replica of block 1 while the
    // other two still hold block 1 to play. Packet 4 carries block 1's
    // audio once more and arrives when all of that has played: it
    // finds the shared block, and what that block rendered to, as the
    // scaling and the fade left them.
    let before = rx_memo_stats();
    let source: Vec<Vec<i16>> = [1_000, 7_000, 13_000].map(ramp).to_vec();
    let send = |rig: &mut Rig, seq: u32, block: &[i16]| {
        let payload = es_audio::convert::encode_samples(block, Encoding::Slinear16Le);
        let at = 300_000 + seq as u64 * 50_000;
        rig.send(G, data(56, seq, at, CodecId::Pcm, payload.into()));
    };
    for (seq, block) in [0u32, 1, 3].into_iter().zip(&source) {
        send(&mut rig, seq, block);
    }
    rig.run_ms(480);
    send(&mut rig, 4, &source[1]);
    rig.run_ms(1_000);

    let shared = delta(rx_memo_stats(), before);
    assert_eq!((shared.decode_misses, shared.decode_hits), (3, 9));
    assert_eq!(plc.stats().concealed_packets, 1);
    // Four blocks each at unity gain on two speakers, of three
    // payloads; the halved blocks and the replica are nobody else's.
    assert_eq!((shared.render_misses, shared.render_hits), (3, 5));

    let played = [&source[0], &source[1], &source[2], &source[1]].map(|b| &b[..]);
    assert_eq!(
        audible(&unity),
        played.concat(),
        "unity gain plays the source"
    );
    let mut halved = played.concat();
    es_audio::mix::apply_gain(&mut halved, 0.5);
    assert_eq!(audible(&half), halved);
    let mut faded = source[1].clone();
    es_audio::mix::apply_gain(&mut faded, 0.6);
    let with_replica = [&source[0], &source[1], &faded, &source[2], &source[1]].map(|b| &b[..]);
    assert_eq!(audible(&plc), with_replica.concat());
}

#[test]
fn fleet_at_unity_gain_plays_one_rendering_per_datagram() {
    const N: u64 = 64;
    let (mut rig, spk) = Rig::tuned(N as usize, 58);
    let before = rx_memo_stats();
    let source: Vec<Vec<i16>> = [2_000, 9_000, 16_000].map(ramp).to_vec();
    for (seq, block) in source.iter().enumerate() {
        let payload = es_audio::convert::encode_samples(block, Encoding::Slinear16Le);
        let at = 300_000 + seq as u64 * 50_000;
        rig.send(G, data(58, seq as u32, at, CodecId::Pcm, payload.into()));
    }
    rig.run_ms(1_000);
    let shared = delta(rx_memo_stats(), before);
    assert_eq!(
        (shared.render_misses, shared.render_hits),
        (3, 3 * (N - 1)),
        "the first receiver renders, the rest take a handle"
    );
    for s in &spk {
        assert_eq!(audible(s), source.concat());
    }
}

#[test]
fn encoding_change_renders_a_shared_block_again() {
    // The same audio before and after the stream turns big-endian: the
    // second packet finds the first one's decode — and its
    // little-endian rendering, which must not be what the device gets.
    let (mut rig, spk) = Rig::tuned(2, 59);
    let block = ramp(3_000);
    let payload = Bytes::from(es_audio::convert::encode_samples(
        &block,
        Encoding::Slinear16Le,
    ));
    let before = rx_memo_stats();
    rig.send(G, data(59, 0, 300_000, CodecId::Pcm, payload.clone()));
    rig.run_ms(400);
    let big_endian = AudioConfig {
        encoding: Encoding::Slinear16Be,
        ..AudioConfig::CD
    };
    let now_us = rig.sim.now().as_micros();
    rig.send(G, control(59, now_us, big_endian, CodecId::Pcm));
    rig.send(G, data(59, 1, now_us + 300_000, CodecId::Pcm, payload));
    rig.run_ms(1_000);
    let shared = delta(rx_memo_stats(), before);
    assert_eq!((shared.decode_misses, shared.decode_hits), (1, 3));
    assert_eq!((shared.render_misses, shared.render_hits), (2, 2));
    for s in &spk {
        assert_eq!(audible(s), [&block[..], &block[..]].concat());
    }
}

#[test]
fn tap_hears_what_the_device_encoding_makes_of_the_block() {
    // µ-law is lossy, so what a capturing tap holds is the decode of
    // the device bytes, not the PCM they were rendered from — shared
    // rendering or private.
    let mut rig = Rig::new(LanConfig::default());
    let unity = rig.speakers(2, G);
    let half = rig.speaker_at("half", 0.5);
    let ulaw = AudioConfig {
        encoding: Encoding::ULaw,
        ..AudioConfig::CD
    };
    rig.send(G, control(60, 0, ulaw, CodecId::Pcm));
    rig.sim.run();
    let block = ramp(5_000);
    let payload = es_audio::convert::encode_samples(&block, Encoding::Slinear16Le);
    rig.send(G, data(60, 0, 300_000, CodecId::Pcm, payload.into()));
    rig.run_ms(1_000);
    let through_ulaw = |pcm: &[i16]| {
        let bytes = es_audio::convert::encode_samples(pcm, Encoding::ULaw);
        es_audio::convert::decode_samples(&bytes, Encoding::ULaw)
    };
    let heard = through_ulaw(&block);
    assert_ne!(heard, block, "lossy");
    for s in &unity {
        assert_eq!(played(s)[..block.len()], heard[..]);
    }
    let mut halved = block.clone();
    es_audio::mix::apply_gain(&mut halved, 0.5);
    assert_eq!(played(&half)[..block.len()], through_ulaw(&halved)[..]);
}

#[test]
fn forged_ovl_sample_count_costs_one_decode_error_and_the_stream_plays_on() {
    // A 6-byte OVL payload claiming 8 channels × 2^24 samples: the
    // decoder must refuse it from the header alone (it used to size a
    // 515 MiB arena first), and the next good packet must play.
    let mut rig = Rig::new(LanConfig::default());
    let spk = rig.speakers(1, G).remove(0);
    rig.send(G, control(57, 0, AudioConfig::CD, CodecId::Ovl));
    rig.sim.run();
    let forged = Bytes::from(vec![8u8, 10, 0, 0, 0, 1]);
    rig.send(G, data(57, 0, 300_000, CodecId::Ovl, forged));
    let samples = ramp(1_000);
    let good = Codecs::new().encode(CodecId::Ovl, &samples, 2, MAX_QUALITY);
    rig.send(G, data(57, 1, 350_000, CodecId::Ovl, good.bytes.into()));
    rig.run_ms(1_000);
    let st = spk.stats();
    assert_eq!(st.decode_errors, 1, "{st:?}");
    assert_eq!(st.samples_played, samples.len() as u64, "{st:?}");
}
