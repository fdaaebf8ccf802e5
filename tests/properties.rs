//! Cross-crate property tests: invariants that must hold for any
//! input, not just the scripted scenarios.

use proptest::prelude::*;

use es_audio::AudioConfig;
use es_rebroadcast::RateLimiter;
use es_sim::{SimDuration, SimTime};
use es_speaker::{decide, ClockSync, PlayDecision};

proptest! {
    /// The rate limiter never schedules sends out of order and never
    /// lets the stream run faster than real time beyond its lead.
    #[test]
    fn rate_limiter_is_monotone_and_bounded(
        chunks in proptest::collection::vec(1_000usize..20_000, 1..100),
        lead_ms in 0u64..500,
    ) {
        let cfg = AudioConfig::CD;
        let mut rl = RateLimiter::with_lead(SimDuration::from_millis(lead_ms));
        let mut last_send = SimTime::ZERO;
        let mut sent_bytes = 0u64;
        let now = SimTime::ZERO; // An infinitely fast producer.
        for &c in &chunks {
            let at = rl.pace(now, &cfg, c);
            // Monotone.
            prop_assert!(at >= last_send, "send times went backwards");
            last_send = at;
            sent_bytes += c as u64;
            // Bounded ahead-of-real-time: by `at`, at most
            // (elapsed + lead) of audio may have left.
            let max_bytes = cfg.bytes_for_nanos(
                at.as_nanos() + SimDuration::from_millis(lead_ms).as_nanos(),
            ) + cfg.bytes_per_frame() as u64 * 2;
            prop_assert!(
                sent_bytes <= max_bytes + c as u64,
                "{} bytes released by {}, budget {}",
                sent_bytes,
                at,
                max_bytes
            );
        }
    }

    /// A paced stream of total duration D finishes within
    /// [D - lead, D]: the 5-minute-song property, generalized.
    #[test]
    fn rate_limiter_total_duration(
        n_chunks in 1usize..200,
        chunk_ms in 10u64..100,
    ) {
        let cfg = AudioConfig::CD;
        let lead = SimDuration::from_millis(100);
        let mut rl = RateLimiter::with_lead(lead);
        let chunk_bytes = cfg.bytes_for_nanos(chunk_ms * 1_000_000) as usize;
        let mut last = SimTime::ZERO;
        for _ in 0..n_chunks {
            last = rl.pace(SimTime::ZERO, &cfg, chunk_bytes);
        }
        let total = cfg.nanos_for_bytes((chunk_bytes * n_chunks) as u64);
        let expect_last = total.saturating_sub(chunk_ms * 1_000_000 + lead.as_nanos());
        prop_assert!(
            last.as_nanos() >= expect_last,
            "last send {} too early for a {}ns stream",
            last,
            total
        );
        prop_assert!(last.as_nanos() <= total, "last send after the stream's own end");
    }

    /// Clock sync: after any history of control packets with bounded
    /// observation error, the offset estimate stays within the error
    /// bound of the true offset.
    #[test]
    fn clock_sync_estimate_stays_bounded(
        true_offset_ms in -10_000i64..10_000,
        errors_us in proptest::collection::vec(0i64..5_000, 1..50),
    ) {
        let mut cs = ClockSync::new();
        for (i, &e) in errors_us.iter().enumerate() {
            // Producer timestamps 1 s apart, based late enough that the
            // local clock never goes negative even at offset -10 s.
            let producer_us = 20_000_000 + (i as u64 + 1) * 1_000_000;
            let local_us = (producer_us as i64 + true_offset_ms * 1_000 + e) as u64;
            cs.on_control(SimTime::from_micros(local_us), producer_us);
        }
        let est = cs.offset_us().expect("synced after ≥1 packet");
        let err = (est - true_offset_ms * 1_000).abs();
        prop_assert!(
            err <= 5_000,
            "estimate off by {err} us with max observation error 5000 us"
        );
    }

    /// The play decision partitions time: exactly one of
    /// sleep/play/discard for every (deadline, now, epsilon), and the
    /// decision respects the boundaries.
    #[test]
    fn play_decision_partition(
        deadline_us in 0u64..10_000_000,
        now_us in 0u64..10_000_000,
        eps_us in 0u64..100_000,
    ) {
        let deadline = SimTime::from_micros(deadline_us);
        let now = SimTime::from_micros(now_us);
        let eps = SimDuration::from_micros(eps_us);
        match decide(deadline, now, eps) {
            PlayDecision::Sleep(d) => {
                prop_assert!(deadline > now);
                prop_assert_eq!(d, deadline - now);
            }
            PlayDecision::PlayNow => {
                prop_assert!(deadline <= now);
                prop_assert!(now - deadline <= eps);
            }
            PlayDecision::Discard { late_by } => {
                prop_assert!(deadline <= now);
                prop_assert!(late_by > eps);
                prop_assert_eq!(late_by, now - deadline);
            }
        }
    }

    /// OVL roundtrip safety: any (short) sample buffer encodes and
    /// decodes without panicking, to the same length, at any quality.
    #[test]
    fn ovl_roundtrip_any_input(
        samples in proptest::collection::vec(i16::MIN..=i16::MAX, 0..2_000),
        quality in 0u8..=10,
    ) {
        let samples = if samples.len() % 2 == 1 {
            samples[..samples.len() - 1].to_vec()
        } else {
            samples
        };
        let codec = es_codec::OvlCodec::new();
        let enc = codec.encode(&samples, 2, quality);
        let mut dec = Vec::new();
        codec.decode_into(&enc.bytes, &mut dec).expect("own output decodes");
        prop_assert_eq!(dec.len(), samples.len());
    }

    /// Packet framing: concatenating any two encoded packets never
    /// parses as a single valid packet (no framing confusion).
    #[test]
    fn packet_concatenation_rejected(
        a_payload in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
        b_payload in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
    ) {
        use bytes::Bytes;
        let mk = |seq: u32, payload: Vec<u8>| {
            es_proto::encode_data(&es_proto::DataPacket {
                stream_id: 1,
                seq,
                play_at_us: 0,
                codec: 0,
                payload: Bytes::from(payload),
            })
        };
        let a = mk(1, a_payload);
        let b = mk(2, b_payload);
        let mut cat = a.to_vec();
        cat.extend_from_slice(&b);
        prop_assert!(es_proto::decode(&cat).is_err());
    }

    /// A LAN with zero jitter and zero loss is FIFO: for any packet
    /// count and spacing, every receiver sees the sender's exact order
    /// at monotonically non-decreasing times.
    #[test]
    fn clean_lan_is_fifo(
        n in 1u64..120,
        spacing_us in 1u64..2_000,
        payload_len in 1usize..800,
    ) {
        use bytes::Bytes;
        use es_net::{Lan, LanConfig, McastGroup};
        use es_sim::Sim;
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut sim = Sim::new(7);
        let lan = Lan::new(LanConfig::default());
        let tx = lan.attach("tx");
        let rx = lan.attach("rx");
        let g = McastGroup(0);
        lan.join(rx, g);
        let log: Rc<RefCell<Vec<(es_sim::SimTime, u64)>>> =
            Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        lan.set_handler(rx, move |sim, dg| {
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&dg.payload[..8]);
            l.borrow_mut().push((sim.now(), u64::from_le_bytes(tag)));
        });
        for i in 0..n {
            let lan2 = lan.clone();
            sim.schedule_at(es_sim::SimTime::from_micros(i * spacing_us), move |sim| {
                let mut payload = i.to_le_bytes().to_vec();
                payload.resize(8 + payload_len, 0xAB);
                lan2.multicast(sim, tx, g, Bytes::from(payload));
            });
        }
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len() as u64, n, "every packet delivered");
        let mut last_at = es_sim::SimTime::ZERO;
        for (i, (at, tag)) in log.iter().enumerate() {
            prop_assert_eq!(*tag, i as u64, "delivery order broke FIFO");
            prop_assert!(*at >= last_at, "delivery times went backwards");
            last_at = *at;
        }
    }

    /// Under arbitrary duplication the speaker plays each packet
    /// timestamp exactly once: duplicates are dropped and counted, and
    /// audio is never doubled.
    #[test]
    fn duplicated_timestamps_play_once(
        copies in proptest::collection::vec(1usize..4, 1..30),
    ) {
        use bytes::Bytes;
        use es_audio::{AudioConfig, Encoding};
        use es_net::{Lan, LanConfig, McastGroup};
        use es_codec::CodecId;
        use es_proto::{encode_control, encode_data, ControlPacket, DataPacket};
        use es_sim::Sim;
        use es_speaker::{EthernetSpeaker, SpeakerConfig};

        let mut sim = Sim::new(5);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        lan.multicast(
            &mut sim,
            producer,
            g,
            encode_control(&ControlPacket {
                stream_id: 1,
                seq: 0,
                producer_time_us: 0,
                config: AudioConfig::CD,
                codec: CodecId::Pcm.to_wire(),
                quality: 0,
                control_interval_ms: 500,
                flags: 0,
            }),
        );
        sim.run();

        // Each timestamp goes out 1–3 times back to back: the LAN
        // duplication impairment as seen from the receiver.
        const FRAMES: usize = 2_205; // 50 ms of CD audio
        for (seq, &n_copies) in copies.iter().enumerate() {
            let play_at_us = 300_000 + seq as u64 * 50_000;
            let samples = vec![1_000i16; FRAMES * 2];
            let pkt = encode_data(&DataPacket {
                stream_id: 1,
                seq: seq as u32,
                play_at_us,
                codec: CodecId::Pcm.to_wire(),
                payload: Bytes::from(es_audio::convert::encode_samples(
                    &samples,
                    Encoding::Slinear16Le,
                )),
            });
            for _ in 0..n_copies {
                lan.multicast(&mut sim, producer, g, pkt.clone());
            }
        }
        sim.run_for(SimDuration::from_secs(3));

        let distinct = copies.len() as u64;
        let extras: u64 = copies.iter().map(|&c| c as u64 - 1).sum();
        let st = spk.stats();
        prop_assert_eq!(st.data_packets, distinct, "each timestamp plays exactly once");
        prop_assert_eq!(st.dropped_duplicate, extras, "every extra copy suppressed");
        prop_assert_eq!(
            st.samples_played,
            distinct * (FRAMES as u64) * 2,
            "no doubled audio"
        );
    }

    /// Every session-packet kind round-trips the wire exactly: for
    /// any field values within wire bounds, decode(encode(p)) == p.
    #[test]
    fn session_wire_roundtrips_all_kinds(
        seed in proptest::num::u64::ANY,
        kind in 0u8..8,
    ) {
        let mut r = Rng64(seed);
        let pkt = arb_session_packet(&mut r, kind);
        let enc = es_proto::encode_session(&pkt);
        match es_proto::decode(&enc) {
            Ok(es_proto::Packet::Session(back)) => prop_assert_eq!(back, pkt),
            other => prop_assert!(false, "session frame decoded as {other:?}"),
        }
    }

    /// Truncation safety: every strict prefix of a valid session frame
    /// is rejected with an error — no panic, no partial parse.
    #[test]
    fn session_wire_truncation_always_rejected(
        seed in proptest::num::u64::ANY,
        kind in 0u8..8,
    ) {
        let mut r = Rng64(seed);
        let enc = es_proto::encode_session(&arb_session_packet(&mut r, kind));
        for cut in 0..enc.len() {
            prop_assert!(
                es_proto::decode(&enc[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte {} frame parsed",
                enc.len(),
                kind
            );
        }
    }

    /// Bit-flip safety: CRC-32 catches every single-bit corruption of
    /// a session frame, wherever it lands — decode returns Err, never
    /// panics, never yields a different packet.
    #[test]
    fn session_wire_bitflip_always_rejected(
        seed in proptest::num::u64::ANY,
        kind in 0u8..8,
    ) {
        let mut r = Rng64(seed);
        let enc = es_proto::encode_session(&arb_session_packet(&mut r, kind)).to_vec();
        for byte in 0..enc.len() {
            let mut bad = enc.clone();
            bad[byte] ^= 1 << r.below(8);
            prop_assert!(
                es_proto::decode(&bad).is_err(),
                "flipping a bit of byte {byte} in a {} frame still parsed",
                kind
            );
        }
    }

    /// Parser hardening past the CRC: corrupt one body byte and
    /// *re-seal* the frame with a fresh CRC, so the session-body
    /// parser itself (kind byte, length fields, enum tags, string
    /// lengths) sees the garbage. It may reject or reinterpret, but it
    /// must never panic, and whatever it accepts must re-encode.
    #[test]
    fn session_wire_corrupted_body_never_panics(
        seed in proptest::num::u64::ANY,
        kind in 0u8..8,
        xor in 1u8..=255,
    ) {
        let mut r = Rng64(seed);
        let mut enc = es_proto::encode_session(&arb_session_packet(&mut r, kind)).to_vec();
        let body_len = enc.len() - 4;
        let pos = r.below(body_len as u64) as usize;
        enc[pos] ^= xor;
        let crc = es_proto::crc::crc32(&enc[..body_len]).to_le_bytes();
        enc[body_len..].copy_from_slice(&crc);
        if let Ok(es_proto::Packet::Session(sp)) = es_proto::decode(&enc) {
            // Anything the parser accepts must survive its own encoder.
            let _ = es_proto::encode_session(&sp);
        }
    }

    /// The receiver handshake FSM survives any event sequence: random
    /// time advances interleaved with random (biased-toward-relevant)
    /// packets. Whatever arrives, the client never panics, its phase
    /// and session id stay consistent, everything it sends is a valid
    /// wire frame, and its lifecycle counters match the actions it
    /// emitted.
    #[test]
    fn session_client_fsm_any_event_sequence(
        seed in proptest::num::u64::ANY,
        steps in 40usize..120,
    ) {
        use es_proto::{ClientAction, ClientPhase, SessionPacket};

        let mut r = Rng64(seed);
        let cfg = es_proto::SessionClientConfig::new("fsm-es", "radio");
        let mut client = es_proto::SessionClient::new(cfg);
        let mut now_us = 0u64;
        let (mut established_seen, mut lost_seen) = (0u64, 0u64);
        for _ in 0..steps {
            now_us += r.below(400_000);
            let mut actions = client.poll(now_us);
            if r.below(2) == 0 {
                let kind = r.below(8) as u8;
                let mut pkt = arb_session_packet(&mut r, kind);
                // Half the time, steer the packet at this client so
                // the interesting transitions actually fire.
                match &mut pkt {
                    SessionPacket::Offer { streams, .. } if r.below(2) == 0 => {
                        streams.push(radio_stream_info());
                    }
                    SessionPacket::SetupAck {
                        speaker, stream_id, ..
                    } if r.below(2) == 0 => {
                        *speaker = "fsm-es".into();
                        *stream_id = 1;
                    }
                    SessionPacket::Refuse { speaker, .. } if r.below(2) == 0 => {
                        *speaker = "fsm-es".into();
                    }
                    SessionPacket::Keepalive { session_id }
                    | SessionPacket::Flush { session_id }
                    | SessionPacket::Teardown { session_id, .. }
                        if r.below(2) == 0 =>
                    {
                        if let Some(sid) = client.session_id() {
                            *session_id = sid;
                        }
                    }
                    _ => {}
                }
                actions.extend(client.on_packet(now_us, &pkt));
            }
            for a in &actions {
                match a {
                    ClientAction::Send(p) => {
                        // The client only ever emits decodable frames.
                        let enc = es_proto::encode_session(p);
                        match es_proto::decode(&enc) {
                            Ok(es_proto::Packet::Session(back)) => {
                                prop_assert_eq!(&back, p)
                            }
                            other => prop_assert!(
                                false,
                                "client sent an undecodable frame: {other:?}"
                            ),
                        }
                    }
                    ClientAction::Established { session_id, .. } => {
                        established_seen += 1;
                        prop_assert_eq!(client.session_id(), Some(*session_id));
                    }
                    ClientAction::Lost { .. } => lost_seen += 1,
                    _ => {}
                }
            }
            prop_assert_eq!(
                client.phase() == ClientPhase::Established,
                client.session_id().is_some(),
                "phase and session id disagree"
            );
        }
        prop_assert_eq!(
            client.sessions_established, established_seen,
            "established counter diverged from emitted actions"
        );
        prop_assert_eq!(
            client.sessions_lost, lost_seen,
            "lost counter diverged from emitted actions"
        );
    }

    /// The ramdisk overlay is idempotent and last-writer-wins.
    #[test]
    fn overlay_idempotent(
        files in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(proptest::num::u8::ANY, 0..32)), 0..20),
    ) {
        let mut base = es_boot::RamdiskFs::new();
        base.insert("/etc/common", b"base".to_vec());
        let mut bundle = es_boot::RamdiskFs::new();
        for (name, contents) in &files {
            bundle.insert(format!("/etc/{name}"), contents.clone());
        }
        let mut once = base.clone();
        once.overlay(&bundle);
        let mut twice = once.clone();
        twice.overlay(&bundle);
        prop_assert_eq!(&once, &twice, "overlay must be idempotent");
        // Last writer wins per path (duplicates allowed in the input).
        let mut expect = std::collections::BTreeMap::new();
        for (name, contents) in &files {
            expect.insert(name.clone(), contents.clone());
        }
        for (name, contents) in &expect {
            prop_assert_eq!(once.read(&format!("/etc/{name}")), Some(contents.as_slice()));
        }
        prop_assert!(once.contains("/etc/common"));
    }
}

/// A self-contained SplitMix64 for the session fuzzers: the compat
/// `proptest` draws the seed, this expands it into structured packets
/// (the stand-in has no recursive/enum strategies).
struct Rng64(u64);

impl Rng64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn arb_name(r: &mut Rng64, max_len: u64) -> String {
    (0..r.below(max_len + 1))
        .map(|_| (b'a' + r.below(26) as u8) as char)
        .collect()
}

fn arb_caps(r: &mut Rng64) -> es_proto::Capabilities {
    es_proto::Capabilities {
        codecs: (0..r.below(4)).map(|_| r.next() as u8).collect(),
        sample_rates: (0..r.below(4)).map(|_| r.next() as u32).collect(),
    }
}

fn arb_stream_info(r: &mut Rng64) -> es_proto::StreamInfo {
    es_proto::StreamInfo {
        stream_id: r.next() as u16,
        group: r.next() as u16,
        name: arb_name(r, 12),
        codec: r.next() as u8,
        config: if r.below(2) == 0 {
            AudioConfig::CD
        } else {
            AudioConfig::PHONE
        },
        flags: r.next() as u16,
        caps: arb_caps(r),
    }
}

/// The OFFER entry the FSM fuzzer steers at its client: channel name
/// and codec the client's SETUP will target.
fn radio_stream_info() -> es_proto::StreamInfo {
    es_proto::StreamInfo {
        stream_id: 1,
        group: 7,
        name: "radio".into(),
        codec: 0,
        config: AudioConfig::CD,
        flags: 0,
        caps: es_proto::Capabilities {
            codecs: vec![0],
            sample_rates: vec![44_100],
        },
    }
}

/// One random packet of the requested kind (0..8 = the eight wire
/// kinds), every field drawn within its wire bounds so the result is
/// encodable and must round-trip.
fn arb_session_packet(r: &mut Rng64, kind: u8) -> es_proto::SessionPacket {
    use es_proto::SessionPacket;
    match kind % 8 {
        0 => SessionPacket::Discover {
            seq: r.next() as u32,
            speaker: arb_name(r, 16),
        },
        1 => SessionPacket::Offer {
            seq: r.next() as u32,
            streams: {
                let n = r.below(3);
                (0..n).map(|_| arb_stream_info(r)).collect()
            },
        },
        2 => SessionPacket::Setup {
            speaker: arb_name(r, 16),
            stream_id: r.next() as u16,
            codec: r.next() as u8,
            playout_delay_us: r.next(),
            caps: arb_caps(r),
        },
        3 => SessionPacket::SetupAck {
            session_id: r.next() as u32,
            speaker: arb_name(r, 16),
            stream_id: r.next() as u16,
            group: r.next() as u16,
            codec: r.next() as u8,
            playout_delay_us: r.next(),
        },
        4 => SessionPacket::Refuse {
            speaker: arb_name(r, 16),
            stream_id: r.next() as u16,
            reason: match r.below(4) {
                0 => es_proto::RefuseReason::UnknownStream,
                1 => es_proto::RefuseReason::CodecMismatch,
                2 => es_proto::RefuseReason::RateMismatch,
                _ => es_proto::RefuseReason::TableFull,
            },
        },
        5 => SessionPacket::Keepalive {
            session_id: r.next() as u32,
        },
        6 => SessionPacket::Flush {
            session_id: r.next() as u32,
        },
        _ => SessionPacket::Teardown {
            session_id: r.next() as u32,
            reason: match r.below(2) {
                0 => es_proto::TeardownReason::Requested,
                _ => es_proto::TeardownReason::Expired,
            },
        },
    }
}
