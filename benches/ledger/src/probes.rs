//! Per-layer timing probes for the traced pass.
//!
//! Each probe drives one layer's public functions with the datagrams a
//! capture tap recorded during the workload, so the layer sees the
//! workload's real packet mix (payload sizes, codec, parity share)
//! rather than a synthetic one. Every probe runs under its own span of
//! the `replay` root. Layer names are crate names.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use es_audio::gen::{render_interleaved, MultiTone};
use es_codec::{CodecId, Codecs, Encoded, MAX_QUALITY};
use es_core::prelude::*;
use es_core::session_ctl::stream_info_for;
use es_heal::{EpochSample, FleetDetector};
use es_net::NodeId;
use es_proto::auth::{AuthTrailer, StreamSigner, StreamVerifier};
use es_proto::session::{
    encode_session, negotiate, ClientAction, SessionClient, SessionClientConfig,
};
use es_proto::{DataPacket, FecRecoverer, Packet, ParityAccumulator, ParityPacket};
use es_rebroadcast::{RelayConfig, SegmentRelay};
use es_sim::ShardRouter;
use es_vad::{Ioctl, MasterItem, VadMode};

use crate::run::Captured;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Conditions, Workload};

/// Shortest time a micro probe measures for; inputs are replayed
/// whole until it has passed.
const MIN_PROBE: Duration = Duration::from_millis(60);

/// Most captured packets a per-packet micro probe replays per pass
/// (bounds the 300 s `solo` capture; the mix is stationary).
const MAX_PACKETS: usize = 2_000;

/// Events the bare-engine probe pushes through per batch — the order
/// of the pending-event population a fleet keeps in the heap.
const EVENT_BATCH: u64 = 4_096;

/// Most events the bare-engine probe replays.
const MAX_EVENTS: u64 = 2_000_000;

/// Repeats `pass` until [`MIN_PROBE`] of measured time has
/// accumulated and returns the *median pass's* seconds per unit of
/// work, so one preempted pass does not move the figure. A pass
/// reports the units it did and the time they took; its own set-up
/// (building a LAN, attaching a thousand sinks) stays outside.
fn per_unit(mut pass: impl FnMut() -> (u64, Duration)) -> f64 {
    let mut spent = Duration::ZERO;
    let mut rates = Vec::new();
    while spent < MIN_PROBE {
        let (units, took) = pass();
        spent += took;
        rates.push(took.as_secs_f64() / units.max(1) as f64);
    }
    stats::median(&rates).unwrap_or(0.0)
}

/// [`per_unit`] for passes that are all measured work.
fn per_unit_whole(mut pass: impl FnMut() -> u64) -> f64 {
    per_unit(|| {
        let start = Instant::now();
        let units = pass();
        (units, start.elapsed())
    })
}

/// Everything the probes replay, prepared once outside any timing.
struct Replay<'a> {
    w: Workload,
    c: Conditions,
    /// Datagrams on the group speaker 0 listens to.
    listen: Vec<&'a Captured>,
    /// Datagrams on the producer's own (upstream) group.
    upstream: Vec<&'a Captured>,
    /// Data packets among `listen`, parsed.
    data: Vec<DataPacket>,
    channels: u8,
}

/// Runs every probe and returns `layer.metric → value`. `counts` are
/// the run's exact counts (how many events the engine probe replays).
pub fn run_all(
    w: Workload,
    c: Conditions,
    captured: &[Captured],
    counts: &BTreeMap<String, f64>,
    tracer: &mut Tracer,
) -> BTreeMap<String, f64> {
    let root = tracer.begin("replay", None);
    let channel = w.channel(c.quick);
    let on =
        |g: McastGroup| -> Vec<&Captured> { captured.iter().filter(|d| d.group == g).collect() };
    let listen = on(w.listen_group());
    let data: Vec<DataPacket> = listen
        .iter()
        .filter_map(|d| match es_proto::decode(&d.payload) {
            Ok(Packet::Data(p)) => Some(p),
            _ => None,
        })
        .collect();
    let rp = Replay {
        w,
        c,
        upstream: on(channel.group),
        listen,
        data,
        channels: channel.config.channels,
    };
    let parity = rp
        .upstream
        .iter()
        .filter(|d| matches!(es_proto::decode(&d.payload), Ok(Packet::Parity(_))))
        .count();
    let events = counts.get("sim.events").copied().unwrap_or(0.0) as u64;

    // (metric, scale from seconds to the metric's unit, probe)
    let mut encoded = Vec::new();
    let mut trailers = Vec::new();
    let signer = rp.signer();
    let mut out = BTreeMap::new();
    let mut probe = |name: &str, scale: f64, f: &mut dyn FnMut() -> f64| {
        let span = tracer.begin(name, Some(root));
        let v = f() * scale;
        tracer.end(span);
        out.insert(name.to_string(), v);
    };
    probe("sim.event_ns", 1e9, &mut || rp.sim_events(events, 1));
    probe("sim.event_ns_shards4", 1e9, &mut || {
        rp.sim_events(events, 4)
    });
    probe("net.fanout_ns_per_delivery", 1e9, &mut || rp.fanout());
    probe("audio.gen_ms_per_audio_s", 1e3, &mut music_gen);
    probe("audio.convert_ns_per_sample", 1e9, &mut || {
        convert(channel.config)
    });
    probe("vad.block_roundtrip_us", 1e6, &mut || {
        vad_roundtrip(channel.config)
    });
    probe("codec.ovl_encode_ms_per_audio_s", 1e3, &mut || {
        ovl_encode(&mut encoded)
    });
    probe("codec.ovl_decode_ms_per_audio_s", 1e3, &mut || {
        ovl_decode(&encoded)
    });
    probe("codec.decode_wire_us_per_pkt", 1e6, &mut || {
        rp.decode_wire()
    });
    probe("proto.encode_data_ns_per_pkt", 1e9, &mut || {
        rp.encode_data()
    });
    probe("proto.decode_ns_per_pkt", 1e9, &mut || rp.proto_decode());
    probe("proto.auth_sign_us_per_pkt", 1e6, &mut || {
        rp.auth_sign(&signer, &mut trailers)
    });
    probe("proto.auth_verify_us_per_pkt", 1e6, &mut || {
        rp.auth_verify(&signer, &trailers)
    });
    probe("proto.fec_absorb_ns_per_pkt", 1e9, &mut || rp.fec_absorb());
    probe("proto.fec_recover_us_per_pkt", 1e6, &mut || {
        rp.fec_recover()
    });
    probe("proto.session_roundtrip_ns", 1e9, &mut || {
        session_roundtrip(&channel)
    });
    probe("rebroadcast.producer_ms_per_audio_s", 1e3, &mut || {
        rp.producer_only()
    });
    probe("rebroadcast.relay_us_per_pkt", 1e6, &mut || rp.relay());
    probe("speaker.rx_us_per_pkt", 1e6, &mut || rp.speaker_rx());
    probe("telemetry.record_ns_per_op", 1e9, &mut telemetry_record);
    probe("heal.detector_epoch_us", 1e6, &mut || {
        heal_epoch(w.receivers(c.quick))
    });
    tracer.end(root);

    // What the speaker spends outside parse and decode: jitter-buffer
    // scheduling, device writes, its own events.
    let data_share = rp.data.len() as f64 / rp.listen.len().max(1) as f64;
    let self_us = out["speaker.rx_us_per_pkt"]
        - out["proto.decode_ns_per_pkt"] / 1e3
        - out["codec.decode_wire_us_per_pkt"] * data_share;
    out.insert("speaker.self_us_per_pkt".into(), self_us);
    // ProducerStats has no parity counter; the tap's count stands in.
    out.insert("rebroadcast.parity_packets".into(), parity as f64);
    out
}

impl Replay<'_> {
    /// The first [`MAX_PACKETS`] captured data packets.
    fn data(&self) -> &[DataPacket] {
        &self.data[..self.data.len().min(MAX_PACKETS)]
    }

    /// The first [`MAX_PACKETS`] captured listen-group datagrams.
    fn listen(&self) -> &[&Captured] {
        &self.listen[..self.listen.len().min(MAX_PACKETS)]
    }

    /// Schedule + pop of empty events, as many as the workload
    /// processed, through `shards` queue shards. With more than one
    /// shard the events spread over five logical segments (backbone +
    /// four relays) through the router, as the relayed topology does.
    fn sim_events(&self, events: u64, shards: usize) -> f64 {
        let n = events.clamp(EVENT_BATCH, MAX_EVENTS);
        let mut sim = Sim::with_shards(self.c.seed, shards);
        let router = ShardRouter::new();
        let start = Instant::now();
        let mut done = 0u64;
        while done < n {
            let base = sim.now();
            for i in 0..EVENT_BATCH {
                let at = base.saturating_add(SimDuration::from_micros(i % 97));
                if shards > 1 {
                    router.post(&mut sim, (i % 5) as u32, at, |_| {});
                } else {
                    sim.schedule_at(at, |_| {});
                }
            }
            done += sim.run();
        }
        start.elapsed().as_secs_f64() / done as f64
    }

    /// `Lan::multicast` of the captured listen-group datagrams to as
    /// many null handlers as the workload has speakers, under the
    /// workload's `LanConfig`. Seconds per delivery attempt.
    fn fanout(&self) -> f64 {
        let group = self.w.listen_group();
        per_unit(|| {
            let mut sim = Sim::with_shards(self.c.seed, 1);
            let lan = Lan::new(self.w.lan());
            let from = lan.attach("probe-sender");
            for i in 0..self.w.receivers(self.c.quick) {
                let node = lan.attach(format!("sink{i}"));
                lan.join(node, group);
                lan.set_handler(node, |_, dg| {
                    black_box(dg.payload.len());
                });
            }
            let start = Instant::now();
            for d in self.listen() {
                lan.multicast(&mut sim, from, group, d.payload.clone());
                sim.run();
            }
            let spent = start.elapsed();
            let st = lan.stats();
            (st.datagrams_delivered + st.datagrams_lost, spent)
        })
    }

    fn decode_wire(&self) -> f64 {
        let codecs = Codecs::new();
        let mut out = Vec::new();
        per_unit_whole(|| {
            for d in self.data() {
                black_box(
                    codecs
                        .decode_wire_into(d.codec, &d.payload, self.channels, &mut out)
                        .is_ok(),
                );
            }
            self.data().len() as u64
        })
    }

    fn encode_data(&self) -> f64 {
        let mut scratch = BytesMut::new();
        per_unit_whole(|| {
            for d in self.data() {
                scratch.clear();
                es_proto::encode_data_into(d, &mut scratch);
                black_box(scratch.len());
            }
            self.data().len() as u64
        })
    }

    fn proto_decode(&self) -> f64 {
        per_unit_whole(|| {
            for d in self.listen() {
                black_box(es_proto::decode(&d.payload).is_ok());
            }
            self.listen().len() as u64
        })
    }

    /// TESLA chain for the auth probes: four packets per key interval,
    /// disclosure delay 2. Auth is measured by these probes only — a
    /// signed channel with negotiated speakers plays nothing today
    /// (README, known contamination (d)).
    fn signer(&self) -> StreamSigner {
        StreamSigner::new(b"ledger-probe", self.listen().len() as u32 / 4 + 1, 2)
    }

    fn auth_sign(&self, signer: &StreamSigner, trailers: &mut Vec<AuthTrailer>) -> f64 {
        per_unit_whole(|| {
            trailers.clear();
            for (i, d) in self.listen().iter().enumerate() {
                trailers.push(signer.sign(i as u32 / 4 + 1, &d.payload));
            }
            trailers.len() as u64
        })
    }

    fn auth_verify(&self, signer: &StreamSigner, trailers: &[AuthTrailer]) -> f64 {
        per_unit_whole(|| {
            let mut verifier = StreamVerifier::new(signer.anchor());
            let mut released = 0;
            for (d, t) in self.listen().iter().zip(trailers) {
                released += verifier.offer(&d.payload, t).0.len();
            }
            black_box(released);
            trailers.len() as u64
        })
    }

    fn fec_absorb(&self) -> f64 {
        per_unit_whole(|| {
            let mut acc = ParityAccumulator::new(4);
            for d in self.data() {
                black_box(acc.absorb(d).is_some());
            }
            self.data().len() as u64
        })
    }

    /// Every group of four loses its second packet and gets it back
    /// from parity; seconds per recovered packet, group bookkeeping
    /// included.
    fn fec_recover(&self) -> f64 {
        let mut acc = ParityAccumulator::new(4);
        let groups: Vec<(&[DataPacket], ParityPacket)> = self
            .data()
            .chunks_exact(4)
            .filter_map(|g| {
                let parity = g.iter().filter_map(|d| acc.absorb(d)).last()?;
                Some((g, parity))
            })
            .collect();
        per_unit_whole(|| {
            let mut rec = FecRecoverer::new(4);
            for (g, parity) in &groups {
                for (i, d) in g.iter().enumerate() {
                    if i != 1 {
                        black_box(rec.on_data(d).is_some());
                    }
                }
                black_box(rec.on_parity(parity).is_some());
            }
            black_box(rec.recovered());
            groups.len() as u64
        })
    }

    /// The workload's channel with zero speakers: VAD, rate limit,
    /// encode, seal, LAN send — seconds of wall per audio second.
    fn producer_only(&self) -> f64 {
        let mut built = self.w.build(self.c, false);
        let start = Instant::now();
        built
            .sys
            .run_until(SimTime::from_secs(built.stream_secs + 1));
        start.elapsed().as_secs_f64() / built.stream_secs as f64
    }

    /// The captured upstream datagrams, at their captured times, into
    /// a relay nobody listens behind. Seconds per forwarded packet.
    fn relay(&self) -> f64 {
        let group = self.w.channel(self.c.quick).group;
        per_unit(|| {
            let mut sim = Sim::with_shards(self.c.seed, 1);
            let lan = Lan::new(LanConfig::default());
            let from = lan.attach("probe-sender");
            let cfg = RelayConfig::new(group, McastGroup(999));
            let relay = SegmentRelay::start(&mut sim, &lan, cfg);
            schedule(&mut sim, &lan, from, &self.upstream);
            let start = Instant::now();
            sim.run();
            let spent = start.elapsed();
            let st = relay.stats();
            (
                st.data_relayed + st.control_relayed + st.parity_relayed + st.parity_stale,
                spent,
            )
        })
    }

    /// One speaker fed the captured listen-group datagrams at their
    /// captured virtual times, no producer. Seconds per datagram.
    fn speaker_rx(&self) -> f64 {
        let group = self.w.listen_group();
        per_unit(|| {
            let mut sim = Sim::with_shards(self.c.seed, 1);
            let lan = Lan::new(LanConfig::default());
            let from = lan.attach("probe-sender");
            let mut cfg = SpeakerConfig::new("probe", group);
            cfg.conceal_loss = !self.w.clean;
            let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
            schedule(&mut sim, &lan, from, &self.listen);
            let start = Instant::now();
            sim.run();
            (spk.stats().datagrams, start.elapsed())
        })
    }
}

/// Schedules each datagram's multicast at its captured arrival time.
fn schedule(sim: &mut Sim, lan: &Lan, from: NodeId, datagrams: &[&Captured]) {
    for d in datagrams {
        let (lan, payload, group) = (lan.clone(), d.payload.clone(), d.group);
        sim.schedule_at(d.at, move |sim| lan.multicast(sim, from, group, payload));
    }
}

/// The `Source::Music` generator: seconds of wall per audio second of
/// CD stereo. It sits inside every timed region (`Source` has no
/// pre-rendered variant), so its share is reported to be discounted.
fn music_gen() -> f64 {
    let mut sig = MultiTone::music(44_100);
    per_unit_whole(|| {
        black_box(render_interleaved(&mut sig, 2, 44_100).len());
        1
    })
}

/// Sample ↔ byte conversion in the stream's encoding, both directions.
/// Seconds per sample.
fn convert(cfg: AudioConfig) -> f64 {
    let mut sig = MultiTone::music(cfg.sample_rate);
    let samples = render_interleaved(&mut sig, cfg.channels, cfg.sample_rate as usize);
    let (mut bytes, mut back) = (Vec::new(), Vec::new());
    per_unit_whole(|| {
        es_audio::convert::encode_samples_into(&samples, cfg.encoding, &mut bytes);
        es_audio::convert::decode_samples_into(&bytes, cfg.encoding, &mut back);
        black_box(back.len());
        2 * samples.len() as u64
    })
}

/// One 50 ms block: slave `write` → kernel-thread poll → master
/// `read`, in a bare `Sim`. Seconds per block.
fn vad_roundtrip(cfg: AudioConfig) -> f64 {
    let mut sim = Sim::with_shards(1, 1);
    let poll = SimDuration::from_millis(12);
    let (slave, master) = es_vad::vad_pair(VadMode::KernelThread { poll });
    let ready = slave.open().is_ok() && slave.ioctl(&mut sim, Ioctl::SetInfo(cfg)).is_ok();
    assert!(ready, "VAD slave refused the stream configuration");
    let block = vec![0u8; cfg.bytes_for_nanos(50_000_000) as usize];
    per_unit_whole(|| {
        let mut blocks = 0;
        for _ in 0..100 {
            black_box(slave.write(&mut sim, &block).is_ok());
            sim.run_for(SimDuration::from_millis(50));
            blocks += master
                .read(&mut sim, usize::MAX)
                .iter()
                .filter(|i| matches!(i, MasterItem::Audio(_)))
                .count() as u64;
        }
        blocks
    })
}

/// One second of CD-stereo music in the producer's 50 ms blocks.
fn music_blocks() -> Vec<Vec<i16>> {
    let mut sig = MultiTone::music(44_100);
    (0..20)
        .map(|_| render_interleaved(&mut sig, 2, 2_205))
        .collect()
}

/// OVL encode at `MAX_QUALITY`: seconds per audio second. Leaves the
/// encoded blocks in `encoded` for the decode probe.
fn ovl_encode(encoded: &mut Vec<Encoded>) -> f64 {
    let codecs = Codecs::new();
    let blocks = music_blocks();
    per_unit_whole(|| {
        encoded.clear();
        for b in &blocks {
            encoded.push(codecs.encode(CodecId::Ovl, b, 2, MAX_QUALITY));
        }
        1
    })
}

/// OVL decode of what [`ovl_encode`] produced: seconds per audio
/// second.
fn ovl_decode(encoded: &[Encoded]) -> f64 {
    let codecs = Codecs::new();
    let mut out = Vec::new();
    per_unit_whole(|| {
        for e in encoded {
            black_box(
                codecs
                    .decode_into(CodecId::Ovl, &e.bytes, 2, &mut out)
                    .is_ok(),
            );
        }
        1
    })
}

/// One complete handshake through the pure client FSM and the
/// producer's negotiation, every packet crossing the wire codec:
/// DISCOVER → OFFER → SETUP → SETUP_ACK. Seconds per handshake.
fn session_roundtrip(channel: &ChannelSpec) -> f64 {
    let info = stream_info_for(
        channel.stream_id,
        channel.group,
        &channel.name,
        channel.config,
        channel.flags,
        &channel.policy,
    );
    let wire = |p: &SessionPacket| match es_proto::decode(&encode_session(p)) {
        Ok(Packet::Session(s)) => s,
        other => panic!("session packet did not survive the wire: {other:?}"),
    };
    let sent = |actions: Vec<ClientAction>| {
        actions.into_iter().find_map(|a| match a {
            ClientAction::Send(p) => Some(p),
            _ => None,
        })
    };
    per_unit_whole(|| {
        let mut client = SessionClient::new(SessionClientConfig::new("probe", info.name.clone()));
        let discover = sent(client.poll(0)).expect("a fresh client discovers");
        black_box(wire(&discover));
        let offer = wire(&SessionPacket::Offer {
            seq: 1,
            streams: vec![info.clone()],
        });
        let setup = sent(client.on_packet(1, &offer)).expect("the offer names the channel");
        let SessionPacket::Setup {
            speaker,
            stream_id,
            codec,
            playout_delay_us,
            caps,
        } = wire(&setup)
        else {
            panic!("client answered the offer with {setup:?}");
        };
        let grant = negotiate(&info, &caps, codec, playout_delay_us).expect("compatible caps");
        let ack = wire(&SessionPacket::SetupAck {
            session_id: 1,
            speaker,
            stream_id,
            group: grant.group,
            codec: grant.codec,
            playout_delay_us: grant.playout_delay_us,
        });
        black_box(client.on_packet(2, &ack));
        assert_eq!(client.phase(), ClientPhase::Established);
        1
    })
}

/// One counter update through `Registry` → `Scope`, the call every
/// `Telemetry::record` impl makes per field. Seconds per op.
fn telemetry_record() -> f64 {
    let mut reg = Registry::new();
    reg.set_instance("probe");
    per_unit_whole(|| {
        let mut scope = reg.component("speaker");
        for _ in 0..250 {
            scope
                .counter("data_packets", 1)
                .counter("datagrams", 1)
                .counter("samples_played", 1)
                .counter("control_packets", 1);
        }
        1_000
    })
}

/// `FleetDetector` stepped one epoch with `receivers` samples whose
/// loss wanders across the degraded threshold. Seconds per epoch.
fn heal_epoch(receivers: usize) -> f64 {
    let names: Vec<String> = (0..receivers).map(|i| format!("es{i}")).collect();
    let mut det = FleetDetector::new(HealPolicy::default());
    let mut epoch = 0u64;
    per_unit_whole(|| {
        for _ in 0..50 {
            epoch += 1;
            for (i, name) in names.iter().enumerate() {
                let sample = EpochSample {
                    loss_fraction: ((epoch + i as u64) % 11) as f64 / 100.0,
                    ..EpochSample::default()
                };
                det.observe(name, sample);
            }
            black_box(det.end_epoch().len());
        }
        50
    })
}
