//! The control plane, wired into the simulator: the producer-side
//! [`SessionBroker`] and the receiver-side [`NegotiatedSpeaker`].
//!
//! Both are drivers of the pure state machines in [`es_proto`] and
//! decide nothing themselves. The broker decodes what the producer
//! host hears into an [`es_proto::SessionServer`] — line-up, session
//! tables, grants, expiry, NACK routing all live there — arms its
//! sweep timer, and carries each [`ServerAction`] out: packets onto
//! the LAN, hooks into the journal, retransmissions to whichever
//! producer serves the stream now. The negotiated speaker drives an
//! [`es_proto::SessionClient`] from a tick timer and applies its
//! actions to a plain [`EthernetSpeaker`] (tune, resync, volume). The
//! speaker itself remains the paper's stateless radio — negotiation is
//! a layer on top, and static `McastGroup` wiring keeps working
//! without it.

use std::rc::Rc;

use bytes::Bytes;

use es_net::{Dest, Lan, McastGroup, NodeId};
pub use es_proto::BrokerStats;
use es_proto::{
    encode_session, Capabilities, ClientAction, ClientPhase, Packet, ServerAction, SessionClient,
    SessionClientConfig, SessionEntry, SessionPacket, SessionServer, StreamInfo,
};
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};
use es_speaker::{EthernetSpeaker, SpeakerConfig};
use es_telemetry::{Journal, Registry, Severity, Stamp};

use crate::builder::{Producers, SessionSpec};

/// The producer-side control plane: one broker serves every channel
/// on the host. The simulator driver of [`SessionServer`].
#[derive(Clone)]
pub struct SessionBroker {
    server: Shared<SessionServer>,
    /// The line-up's producers, for [`ServerAction::Retransmit`].
    producers: Rc<Producers>,
    journal: Option<Journal>,
    lan: Lan,
    node: NodeId,
    announce_group: McastGroup,
}

impl SessionBroker {
    /// Installs the broker on the producer's LAN node: joins the
    /// announce group, takes over the node's receive handler (the
    /// producer host had none — rebroadcasters only send), and arms
    /// the expiry sweep. `streams` is the line-up, in the order of
    /// `producers`.
    pub(crate) fn start(
        sim: &mut Sim,
        lan: &Lan,
        node: NodeId,
        spec: &SessionSpec,
        streams: Vec<StreamInfo>,
        producers: Rc<Producers>,
        journal: Option<Journal>,
    ) -> SessionBroker {
        lan.join(node, spec.announce_group);
        let broker = SessionBroker {
            server: shared(SessionServer::new(
                streams,
                spec.session_timeout.as_micros(),
            )),
            producers,
            journal,
            lan: lan.clone(),
            node,
            announce_group: spec.announce_group,
        };
        let b2 = broker.clone();
        lan.set_handler(node, move |sim, dg| {
            if let Ok(Packet::Session(sp)) = es_proto::decode(&dg.payload) {
                b2.step(sim, Some(dg.src), |server, now_us, out| {
                    server.on_packet(now_us, &sp, out)
                });
            }
        });
        let b3 = broker.clone();
        let timer = RepeatingTimer::start_with_phase(
            sim,
            spec.sweep_interval,
            SimDuration::from_millis(130),
            move |sim| {
                b3.step(sim, None, SessionServer::sweep);
            },
        );
        std::mem::forget(timer);
        broker
    }

    fn journal(
        &self,
        sim: &Sim,
        severity: Severity,
        component: &str,
        message: &str,
        fields: &[(&str, String)],
    ) {
        if let Some(j) = &self.journal {
            let stamp = Stamp::virtual_ns(sim.now().as_nanos());
            j.emit(stamp, severity, component, message, fields);
        }
    }

    fn send(&self, sim: &mut Sim, dst: Dest, pkt: &SessionPacket) {
        let bytes = Bytes::from(encode_session(pkt).to_vec());
        self.lan.send(sim, self.node, dst, bytes);
    }

    /// Runs one step of the core at the current instant and carries
    /// out what it decided, in order; `from` is who a
    /// [`ServerAction::Reply`] goes back to. Returns the action count.
    fn step(
        &self,
        sim: &mut Sim,
        from: Option<NodeId>,
        step: impl FnOnce(&mut SessionServer, u64, &mut Vec<ServerAction>),
    ) -> usize {
        let mut out = Vec::new();
        let now_us = sim.now().as_micros();
        step(&mut self.server.borrow_mut(), now_us, &mut out);
        let actions = out.len();
        let of = |e: &SessionEntry| {
            vec![
                ("session_id", e.session_id.to_string()),
                ("speaker", e.speaker.clone()),
            ]
        };
        for action in out {
            // A table's lifecycle is journaled beside its stream's
            // producer, where the journal's readers look for it.
            let (severity, component, message, fields) = match action {
                ServerAction::Reply(pkt) => {
                    if let Some(src) = from {
                        self.send(sim, Dest::Unicast(src), &pkt);
                    }
                    continue;
                }
                ServerAction::Announce(pkt) => {
                    self.send(sim, Dest::Multicast(self.announce_group), &pkt);
                    continue;
                }
                ServerAction::Retransmit { stream, ranges } => {
                    self.producers.live(stream).retransmit(sim, &ranges);
                    continue;
                }
                ServerAction::Discovered { speaker } => {
                    let fields = vec![("speaker", speaker)];
                    (Severity::Info, "session", "discover heard", fields)
                }
                ServerAction::Refused {
                    speaker,
                    stream_id,
                    reason,
                } => {
                    let fields = vec![
                        ("speaker", speaker),
                        ("stream_id", stream_id.to_string()),
                        ("reason", reason.to_string()),
                    ];
                    (Severity::Info, "session", "setup refused", fields)
                }
                ServerAction::Opened(e) => {
                    let fields = [of(&e), vec![("stream_id", e.stream_id.to_string())]].concat();
                    (Severity::Info, "rebroadcast", "session opened", fields)
                }
                ServerAction::Closed(e) => {
                    (Severity::Info, "rebroadcast", "session closed", of(&e))
                }
                ServerAction::Expired(e) => {
                    (Severity::Warn, "rebroadcast", "session expired", of(&e))
                }
            };
            self.journal(sim, severity, component, message, &fields);
        }
        actions
    }

    /// Commands every live session to flush and re-gate on the next
    /// control packet (the producer-side resync after a seek or
    /// restart).
    pub fn flush_all(&self, sim: &mut Sim) {
        let flushed = self.step(sim, None, |server, _, out| server.flush_all(out));
        let fields = [("sessions", flushed.to_string())];
        self.journal(sim, Severity::Info, "session", "session flush", &fields);
    }

    /// Tears down `speaker`'s session (management-initiated), telling
    /// the receiver why.
    pub fn teardown_speaker(&self, sim: &mut Sim, speaker: &str) {
        self.step(sim, None, |server, _, out| {
            server.teardown_speaker(speaker, out)
        });
    }

    /// Sends an in-session parameter update (volume in thousandths,
    /// free-form metadata) to `speaker`'s session.
    pub fn update_params(&self, sim: &mut Sim, speaker: &str, volume_milli: u16, metadata: &str) {
        self.step(sim, None, |server, _, out| {
            server.update_params(speaker, volume_milli, metadata, out)
        });
    }

    /// Announces an FEC parity-group change (the healing plane's
    /// loss-adaptive ladder) to each live session via a PARAM, so
    /// negotiated receivers journal the level they should expect.
    /// Setting the level on the producers is the caller's business.
    pub fn update_fec(&self, sim: &mut Sim, group: Option<u8>) {
        self.step(sim, None, |server, _, out| server.update_fec(group, out));
    }

    /// Live sessions across every stream.
    pub fn sessions_active(&self) -> usize {
        self.server.borrow().sessions_active()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BrokerStats {
        self.server.borrow().stats()
    }

    /// Records broker counters into `registry` under component
    /// `session`.
    pub fn record_telemetry(&self, registry: &mut Registry) {
        let stats = self.stats();
        let mut s = registry.component("session");
        s.counter("discovers", stats.discovers)
            .counter("offers", stats.offers)
            .counter("setups", stats.setups)
            .counter("acks", stats.acks)
            .counter("refusals", stats.refusals)
            .counter("keepalives", stats.keepalives)
            .counter("flushes", stats.flushes)
            .counter("teardowns", stats.teardowns)
            .counter("nacks", stats.nacks);
    }

    /// Stream `i`'s session-table lifecycle: `(opened, expired,
    /// closed, active)`.
    pub(crate) fn table_counts(&self, i: usize) -> (u64, u64, u64, usize) {
        let server = self.server.borrow();
        let t = server.table(i);
        (t.opened, t.expired, t.closed, t.active())
    }
}

struct NegState {
    client: SessionClient,
    announce_group: McastGroup,
    journal: Option<Journal>,
    /// Snapshot of the speaker's control-packet counter; growth
    /// between ticks is proof the stream is alive.
    controls_seen: u64,
}

/// A speaker that joins channels by handshake instead of static
/// group wiring. It starts tuned to the announce group, discovers the
/// line-up, negotiates a session and only then tunes to the granted
/// data group; on loss or teardown it falls back to discovery.
#[derive(Clone)]
pub struct NegotiatedSpeaker {
    spk: EthernetSpeaker,
    lan: Lan,
    state: Shared<NegState>,
}

impl NegotiatedSpeaker {
    /// How often the client's timers are advanced. Handshake latency
    /// quantizes to this; correctness does not depend on it.
    pub const TICK: SimDuration = SimDuration::from_millis(100);

    /// Starts the speaker on the announce group and begins discovery.
    /// `cfg.group` is overridden to `announce_group`; everything else
    /// (volume, epsilon, device geometry…) applies as in static mode.
    pub fn start(
        sim: &mut Sim,
        lan: &Lan,
        mut cfg: SpeakerConfig,
        announce_group: McastGroup,
        client_cfg: SessionClientConfig,
        journal: Option<Journal>,
    ) -> NegotiatedSpeaker {
        cfg.group = announce_group;
        let spk = EthernetSpeaker::start(sim, lan, cfg);
        if let Some(j) = &journal {
            spk.set_journal(j.clone());
        }
        let state = shared(NegState {
            client: SessionClient::new(client_cfg),
            announce_group,
            journal,
            controls_seen: 0,
        });
        let ns = NegotiatedSpeaker {
            spk: spk.clone(),
            lan: lan.clone(),
            state,
        };
        let ns2 = ns.clone();
        spk.set_session_handler(move |sim, sp| {
            let now_us = sim.now().as_micros();
            let actions = ns2.state.borrow_mut().client.on_packet(now_us, &sp);
            ns2.apply(sim, actions);
        });
        let ns3 = ns.clone();
        let timer = RepeatingTimer::start_with_phase(
            sim,
            Self::TICK,
            SimDuration::from_millis(10),
            move |sim| ns3.tick(sim),
        );
        std::mem::forget(timer);
        ns
    }

    fn tick(&self, sim: &mut Sim) {
        let now_us = sim.now().as_micros();
        let actions = {
            let mut st = self.state.borrow_mut();
            // Control packets on the data group are liveness: a
            // producer still describing the stream defers the session
            // timeout even if keepalive ACK-ing is quiet.
            let controls = self.spk.stats().control_packets;
            if controls > st.controls_seen {
                st.controls_seen = controls;
                st.client.note_stream_alive(now_us);
            }
            st.client.poll(now_us)
        };
        self.apply(sim, actions);
    }

    fn journal_event(&self, sim: &Sim, message: &'static str, fields: &[(&str, String)]) {
        if let Some(j) = self.state.borrow().journal.clone() {
            j.emit(
                Stamp::virtual_ns(sim.now().as_nanos()),
                Severity::Info,
                "session",
                message,
                fields,
            );
        }
    }

    /// Multicasts a control-plane packet on the announce group.
    fn send(&self, sim: &mut Sim, pkt: &SessionPacket) {
        let announce = self.state.borrow().announce_group;
        let bytes = Bytes::from(encode_session(pkt).to_vec());
        self.lan
            .send(sim, self.spk.node(), Dest::Multicast(announce), bytes);
    }

    /// Lets the speaker ask for the blocks it is missing: each NACK
    /// leaves as a PARAM of the session it holds, which the broker
    /// routes to the stream's retransmit cache. Between sessions there
    /// is nobody to ask.
    pub(crate) fn nack_over_session(&self) {
        let ns = self.clone();
        self.spk.set_nack_handler(move |sim, ranges| {
            if let Some(session_id) = ns.session_id() {
                ns.send(sim, &SessionPacket::param_nack(session_id, ranges.to_vec()));
            }
        });
    }

    fn apply(&self, sim: &mut Sim, actions: Vec<ClientAction>) {
        let announce = self.state.borrow().announce_group;
        for a in actions {
            match a {
                ClientAction::Send(pkt) => self.send(sim, &pkt),
                ClientAction::JoinData(g) => {
                    self.spk.tune(sim, McastGroup(g));
                    // Stay on the control plane: tune() left the
                    // announce group, re-join it.
                    self.lan.join(self.spk.node(), announce);
                }
                ClientAction::LeaveData(_) => {
                    // Tune back to the announce group (drops the data
                    // group and re-gates).
                    self.spk.tune(sim, announce);
                }
                ClientAction::Resync => self.spk.resync(sim),
                ClientAction::SetVolume(v) => self.spk.set_volume(v as f64 / 1_000.0),
                ClientAction::SetFec { group } => {
                    // The speaker adapts to whatever parity packets
                    // arrive; the announcement is journaled so a fleet
                    // operator can correlate level changes.
                    self.journal_event(
                        sim,
                        "fec level announced",
                        &[
                            ("speaker", self.spk.name()),
                            ("group", format!("{group:?}")),
                        ],
                    );
                }
                ClientAction::Established {
                    session_id,
                    stream_id,
                    group,
                    ..
                } => {
                    self.journal_event(
                        sim,
                        "session established",
                        &[
                            ("speaker", self.spk.name()),
                            ("session_id", session_id.to_string()),
                            ("stream_id", stream_id.to_string()),
                            ("group", group.to_string()),
                        ],
                    );
                }
                ClientAction::Lost { session_id } => {
                    self.journal_event(
                        sim,
                        "session lost; rediscovering",
                        &[
                            ("speaker", self.spk.name()),
                            ("session_id", session_id.to_string()),
                        ],
                    );
                }
                ClientAction::Closed { session_id, reason } => {
                    self.journal_event(
                        sim,
                        "session closed",
                        &[
                            ("speaker", self.spk.name()),
                            ("session_id", session_id.to_string()),
                            ("reason", reason.to_string()),
                        ],
                    );
                }
                ClientAction::GaveUp => {
                    self.journal_event(
                        sim,
                        "setup attempts exhausted; rediscovering",
                        &[("speaker", self.spk.name())],
                    );
                }
            }
        }
    }

    /// The underlying speaker (stats, taps, device).
    pub fn speaker(&self) -> &EthernetSpeaker {
        &self.spk
    }

    /// Where the handshake currently stands.
    pub fn phase(&self) -> ClientPhase {
        self.state.borrow().client.phase()
    }

    /// The granted session id, while established.
    pub fn session_id(&self) -> Option<u32> {
        self.state.borrow().client.session_id()
    }

    /// Handshake counters `(discovers, setups, established, lost)`.
    pub fn client_counts(&self) -> (u64, u64, u64, u64) {
        let st = self.state.borrow();
        (
            st.client.discovers_sent,
            st.client.setups_sent,
            st.client.sessions_established,
            st.client.sessions_lost,
        )
    }

    /// Records handshake counters into `registry` under component
    /// `session`.
    pub fn record_telemetry(&self, registry: &mut Registry) {
        let st = self.state.borrow();
        let mut s = registry.component("session");
        s.counter("discovers_sent", st.client.discovers_sent)
            .counter("setups_sent", st.client.setups_sent)
            .counter("sessions_established", st.client.sessions_established)
            .counter("sessions_lost", st.client.sessions_lost);
    }
}

/// Builds the [`StreamInfo`] a channel advertises, deriving the codec
/// set from its compression policy (the capability-advertisement fix:
/// announce entries used to hard-code codec 0).
pub fn stream_info_for(
    stream_id: u16,
    group: McastGroup,
    name: &str,
    config: es_audio::AudioConfig,
    flags: u16,
    policy: &es_rebroadcast::CompressionPolicy,
) -> StreamInfo {
    let (codec, _) = policy.select(&config);
    StreamInfo {
        stream_id,
        group: group.0,
        name: name.into(),
        codec: codec.to_wire(),
        config,
        flags,
        caps: Capabilities {
            codecs: policy.advertised_codecs(&config),
            sample_rates: vec![config.sample_rate],
            device_class: es_proto::DeviceClass::Standard,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_net::{Datagram, LanConfig};
    use es_rebroadcast::{Rebroadcaster, RebroadcasterConfig};
    use es_sim::SimTime;

    /// The protocol is `es_proto::server`'s to test; this is the
    /// driver: a NACK PARAM heard on the announce group comes back out
    /// of the stream's producer as re-multicast data packets.
    #[test]
    fn param_nack_routes_to_the_rebroadcaster() {
        let mut sim = Sim::new(13);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer-host");
        let spec = SessionSpec::new(McastGroup(0)).session_timeout(SimDuration::from_secs(10));
        let (announce, data_group) = (spec.announce_group, McastGroup(5));
        let (slave, master) = es_vad::vad_pair(es_vad::VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let mut rcfg = RebroadcasterConfig::new(1, data_group);
        rcfg.tx.policy = es_rebroadcast::CompressionPolicy::Never;
        let rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
        let _app = es_rebroadcast::AudioApp::start(
            &mut sim,
            Rc::new(slave),
            es_audio::AudioConfig::CD,
            Box::new(es_audio::gen::Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(3),
            es_rebroadcast::AppPacing::RealTime,
        )
        .unwrap();
        let info = stream_info_for(
            1,
            data_group,
            "radio",
            es_audio::AudioConfig::CD,
            0,
            &es_rebroadcast::CompressionPolicy::paper_default(),
        );
        let producers = Rc::new(Producers {
            primaries: vec![rb.clone()],
            standbys: vec![],
        });
        let broker =
            SessionBroker::start(&mut sim, &lan, producer, &spec, vec![info], producers, None);

        let client_node = lan.attach("es1");
        lan.join(client_node, announce);
        lan.join(client_node, data_group);
        let inbox: Shared<Vec<SessionPacket>> = shared(Vec::new());
        let data_seqs: Shared<Vec<u32>> = shared(Vec::new());
        let (i2, d2) = (inbox.clone(), data_seqs.clone());
        lan.set_handler(
            client_node,
            move |_sim, dg: Datagram| match es_proto::decode(&dg.payload) {
                Ok(Packet::Session(sp)) => i2.borrow_mut().push(sp),
                Ok(Packet::Data(d)) => d2.borrow_mut().push(d.seq),
                _ => {}
            },
        );
        let wire = |pkt: &SessionPacket| Bytes::from(encode_session(pkt).to_vec());
        let to_broker = Dest::Multicast(announce);

        let setup = wire(&SessionPacket::Setup {
            speaker: "es1".into(),
            stream_id: 1,
            codec: 0,
            playout_delay_us: 150_000,
            caps: Capabilities::any(),
        });
        let l2 = lan.clone();
        sim.schedule_at(SimTime::from_millis(10), move |sim| {
            l2.send(sim, client_node, to_broker, setup);
        });
        sim.run_until(SimTime::from_secs(2));
        let granted = inbox.borrow().iter().find_map(SessionPacket::session_id);
        let sid = granted.expect("session granted");
        assert_eq!(broker.sessions_active(), 1);
        let max_seq = *data_seqs.borrow().iter().max().expect("data flowed");

        // NACK two recent sequences, plus one for a session the broker
        // has never heard of.
        let ours = wire(&SessionPacket::param_nack(sid, vec![(max_seq - 1, 2)]));
        let nobodys = wire(&SessionPacket::param_nack(sid + 999, vec![(0, 1)]));
        let l3 = lan.clone();
        sim.schedule_at(SimTime::from_millis(2_010), move |sim| {
            l3.send(sim, client_node, to_broker, ours);
            l3.send(sim, client_node, to_broker, nobodys);
        });
        sim.run_until(SimTime::from_millis(2_500));

        assert_eq!(broker.stats().nacks, 1, "unknown session must not route");
        assert_eq!(rb.stats().retransmits_sent, 2);
        let copies = data_seqs
            .borrow()
            .iter()
            .filter(|&&s| s == max_seq - 1)
            .count();
        assert_eq!(copies, 2, "original + retransmission");
    }
}
