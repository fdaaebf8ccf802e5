//! The control plane, wired into the simulator: the producer-side
//! [`SessionBroker`] and the receiver-side [`NegotiatedSpeaker`].
//!
//! Both are drivers of the pure state machines in [`es_proto`] and
//! decide nothing themselves. The broker hands the session packets the
//! producer host hears to an [`es_proto::SessionServer`] — line-up,
//! session tables, grants and expiry all live there — arms its sweep
//! timer, and carries each [`ServerAction`] out: packets onto the LAN,
//! hooks into the journal. The negotiated speaker drives an
//! [`es_proto::SessionClient`] from a tick timer and applies its
//! actions to a plain [`EthernetSpeaker`] (tune, resync, volume). The
//! speaker itself remains the paper's stateless radio — negotiation is
//! a layer on top, and static `McastGroup` wiring keeps working
//! without it.

use bytes::Bytes;

use es_net::{Dest, Lan, McastGroup, NodeId};
pub use es_proto::BrokerStats;
use es_proto::{
    encode_session, Capabilities, ClientAction, ClientPhase, ServerAction, SessionClient,
    SessionClientConfig, SessionEntry, SessionPacket, SessionServer, StreamInfo,
    SESSION_TIMEOUT_US,
};
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};
use es_speaker::{EthernetSpeaker, SpeakerConfig};
use es_telemetry::{Journal, Registry, Severity, Stamp};

use crate::builder::SessionSpec;

/// How often the broker sweeps its tables for expired sessions.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// The producer-side control plane: one broker serves every channel
/// on the host. The simulator driver of [`SessionServer`].
#[derive(Clone)]
pub struct SessionBroker {
    server: Shared<SessionServer>,
    journal: Option<Journal>,
    lan: Lan,
    node: NodeId,
    announce_group: McastGroup,
}

impl SessionBroker {
    /// Installs the broker on the producer's LAN node: joins the
    /// announce group and arms the expiry sweep. The host's receive
    /// handler hands it what it hears through [`Self::on_packet`].
    pub(crate) fn start(
        sim: &mut Sim,
        lan: &Lan,
        node: NodeId,
        spec: &SessionSpec,
        streams: Vec<StreamInfo>,
        journal: Option<Journal>,
    ) -> SessionBroker {
        lan.join(node, spec.announce_group);
        let broker = SessionBroker {
            server: shared(SessionServer::new(streams, SESSION_TIMEOUT_US)),
            journal,
            lan: lan.clone(),
            node,
            announce_group: spec.announce_group,
        };
        let b3 = broker.clone();
        let timer = RepeatingTimer::start_with_phase(
            sim,
            SWEEP_INTERVAL,
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

    /// One session packet the host heard from `from`.
    pub(crate) fn on_packet(&self, sim: &mut Sim, from: NodeId, pkt: &SessionPacket) {
        self.step(sim, Some(from), |server, now_us, out| {
            server.on_packet(now_us, pkt, out)
        });
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
            .counter("teardowns", stats.teardowns);
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
