//! The producer side of the control plane, wired into the simulator:
//! [`SessionBroker`], and [`stream_info_for`], the line-up entry a
//! channel advertises.
//!
//! The broker is a driver of the pure [`es_proto::SessionServer`] and
//! decides nothing itself: it hands the session packets the producer
//! host hears to the server — line-up, session tables, grants and
//! expiry all live there — arms its sweep timer, and carries each
//! [`ServerAction`] out: packets onto the LAN, hooks into the journal.
//! The receiver side is the speaker itself: an
//! [`es_speaker::EthernetSpeaker`] with
//! [`SpeakerConfig::session`](es_speaker::SpeakerConfig::session) set
//! drives its own [`es_proto::SessionClient`]. Static `McastGroup`
//! wiring keeps working without either.

use es_net::{Dest, Lan, McastGroup, NodeId};
pub use es_proto::BrokerStats;
use es_proto::{
    encode_session, Capabilities, ServerAction, SessionEntry, SessionPacket, SessionServer,
    StreamInfo, SESSION_TIMEOUT_US,
};
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};
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
        RepeatingTimer::start_with_phase(
            sim,
            SWEEP_INTERVAL,
            SimDuration::from_millis(130),
            move |sim| {
                b3.step(sim, None, SessionServer::sweep);
            },
        );
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
        self.lan.send(sim, self.node, dst, encode_session(pkt));
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
        },
    }
}
