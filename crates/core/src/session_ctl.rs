//! The control plane, wired into the simulator: the producer-side
//! [`SessionBroker`] and the receiver-side [`NegotiatedSpeaker`].
//!
//! Both are thin transport shells around the pure state machines in
//! [`es_proto::session`]: the broker answers DISCOVER with the channel
//! line-up, grants sessions per [`es_proto::negotiate`], keeps each
//! stream's [`es_proto::SessionTable`] fresh from keepalives and
//! sweeps it on a timer; the negotiated speaker drives an
//! [`es_proto::SessionClient`] from a tick timer and applies its
//! actions to a plain [`EthernetSpeaker`] (tune, resync, volume). The
//! speaker itself remains the paper's stateless radio — negotiation is
//! a layer on top, and static `McastGroup` wiring keeps working
//! without it.

use bytes::Bytes;

use es_net::{Datagram, Dest, Lan, McastGroup, NodeId};
use es_proto::{
    encode_session, negotiate, Capabilities, ClientAction, ClientPhase, Packet, RefuseReason,
    SessionClient, SessionClientConfig, SessionEntry, SessionPacket, StreamInfo, TeardownReason,
};
use es_rebroadcast::Rebroadcaster;
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};
use es_speaker::{EthernetSpeaker, SpeakerConfig};
use es_telemetry::{Journal, Registry, Severity, Stamp};

/// Control-plane counters on the producer side.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokerStats {
    /// DISCOVERs heard.
    pub discovers: u64,
    /// OFFERs sent.
    pub offers: u64,
    /// SETUPs heard.
    pub setups: u64,
    /// Sessions granted (SETUP-ACKs sent, including idempotent
    /// re-grants to retrying receivers).
    pub acks: u64,
    /// SETUPs refused.
    pub refusals: u64,
    /// KEEPALIVEs absorbed.
    pub keepalives: u64,
    /// FLUSH packets sent.
    pub flushes: u64,
    /// TEARDOWN packets sent (expiry and requested).
    pub teardowns: u64,
    /// NACK PARAMs heard and routed to a stream's retransmit cache.
    pub nacks: u64,
}

struct BrokerState {
    announce_group: McastGroup,
    /// The line-up, with each stream's rebroadcaster (its session
    /// table lives there). Declaration order; OFFERs list it verbatim.
    streams: Vec<(StreamInfo, Rebroadcaster)>,
    next_sid: u32,
    offer_seq: u32,
    session_timeout: SimDuration,
    journal: Option<Journal>,
    stats: BrokerStats,
}

/// The producer-side control plane: one broker serves every channel
/// on the host.
#[derive(Clone)]
pub struct SessionBroker {
    state: Shared<BrokerState>,
    lan: Lan,
    node: NodeId,
}

impl SessionBroker {
    /// Installs the broker on the producer's LAN node: joins the
    /// announce group, takes over the node's receive handler (the
    /// producer host had none — rebroadcasters only send), and arms
    /// the expiry sweep.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        sim: &mut Sim,
        lan: &Lan,
        node: NodeId,
        announce_group: McastGroup,
        streams: Vec<(StreamInfo, Rebroadcaster)>,
        session_timeout: SimDuration,
        sweep_interval: SimDuration,
        journal: Option<Journal>,
    ) -> SessionBroker {
        lan.join(node, announce_group);
        let state = shared(BrokerState {
            announce_group,
            streams,
            next_sid: 1,
            offer_seq: 0,
            session_timeout,
            journal,
            stats: BrokerStats::default(),
        });
        let broker = SessionBroker {
            state,
            lan: lan.clone(),
            node,
        };
        let b2 = broker.clone();
        lan.set_handler(node, move |sim, dg| b2.on_datagram(sim, dg));
        let b3 = broker.clone();
        let timer = RepeatingTimer::start_with_phase(
            sim,
            sweep_interval,
            SimDuration::from_millis(130),
            move |sim| b3.sweep(sim),
        );
        std::mem::forget(timer);
        broker
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

    fn send_to(&self, sim: &mut Sim, dst: Dest, pkt: &SessionPacket) {
        let bytes = Bytes::from(encode_session(pkt).to_vec());
        self.lan.send(sim, self.node, dst, bytes);
    }

    fn on_datagram(&self, sim: &mut Sim, dg: Datagram) {
        let Ok(Packet::Session(sp)) = es_proto::decode(&dg.payload) else {
            return;
        };
        match sp {
            SessionPacket::Discover { speaker, .. } => {
                let offer = {
                    let mut st = self.state.borrow_mut();
                    st.stats.discovers += 1;
                    st.stats.offers += 1;
                    let seq = st.offer_seq;
                    st.offer_seq += 1;
                    SessionPacket::Offer {
                        seq,
                        streams: st.streams.iter().map(|(info, _)| info.clone()).collect(),
                    }
                };
                self.journal_event(sim, "discover heard", &[("speaker", speaker)]);
                let group = self.state.borrow().announce_group;
                self.send_to(sim, Dest::Multicast(group), &offer);
            }
            SessionPacket::Setup {
                speaker,
                stream_id,
                codec,
                playout_delay_us,
                caps,
            } => {
                self.on_setup(
                    sim,
                    dg.src,
                    speaker,
                    stream_id,
                    codec,
                    playout_delay_us,
                    caps,
                );
            }
            SessionPacket::Keepalive { session_id } => {
                let now_us = sim.now().as_micros();
                let mut st = self.state.borrow_mut();
                st.stats.keepalives += 1;
                for (_, rb) in &st.streams {
                    if rb.touch_session(session_id, now_us) {
                        break;
                    }
                }
            }
            SessionPacket::Teardown { session_id, .. } => {
                // Receiver-initiated close; the entry's removal is
                // journaled by the rebroadcaster.
                let streams: Vec<Rebroadcaster> = self
                    .state
                    .borrow()
                    .streams
                    .iter()
                    .map(|(_, rb)| rb.clone())
                    .collect();
                for rb in streams {
                    if rb.close_session(sim, session_id).is_some() {
                        break;
                    }
                }
            }
            SessionPacket::Param {
                session_id, nack, ..
            } => {
                // Receiver→producer PARAMs carry NACKed sequence
                // ranges; route them to whichever stream holds the
                // session. Producer-originated PARAMs echo back with an
                // empty NACK list and fall through harmlessly.
                if !nack.is_empty() {
                    let rb = self.state.borrow().streams.iter().find_map(|(_, rb)| {
                        rb.session_entries()
                            .iter()
                            .any(|e| e.session_id == session_id)
                            .then(|| rb.clone())
                    });
                    if let Some(rb) = rb {
                        self.state.borrow_mut().stats.nacks += 1;
                        rb.retransmit(sim, &nack);
                    }
                }
            }
            // Producer-originated kinds echoed back (or a second
            // producer on the segment): not ours to handle.
            SessionPacket::Offer { .. }
            | SessionPacket::SetupAck { .. }
            | SessionPacket::Refuse { .. }
            | SessionPacket::Flush { .. } => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_setup(
        &self,
        sim: &mut Sim,
        src: NodeId,
        speaker: String,
        stream_id: u16,
        codec: u8,
        playout_delay_us: u64,
        caps: Capabilities,
    ) {
        self.state.borrow_mut().stats.setups += 1;
        let found = self
            .state
            .borrow()
            .streams
            .iter()
            .find(|(info, _)| info.stream_id == stream_id)
            .map(|(info, rb)| (info.clone(), rb.clone()));
        let Some((info, rb)) = found else {
            self.refuse(sim, src, speaker, stream_id, RefuseReason::UnknownStream);
            return;
        };
        // A SETUP retry from a receiver that missed our ACK must not
        // open a second session: re-grant the one it already holds.
        if let Some(existing) = rb.find_session(&speaker) {
            if existing.stream_id == stream_id {
                self.state.borrow_mut().stats.acks += 1;
                let ack = SessionPacket::SetupAck {
                    session_id: existing.session_id,
                    speaker,
                    stream_id,
                    group: info.group,
                    codec: existing.codec,
                    playout_delay_us: existing.playout_delay_us,
                };
                self.send_to(sim, Dest::Unicast(src), &ack);
                return;
            }
        }
        match negotiate(&info, &caps, codec, playout_delay_us) {
            Ok(grant) => {
                let session_id = {
                    let mut st = self.state.borrow_mut();
                    let sid = st.next_sid;
                    st.next_sid += 1;
                    st.stats.acks += 1;
                    sid
                };
                let now_us = sim.now().as_micros();
                rb.open_session(
                    sim,
                    SessionEntry {
                        session_id,
                        speaker: speaker.clone(),
                        stream_id,
                        codec: grant.codec,
                        playout_delay_us: grant.playout_delay_us,
                        opened_at_us: now_us,
                        last_seen_us: now_us,
                    },
                );
                let ack = SessionPacket::SetupAck {
                    session_id,
                    speaker,
                    stream_id,
                    group: grant.group,
                    codec: grant.codec,
                    playout_delay_us: grant.playout_delay_us,
                };
                self.send_to(sim, Dest::Unicast(src), &ack);
            }
            Err(reason) => self.refuse(sim, src, speaker, stream_id, reason),
        }
    }

    fn refuse(
        &self,
        sim: &mut Sim,
        src: NodeId,
        speaker: String,
        stream_id: u16,
        reason: RefuseReason,
    ) {
        self.state.borrow_mut().stats.refusals += 1;
        self.journal_event(
            sim,
            "setup refused",
            &[
                ("speaker", speaker.clone()),
                ("stream_id", stream_id.to_string()),
                ("reason", reason.to_string()),
            ],
        );
        let pkt = SessionPacket::Refuse {
            speaker,
            stream_id,
            reason,
        };
        self.send_to(sim, Dest::Unicast(src), &pkt);
    }

    /// The timeout-driven expiry sweep: sessions whose keepalives
    /// stopped are dropped from the table and told so (best-effort —
    /// a receiver that died never hears it, one that was partitioned
    /// re-discovers either way).
    fn sweep(&self, sim: &mut Sim) {
        let (streams, timeout_us) = {
            let st = self.state.borrow();
            let rbs: Vec<Rebroadcaster> = st.streams.iter().map(|(_, rb)| rb.clone()).collect();
            (rbs, st.session_timeout.as_micros())
        };
        let now_us = sim.now().as_micros();
        let group = self.state.borrow().announce_group;
        for rb in streams {
            for dead in rb.expire_sessions(sim, now_us, timeout_us) {
                self.state.borrow_mut().stats.teardowns += 1;
                let pkt = SessionPacket::Teardown {
                    session_id: dead.session_id,
                    reason: TeardownReason::Expired,
                };
                self.send_to(sim, Dest::Multicast(group), &pkt);
            }
        }
    }

    /// Commands every live session to flush and re-gate on the next
    /// control packet (the producer-side resync after a seek or
    /// restart).
    pub fn flush_all(&self, sim: &mut Sim) {
        let streams: Vec<Rebroadcaster> = self
            .state
            .borrow()
            .streams
            .iter()
            .map(|(_, rb)| rb.clone())
            .collect();
        let group = self.state.borrow().announce_group;
        let mut flushed = 0u64;
        for rb in streams {
            for e in rb.session_entries() {
                let pkt = SessionPacket::Flush {
                    session_id: e.session_id,
                };
                self.send_to(sim, Dest::Multicast(group), &pkt);
                flushed += 1;
            }
        }
        self.state.borrow_mut().stats.flushes += flushed;
        self.journal_event(sim, "session flush", &[("sessions", flushed.to_string())]);
    }

    /// Tears down `speaker`'s session (management-initiated), telling
    /// the receiver why.
    pub fn teardown_speaker(&self, sim: &mut Sim, speaker: &str) {
        let streams: Vec<Rebroadcaster> = self
            .state
            .borrow()
            .streams
            .iter()
            .map(|(_, rb)| rb.clone())
            .collect();
        let group = self.state.borrow().announce_group;
        for rb in streams {
            if let Some(e) = rb.find_session(speaker) {
                rb.close_session(sim, e.session_id);
                self.state.borrow_mut().stats.teardowns += 1;
                let pkt = SessionPacket::Teardown {
                    session_id: e.session_id,
                    reason: TeardownReason::Requested,
                };
                self.send_to(sim, Dest::Multicast(group), &pkt);
                return;
            }
        }
    }

    /// Sends an in-session parameter update (volume in thousandths,
    /// free-form metadata) to `speaker`'s session.
    pub fn update_params(&self, sim: &mut Sim, speaker: &str, volume_milli: u16, metadata: &str) {
        let session = self
            .state
            .borrow()
            .streams
            .iter()
            .find_map(|(_, rb)| rb.find_session(speaker));
        let group = self.state.borrow().announce_group;
        if let Some(e) = session {
            let pkt = SessionPacket::param_volume(e.session_id, volume_milli, metadata.into());
            self.send_to(sim, Dest::Multicast(group), &pkt);
        }
    }

    /// Announces an FEC parity-group change (the healing plane's
    /// loss-adaptive ladder): applies it to every stream's
    /// rebroadcaster and tells each live session via a PARAM, so
    /// negotiated receivers journal the level they should expect.
    pub fn update_fec(&self, sim: &mut Sim, group: Option<u8>) {
        let streams: Vec<Rebroadcaster> = self
            .state
            .borrow()
            .streams
            .iter()
            .map(|(_, rb)| rb.clone())
            .collect();
        let announce = self.state.borrow().announce_group;
        for rb in streams {
            rb.set_fec_group(sim, group);
            for e in rb.session_entries() {
                let pkt = SessionPacket::param_fec(e.session_id, group);
                self.send_to(sim, Dest::Multicast(announce), &pkt);
            }
        }
    }

    /// Live sessions across every stream.
    pub fn sessions_active(&self) -> usize {
        self.state
            .borrow()
            .streams
            .iter()
            .map(|(_, rb)| rb.sessions_active())
            .sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BrokerStats {
        self.state.borrow().stats
    }

    /// Records broker counters into `registry` under component
    /// `session`.
    pub fn record_telemetry(&self, registry: &mut Registry) {
        let st = self.state.borrow();
        let mut s = registry.component("session");
        s.counter("discovers", st.stats.discovers)
            .counter("offers", st.stats.offers)
            .counter("setups", st.stats.setups)
            .counter("acks", st.stats.acks)
            .counter("refusals", st.stats.refusals)
            .counter("keepalives", st.stats.keepalives)
            .counter("flushes", st.stats.flushes)
            .counter("teardowns", st.stats.teardowns)
            .counter("nacks", st.stats.nacks);
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
    use es_net::LanConfig;
    use es_sim::SimTime;

    /// Broker + bare client rig without audio: exercises the grant,
    /// keepalive and expiry paths end to end over the simulated LAN.
    #[test]
    fn broker_grants_and_expires_sessions() {
        let mut sim = Sim::new(11);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer-host");
        let announce = McastGroup(0);
        // A stream with a live rebroadcaster (its session table).
        let (_slave, master) = es_vad::vad_pair(es_vad::VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let rcfg = es_rebroadcast::RebroadcasterConfig::new(1, McastGroup(5));
        let rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
        let info = stream_info_for(
            1,
            McastGroup(5),
            "radio",
            es_audio::AudioConfig::CD,
            0,
            &es_rebroadcast::CompressionPolicy::paper_default(),
        );
        let broker = SessionBroker::start(
            &mut sim,
            &lan,
            producer,
            announce,
            vec![(info, rb.clone())],
            SimDuration::from_millis(800),
            SimDuration::from_millis(200),
            None,
        );

        // A hand-driven client node.
        let client_node = lan.attach("es1");
        lan.join(client_node, announce);
        let inbox: Shared<Vec<SessionPacket>> = shared(Vec::new());
        let i2 = inbox.clone();
        lan.set_handler(client_node, move |_sim, dg: Datagram| {
            if let Ok(Packet::Session(sp)) = es_proto::decode(&dg.payload) {
                i2.borrow_mut().push(sp);
            }
        });
        let send = move |sim: &mut Sim, lan: &Lan, pkt: &SessionPacket| {
            let bytes = Bytes::from(encode_session(pkt).to_vec());
            lan.send(sim, client_node, Dest::Multicast(announce), bytes);
        };

        // DISCOVER → OFFER with the advertised codec set.
        let l2 = lan.clone();
        sim.schedule_at(SimTime::from_millis(10), move |sim| {
            send(
                sim,
                &l2,
                &SessionPacket::Discover {
                    seq: 0,
                    speaker: "es1".into(),
                    caps: Capabilities::any(),
                },
            );
        });
        sim.run_until(SimTime::from_millis(50));
        let offered = inbox.borrow().clone();
        let Some(SessionPacket::Offer { streams, .. }) = offered.first() else {
            panic!("no offer: {offered:?}");
        };
        assert_eq!(streams.len(), 1);
        assert!(!streams[0].caps.codecs.is_empty(), "caps advertised");

        // SETUP → ACK, session opens.
        let codec = streams[0].caps.codecs[0];
        let l3 = lan.clone();
        sim.schedule_at(SimTime::from_millis(60), move |sim| {
            send(
                sim,
                &l3,
                &SessionPacket::Setup {
                    speaker: "es1".into(),
                    stream_id: 1,
                    codec,
                    playout_delay_us: 150_000,
                    caps: Capabilities::any(),
                },
            );
        });
        sim.run_until(SimTime::from_millis(100));
        let acks: Vec<SessionPacket> = inbox.borrow().clone();
        let sid = acks
            .iter()
            .find_map(|p| match p {
                SessionPacket::SetupAck {
                    session_id,
                    group,
                    playout_delay_us,
                    ..
                } => {
                    assert_eq!(*group, 5);
                    assert_eq!(*playout_delay_us, 150_000);
                    Some(*session_id)
                }
                _ => None,
            })
            .expect("ack");
        assert_eq!(rb.sessions_active(), 1);
        assert_eq!(broker.sessions_active(), 1);

        // A duplicate SETUP re-grants the same session id.
        let l4 = lan.clone();
        sim.schedule_at(SimTime::from_millis(120), move |sim| {
            send(
                sim,
                &l4,
                &SessionPacket::Setup {
                    speaker: "es1".into(),
                    stream_id: 1,
                    codec,
                    playout_delay_us: 150_000,
                    caps: Capabilities::any(),
                },
            );
        });
        sim.run_until(SimTime::from_millis(160));
        let re_acks: Vec<u32> = inbox
            .borrow()
            .iter()
            .filter_map(|p| match p {
                SessionPacket::SetupAck { session_id, .. } => Some(*session_id),
                _ => None,
            })
            .collect();
        assert_eq!(re_acks, vec![sid, sid], "idempotent re-grant");
        assert_eq!(rb.sessions_active(), 1);

        // Silence past the timeout: the sweep expires the session and
        // multicasts TEARDOWN(expired).
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(rb.sessions_active(), 0);
        let torn: Vec<&SessionPacket> = offered.iter().collect();
        drop(torn);
        let saw_teardown = inbox.borrow().iter().any(|p| {
            matches!(
                p,
                SessionPacket::Teardown {
                    reason: TeardownReason::Expired,
                    ..
                }
            )
        });
        assert!(saw_teardown, "expiry must notify the receiver");
        let (opened, expired, closed) = rb.session_counts();
        assert_eq!((opened, expired, closed), (1, 1, 0));
    }

    #[test]
    fn unknown_stream_is_refused() {
        let mut sim = Sim::new(12);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer-host");
        let announce = McastGroup(0);
        let _broker = SessionBroker::start(
            &mut sim,
            &lan,
            producer,
            announce,
            vec![],
            SimDuration::from_secs(1),
            SimDuration::from_millis(500),
            None,
        );
        let client_node = lan.attach("es1");
        lan.join(client_node, announce);
        let inbox: Shared<Vec<SessionPacket>> = shared(Vec::new());
        let i2 = inbox.clone();
        lan.set_handler(client_node, move |_sim, dg: Datagram| {
            if let Ok(Packet::Session(sp)) = es_proto::decode(&dg.payload) {
                i2.borrow_mut().push(sp);
            }
        });
        let l2 = lan.clone();
        sim.schedule_at(SimTime::from_millis(10), move |sim| {
            let pkt = SessionPacket::Setup {
                speaker: "es1".into(),
                stream_id: 42,
                codec: 0,
                playout_delay_us: 0,
                caps: Capabilities::any(),
            };
            let bytes = Bytes::from(encode_session(&pkt).to_vec());
            l2.send(sim, client_node, Dest::Multicast(announce), bytes);
        });
        sim.run_until(SimTime::from_millis(50));
        assert!(inbox.borrow().iter().any(|p| matches!(
            p,
            SessionPacket::Refuse {
                reason: RefuseReason::UnknownStream,
                ..
            }
        )));
    }

    /// A PARAM carrying NACK ranges for an established session is
    /// routed to that stream's rebroadcaster, which re-multicasts the
    /// cached packets; an unknown session id is ignored.
    #[test]
    fn param_nack_routes_to_the_rebroadcaster() {
        let mut sim = Sim::new(13);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer-host");
        let announce = McastGroup(0);
        let data_group = McastGroup(5);
        let (slave, master) = es_vad::vad_pair(es_vad::VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let mut rcfg = es_rebroadcast::RebroadcasterConfig::new(1, data_group);
        rcfg.tx.policy = es_rebroadcast::CompressionPolicy::Never;
        let rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
        let _app = es_rebroadcast::AudioApp::start(
            &mut sim,
            std::rc::Rc::new(slave),
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
        let broker = SessionBroker::start(
            &mut sim,
            &lan,
            producer,
            announce,
            vec![(info, rb.clone())],
            SimDuration::from_secs(10),
            SimDuration::from_millis(500),
            None,
        );

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
        let send = move |sim: &mut Sim, lan: &Lan, pkt: &SessionPacket| {
            let bytes = Bytes::from(encode_session(pkt).to_vec());
            lan.send(sim, client_node, Dest::Multicast(announce), bytes);
        };

        let l2 = lan.clone();
        sim.schedule_at(SimTime::from_millis(10), move |sim| {
            send(
                sim,
                &l2,
                &SessionPacket::Setup {
                    speaker: "es1".into(),
                    stream_id: 1,
                    codec: 0,
                    playout_delay_us: 150_000,
                    caps: Capabilities::any(),
                },
            );
        });
        sim.run_until(SimTime::from_secs(2));
        let sid = inbox
            .borrow()
            .iter()
            .find_map(|p| match p {
                SessionPacket::SetupAck { session_id, .. } => Some(*session_id),
                _ => None,
            })
            .expect("session granted");
        let max_seq = *data_seqs.borrow().iter().max().expect("data flowed");

        // NACK two recent sequences, plus one for a session the broker
        // has never heard of.
        let l3 = lan.clone();
        sim.schedule_at(SimTime::from_millis(2_010), move |sim| {
            send(
                sim,
                &l3,
                &SessionPacket::param_nack(sid, vec![(max_seq - 1, 2)]),
            );
            send(
                sim,
                &l3,
                &SessionPacket::param_nack(sid.wrapping_add(999), vec![(0, 1)]),
            );
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
