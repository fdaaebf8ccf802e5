//! The producer side of the session control plane as one state
//! machine — the mirror of [`SessionClient`](crate::SessionClient).
//!
//! [`SessionServer`] owns everything a broker decides: the channel
//! line-up it offers, one [`SessionTable`] per stream, the session-id
//! and offer counters, and [`BrokerStats`]. It consumes time and
//! packets (`now_us`, [`SessionPacket`]) and pushes [`ServerAction`]s
//! into a vector the caller owns; the caller owns every clock, socket
//! and log. Two drivers step it: `es_core::SessionBroker` on the
//! simulated LAN and `tests/session_udp.rs` over UDP sockets. The
//! producers themselves keep no per-receiver state (§2.3): a
//! [`ServerAction::Retransmit`] names a stream, and the driver hands it
//! to whichever producer serves that stream *now*.

use crate::packet::StreamInfo;
use crate::session::{
    negotiate, RefuseReason, SessionEntry, SessionPacket, SessionTable, TeardownReason,
    MAX_NACK_RANGES,
};

/// Control-plane counters on the producer side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// NACK PARAMs accepted for a live session and handed to its
    /// stream's retransmit cache.
    pub nacks: u64,
}

/// What the surrounding transport must do in response to an event,
/// in the order it must do it. The first three are the wire; the rest
/// are hooks for whatever record the driver keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAction {
    /// Send to whoever sent the packet being handled.
    Reply(SessionPacket),
    /// Send on the announce group.
    Announce(SessionPacket),
    /// Re-multicast these `(first_seq, count)` ranges — at most
    /// [`MAX_NACK_RANGES`] — from the retransmit cache of the
    /// line-up's `stream`-th entry.
    Retransmit {
        /// Index into the line-up, declaration order.
        stream: usize,
        /// The NACKed ranges.
        ranges: Vec<(u32, u16)>,
    },
    /// A DISCOVER was heard.
    Discovered {
        /// Who is looking.
        speaker: String,
    },
    /// A session was granted and entered its stream's table.
    Opened(SessionEntry),
    /// A session left its table by teardown.
    Closed(SessionEntry),
    /// A session left its table because its keepalives stopped.
    Expired(SessionEntry),
    /// A SETUP was refused.
    Refused {
        /// Who asked.
        speaker: String,
        /// For which stream.
        stream_id: u16,
        /// Why not.
        reason: RefuseReason,
    },
}

/// The producer-side handshake state machine: one per host, serving
/// every stream in its line-up. Pure — the same `(now_us, packet)`
/// sequence yields the same actions and tables.
#[derive(Debug)]
pub struct SessionServer {
    /// The line-up, declaration order; OFFERs list it verbatim.
    streams: Vec<StreamInfo>,
    /// Negotiated receivers, per line-up entry.
    tables: Vec<SessionTable>,
    next_sid: u32,
    offer_seq: u32,
    session_timeout_us: u64,
    stats: BrokerStats,
}

use ServerAction::{Announce, Reply};

impl SessionServer {
    /// A server offering `streams`, expiring sessions silent for longer
    /// than `session_timeout_us`.
    pub fn new(streams: Vec<StreamInfo>, session_timeout_us: u64) -> Self {
        SessionServer {
            tables: streams.iter().map(|_| SessionTable::new()).collect(),
            streams,
            next_sid: 1,
            offer_seq: 0,
            session_timeout_us,
            stats: BrokerStats::default(),
        }
    }

    /// Feeds one received control-plane packet.
    pub fn on_packet(&mut self, now_us: u64, pkt: &SessionPacket, out: &mut Vec<ServerAction>) {
        match pkt {
            SessionPacket::Discover { speaker, .. } => {
                self.stats.discovers += 1;
                self.stats.offers += 1;
                let seq = self.offer_seq;
                self.offer_seq = seq.wrapping_add(1);
                out.push(ServerAction::Discovered {
                    speaker: speaker.clone(),
                });
                out.push(Announce(SessionPacket::Offer {
                    seq,
                    streams: self.streams.clone(),
                }));
            }
            SessionPacket::Setup {
                speaker,
                stream_id,
                codec,
                playout_delay_us,
                caps,
            } => {
                self.stats.setups += 1;
                let (speaker, stream_id) = (speaker.clone(), *stream_id);
                let at = self.streams.iter().position(|s| s.stream_id == stream_id);
                let held = at.ok_or(RefuseReason::UnknownStream).and_then(|i| {
                    // A SETUP retry from a receiver that missed our ACK
                    // must not open a second session: re-grant the one
                    // it already holds.
                    if let Some(held) = self.tables[i].find_by_speaker(&speaker) {
                        return Ok((self.streams[i].group, held.clone()));
                    }
                    let grant = negotiate(&self.streams[i], caps, *codec, *playout_delay_us)?;
                    let entry = SessionEntry {
                        session_id: self.next_sid,
                        speaker: speaker.clone(),
                        stream_id,
                        codec: grant.codec,
                        playout_delay_us: grant.playout_delay_us,
                        opened_at_us: now_us,
                        last_seen_us: now_us,
                    };
                    self.next_sid = self.next_sid.wrapping_add(1);
                    self.tables[i].open(entry.clone());
                    out.push(ServerAction::Opened(entry.clone()));
                    Ok((grant.group, entry))
                });
                let reply = match held {
                    Ok((group, held)) => {
                        self.stats.acks += 1;
                        SessionPacket::SetupAck {
                            session_id: held.session_id,
                            speaker,
                            stream_id,
                            group,
                            codec: held.codec,
                            playout_delay_us: held.playout_delay_us,
                        }
                    }
                    Err(reason) => {
                        self.stats.refusals += 1;
                        out.push(ServerAction::Refused {
                            speaker: speaker.clone(),
                            stream_id,
                            reason,
                        });
                        SessionPacket::Refuse {
                            speaker,
                            stream_id,
                            reason,
                        }
                    }
                };
                out.push(Reply(reply));
            }
            SessionPacket::Keepalive { session_id } => {
                self.stats.keepalives += 1;
                // An id already expired touches nothing: the receiver
                // re-discovers on its own timeout.
                self.tables.iter_mut().any(|t| t.touch(*session_id, now_us));
            }
            SessionPacket::Teardown { session_id, .. } => {
                // Receiver-initiated close.
                if let Some(e) = self.tables.iter_mut().find_map(|t| t.close(*session_id)) {
                    out.push(ServerAction::Closed(e));
                }
            }
            // Receiver→producer PARAMs carry NACKed sequence ranges,
            // for the stream that holds the session.
            SessionPacket::Param {
                session_id, nack, ..
            } if !nack.is_empty() => {
                let holder = |t: &SessionTable| t.get(*session_id).is_some();
                if let Some(stream) = self.tables.iter().position(holder) {
                    self.stats.nacks += 1;
                    let ranges = nack[..nack.len().min(MAX_NACK_RANGES)].to_vec();
                    out.push(ServerAction::Retransmit { stream, ranges });
                }
            }
            // Producer-originated kinds echoed back — our own PARAMs
            // carry no NACK — or a second producer on the segment: not
            // ours to handle.
            SessionPacket::Param { .. }
            | SessionPacket::Offer { .. }
            | SessionPacket::SetupAck { .. }
            | SessionPacket::Refuse { .. }
            | SessionPacket::Flush { .. } => {}
        }
    }

    /// The timeout-driven expiry sweep: sessions whose keepalives
    /// stopped leave their table and are told so (best-effort — a
    /// receiver that died never hears it, one that was partitioned
    /// re-discovers either way). Call periodically.
    pub fn sweep(&mut self, now_us: u64, out: &mut Vec<ServerAction>) {
        for table in &mut self.tables {
            let dead = table.expire(now_us, self.session_timeout_us);
            self.stats.teardowns += dead.len() as u64;
            let expired = |e: &SessionEntry| teardown(e, TeardownReason::Expired);
            let told: Vec<ServerAction> = dead.iter().map(expired).collect();
            out.extend(dead.into_iter().map(ServerAction::Expired));
            out.extend(told);
        }
    }

    fn sessions(&self) -> impl Iterator<Item = &SessionEntry> {
        self.tables.iter().flat_map(|t| t.iter())
    }

    /// Commands every live session to flush and re-gate on the next
    /// control packet (the producer-side resync after a seek or
    /// restart): one FLUSH per session.
    pub fn flush_all(&mut self, out: &mut Vec<ServerAction>) {
        let before = out.len();
        out.extend(self.sessions().map(|e| {
            Announce(SessionPacket::Flush {
                session_id: e.session_id,
            })
        }));
        self.stats.flushes += (out.len() - before) as u64;
    }

    /// Tears down `speaker`'s session (management-initiated), telling
    /// the receiver why.
    pub fn teardown_speaker(&mut self, speaker: &str, out: &mut Vec<ServerAction>) {
        let held = self.tables.iter_mut().find_map(|t| {
            let id = t.find_by_speaker(speaker)?.session_id;
            t.close(id)
        });
        if let Some(e) = held {
            self.stats.teardowns += 1;
            let told = teardown(&e, TeardownReason::Requested);
            out.extend([ServerAction::Closed(e), told]);
        }
    }

    /// An in-session parameter update (volume in thousandths,
    /// free-form metadata) for `speaker`'s session.
    pub fn update_params(
        &self,
        speaker: &str,
        volume_milli: u16,
        metadata: &str,
        out: &mut Vec<ServerAction>,
    ) {
        if let Some(e) = self.sessions().find(|e| e.speaker == speaker) {
            let pkt = SessionPacket::param_volume(e.session_id, volume_milli, metadata.into());
            out.push(Announce(pkt));
        }
    }

    /// Tells every live session the FEC parity group its stream now
    /// carries (`None` = parity off): one PARAM per session.
    pub fn update_fec(&self, group: Option<u8>, out: &mut Vec<ServerAction>) {
        let param = |e: &SessionEntry| Announce(SessionPacket::param_fec(e.session_id, group));
        out.extend(self.sessions().map(param));
    }

    /// Live sessions across every stream.
    pub fn sessions_active(&self) -> usize {
        self.tables.iter().map(SessionTable::active).sum()
    }

    /// The session table of the line-up's `stream`-th entry.
    pub fn table(&self, stream: usize) -> &SessionTable {
        &self.tables[stream]
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }
}

fn teardown(e: &SessionEntry, reason: TeardownReason) -> ServerAction {
    Announce(SessionPacket::Teardown {
        session_id: e.session_id,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Capabilities, DeviceClass};
    use es_audio::AudioConfig;

    const TIMEOUT_US: u64 = 800_000;

    fn stream(id: u16, name: &str, codecs: &[u8]) -> StreamInfo {
        StreamInfo {
            stream_id: id,
            group: 10 + id,
            name: name.into(),
            codec: codecs[0],
            config: AudioConfig::CD,
            flags: 0,
            caps: Capabilities {
                codecs: codecs.to_vec(),
                sample_rates: vec![44_100],
                device_class: DeviceClass::Standard,
            },
        }
    }

    /// "radio" (stream 1, PCM or OVL) and "pa" (stream 2, PCM).
    fn server() -> SessionServer {
        let lineup = vec![stream(1, "radio", &[0, 3]), stream(2, "pa", &[0])];
        SessionServer::new(lineup, TIMEOUT_US)
    }

    fn setup(speaker: &str, stream_id: u16, codec: u8) -> SessionPacket {
        SessionPacket::Setup {
            speaker: speaker.into(),
            stream_id,
            codec,
            playout_delay_us: 150_000,
            caps: Capabilities::any(),
        }
    }

    fn step(s: &mut SessionServer, now_us: u64, pkt: &SessionPacket) -> Vec<ServerAction> {
        let mut out = Vec::new();
        s.on_packet(now_us, pkt, &mut out);
        out
    }

    /// SETUPs `speaker` onto `stream_id` and returns the granted id.
    fn join(s: &mut SessionServer, now_us: u64, speaker: &str, stream_id: u16) -> u32 {
        match step(s, now_us, &setup(speaker, stream_id, 0)).last() {
            Some(Reply(SessionPacket::SetupAck { session_id, .. })) => *session_id,
            other => panic!("no grant: {other:?}"),
        }
    }

    fn counts(s: &SessionServer, stream: usize) -> (u64, u64, u64, usize) {
        let t = s.table(stream);
        (t.opened, t.expired, t.closed, t.active())
    }

    fn teardown_of(session_id: u32, reason: TeardownReason) -> ServerAction {
        Announce(SessionPacket::Teardown { session_id, reason })
    }

    #[test]
    fn discover_is_answered_with_the_lineup_and_its_caps() {
        let mut s = server();
        let discover = SessionPacket::Discover {
            seq: 9,
            speaker: "es1".into(),
            caps: Capabilities::any(),
        };
        for seq in 0..2 {
            let out = step(&mut s, 10_000, &discover);
            let [ServerAction::Discovered { speaker }, Announce(SessionPacket::Offer { seq: got, streams })] =
                out.as_slice()
            else {
                panic!("{out:?}");
            };
            assert_eq!((speaker.as_str(), *got), ("es1", seq));
            assert_eq!(streams.len(), 2);
            assert_eq!(streams[0].caps.codecs, vec![0, 3], "caps advertised");
        }
        assert_eq!((s.stats().discovers, s.stats().offers), (2, 2));
    }

    #[test]
    fn setup_grants_once_and_regrants_the_same_session() {
        let mut s = server();
        let out = step(&mut s, 60_000, &setup("es1", 1, 3));
        let [ServerAction::Opened(entry), Reply(ack)] = out.as_slice() else {
            panic!("{out:?}");
        };
        assert_eq!((entry.session_id, entry.opened_at_us), (1, 60_000));
        let granted = SessionPacket::SetupAck {
            session_id: 1,
            speaker: "es1".into(),
            stream_id: 1,
            group: 11,
            codec: 3,
            playout_delay_us: 150_000,
        };
        assert_eq!(*ack, granted);
        // A retry (the ACK was lost) asks for PCM this time: it is
        // re-granted what it holds, and nothing is opened twice.
        assert_eq!(step(&mut s, 120_000, &setup("es1", 1, 0)), [Reply(granted)]);
        assert_eq!(counts(&s, 0), (1, 0, 0, 1));
        assert_eq!((s.stats().setups, s.stats().acks), (2, 2));
        // The same speaker on another stream is another session.
        assert_eq!(join(&mut s, 130_000, "es1", 2), 2);
        assert_eq!(s.sessions_active(), 2);
    }

    #[test]
    fn setups_that_cannot_be_granted_are_refused_with_the_reason() {
        let mut s = server();
        for (pkt, reason) in [
            (setup("es1", 42, 0), RefuseReason::UnknownStream),
            (setup("es1", 2, 3), RefuseReason::CodecMismatch),
        ] {
            let stream_id = pkt.stream_id();
            let refused = ServerAction::Refused {
                speaker: "es1".into(),
                stream_id,
                reason,
            };
            let refuse = SessionPacket::Refuse {
                speaker: "es1".into(),
                stream_id,
                reason,
            };
            assert_eq!(step(&mut s, 0, &pkt), [refused, Reply(refuse)]);
        }
        assert_eq!((s.stats().refusals, s.stats().acks), (2, 0));
        assert_eq!(s.sessions_active(), 0);
    }

    #[test]
    fn silence_past_the_timeout_expires_and_tells_the_receiver() {
        let mut s = server();
        let quiet = join(&mut s, 0, "quiet", 1);
        let alive = join(&mut s, 0, "alive", 1);
        let other = join(&mut s, 0, "other", 2);
        let mut out = Vec::new();
        s.sweep(TIMEOUT_US, &mut out);
        assert!(out.is_empty(), "the boundary is alive: {out:?}");
        for id in [alive, other] {
            assert!(step(
                &mut s,
                TIMEOUT_US,
                &SessionPacket::Keepalive { session_id: id }
            )
            .is_empty());
        }
        s.sweep(TIMEOUT_US + 1, &mut out);
        let [ServerAction::Expired(e), told] = out.as_slice() else {
            panic!("{out:?}");
        };
        assert_eq!((e.session_id, e.speaker.as_str()), (quiet, "quiet"));
        assert_eq!(*told, teardown_of(quiet, TeardownReason::Expired));
        assert_eq!(counts(&s, 0), (2, 1, 0, 1));
        // The other stream's table never noticed.
        assert_eq!(counts(&s, 1), (1, 0, 0, 1));
        assert_eq!((s.stats().keepalives, s.stats().teardowns), (2, 1));
        // A KEEPALIVE for the expired id revives nothing and says
        // nothing: the receiver re-discovers on its own timeout.
        let late = SessionPacket::Keepalive { session_id: quiet };
        assert!(step(&mut s, TIMEOUT_US + 2, &late).is_empty());
        assert_eq!(s.sessions_active(), 2);
    }

    #[test]
    fn each_stream_expires_its_own_in_id_order_hooks_before_packets() {
        let mut s = server();
        let ids: Vec<u32> = [("a", 2), ("b", 1), ("c", 2), ("d", 1)]
            .iter()
            .map(|(name, stream)| join(&mut s, 0, name, *stream))
            .collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        let mut out = Vec::new();
        s.sweep(5 * TIMEOUT_US, &mut out);
        let shape: Vec<(bool, u32)> = out
            .iter()
            .map(|a| match a {
                ServerAction::Expired(e) => (true, e.session_id),
                Announce(SessionPacket::Teardown { session_id, .. }) => (false, *session_id),
                other => panic!("{other:?}"),
            })
            .collect();
        let radio = [(true, 2), (true, 4), (false, 2), (false, 4)];
        let pa = [(true, 1), (true, 3), (false, 1), (false, 3)];
        assert_eq!(shape, [radio, pa].concat());
    }

    #[test]
    fn receiver_teardown_closes_without_a_reply() {
        let mut s = server();
        let id = join(&mut s, 0, "es1", 2);
        let bye = SessionPacket::Teardown {
            session_id: id,
            reason: TeardownReason::Requested,
        };
        let out = step(&mut s, 1, &bye);
        assert!(matches!(out.as_slice(), [ServerAction::Closed(e)] if e.session_id == id));
        assert!(step(&mut s, 2, &bye).is_empty(), "already gone");
        assert_eq!(counts(&s, 1), (1, 0, 1, 0));
        assert_eq!(s.stats().teardowns, 0, "none sent");
    }

    #[test]
    fn nack_param_is_routed_to_the_stream_that_holds_the_session() {
        let mut s = server();
        join(&mut s, 0, "es1", 1);
        let id = join(&mut s, 0, "es2", 2);
        let ranges = vec![(100, 2), (u32::MAX, 3)];
        assert_eq!(
            step(&mut s, 1, &SessionPacket::param_nack(id, ranges.clone())),
            [ServerAction::Retransmit { stream: 1, ranges }]
        );
        // Nobody holds this session; a producer's own PARAM echoed
        // back carries no NACK.
        assert!(step(
            &mut s,
            2,
            &SessionPacket::param_nack(id + 999, vec![(0, 1)])
        )
        .is_empty());
        assert!(step(&mut s, 3, &SessionPacket::param_fec(id, Some(4))).is_empty());
        assert_eq!(s.stats().nacks, 1);
        // More ranges than the wire admits are cut, not served.
        let long = SessionPacket::param_nack(id, vec![(7, u16::MAX); 40]);
        let out = step(&mut s, 4, &long);
        assert!(
            matches!(out.as_slice(), [ServerAction::Retransmit { ranges, .. }] if ranges.len() == MAX_NACK_RANGES)
        );
    }

    #[test]
    fn operator_commands_fan_out_over_live_sessions() {
        let mut s = server();
        let (a, b, c) = (
            join(&mut s, 0, "a", 2),
            join(&mut s, 0, "b", 1),
            join(&mut s, 0, "c", 1),
        );
        let mut out = Vec::new();
        // Line-up order, then id order.
        s.flush_all(&mut out);
        let flush = |session_id| Announce(SessionPacket::Flush { session_id });
        assert_eq!(out, [flush(b), flush(c), flush(a)]);
        assert_eq!(s.stats().flushes, 3);

        out.clear();
        s.update_fec(Some(4), &mut out);
        let fec = |id| Announce(SessionPacket::param_fec(id, Some(4)));
        assert_eq!(out, [fec(b), fec(c), fec(a)]);

        out.clear();
        s.update_params("c", 500, "now playing", &mut out);
        s.update_params("nobody", 500, "", &mut out);
        let param = SessionPacket::param_volume(c, 500, "now playing".into());
        assert_eq!(out, [Announce(param)]);

        out.clear();
        s.teardown_speaker("a", &mut out);
        s.teardown_speaker("a", &mut out);
        let [ServerAction::Closed(e), told] = out.as_slice() else {
            panic!("{out:?}");
        };
        assert_eq!(e.session_id, a);
        assert_eq!(*told, teardown_of(a, TeardownReason::Requested));
        assert_eq!(counts(&s, 1), (1, 0, 1, 0));
        assert_eq!(s.stats().teardowns, 1);

        out.clear();
        s.flush_all(&mut out);
        assert_eq!(out.len(), 2);
    }

    /// An unauthenticated DISCOVER flood reaches `offer_seq`, a SETUP
    /// flood `next_sid`: neither may panic at the wrap.
    #[test]
    fn counters_wrap() {
        let mut s = server();
        s.next_sid = u32::MAX - 1;
        s.offer_seq = u32::MAX - 1;
        let discover = SessionPacket::Discover {
            seq: 0,
            speaker: "es".into(),
            caps: Capabilities::any(),
        };
        for want in [u32::MAX - 1, u32::MAX, 0, 1] {
            let out = step(&mut s, 0, &discover);
            assert!(matches!(out[1], Announce(SessionPacket::Offer { seq, .. }) if seq == want));
            assert_eq!(join(&mut s, 0, &format!("es{want}"), 1), want);
        }
        assert_eq!(s.sessions_active(), 4);
    }
}
