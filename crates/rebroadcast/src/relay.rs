//! The segment relay: the "internet radio" hierarchy node (§4.4).
//!
//! The paper's scaling sketch extends the single-segment Ethernet
//! speaker into a tree: the producer multicasts once, campus relays
//! subscribe upstream and re-multicast to their own segment. A
//! [`SegmentRelay`] is that node for the simulator: every datagram it
//! hears upstream goes down at once, as the same bytes, so a hop costs
//! one more wire transit on the relay's own link.
//!
//! It rewrites nothing. A §3.2 speaker maps a deadline onto its clock
//! as `play_at_us + (arrival of control − producer_time_us)`; the hop
//! delays control and data alike, so the speaker's clock offset absorbs
//! the transit. Parity's XOR folds the producer's deadlines, so a block
//! recovered downstream lands on that same timeline.
//!
//! A speaker behind the relay hears its stream's control from the
//! relay, so that is where it sends a NACK. The relay passes a NACK,
//! unchanged, up to the node it last heard that stream's control from,
//! never down; one for a stream it has not heard goes nowhere. Learning
//! that source is the one reason the relay parses what it hears; what
//! does not parse (an authenticated stream) still goes down, as opaque.
//!
//! A relay's fleet is named by its downstream group alone: a speaker
//! behind it tunes there, and nothing else about it changes.

use std::collections::BTreeMap;

use es_net::{Dest, Lan, McastGroup, NodeId};
use es_proto::packet::Packet;
use es_sim::{shared, Shared, Sim};
use es_telemetry::{Registry, Telemetry};

/// How many streams' NACK sources the relay remembers. The stream id
/// is sixteen bits anyone on the upstream group can forge; an upstream
/// group carries one stream, a relay chain a few. A stream past the
/// cap is still forwarded, only its NACKs go nowhere.
const MAX_STREAMS: usize = 16;

/// Static configuration for one segment relay.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// LAN node name (the builder uses `relayN`).
    pub name: String,
    /// Group the relay subscribes to (the producer's, or another
    /// relay's downstream).
    pub upstream: McastGroup,
    /// Group the relay re-multicasts on; its fleet tunes here.
    pub downstream: McastGroup,
}

impl RelayConfig {
    /// A relay forwarding `upstream` onto `downstream`.
    pub fn new(upstream: McastGroup, downstream: McastGroup) -> Self {
        RelayConfig {
            name: "relay".to_string(),
            upstream,
            downstream,
        }
    }
}

/// Forwarding counters for one relay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayStats {
    /// Data packets forwarded.
    pub data_relayed: u64,
    /// Control packets forwarded.
    pub control_relayed: u64,
    /// Parity packets forwarded.
    pub parity_relayed: u64,
    // Always 0 and not recorded: parity is never left stale. Kept only
    // because the frozen `benches/ledger` harness still sums it.
    #[doc(hidden)]
    pub parity_stale: u64,
    /// Session packets (the catalog's OFFERs among them) forwarded, and
    /// NACKs passed upstream.
    pub passthrough: u64,
    /// Datagrams that do not parse, forwarded all the same (e.g. an
    /// authenticated stream's).
    pub opaque: u64,
}

impl Telemetry for RelayStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("relay");
        s.counter("data_relayed", self.data_relayed)
            .counter("control_relayed", self.control_relayed)
            .counter("parity_relayed", self.parity_relayed)
            .counter("passthrough", self.passthrough)
            .counter("opaque", self.opaque);
    }
}

#[derive(Default)]
struct RelayState {
    stats: RelayStats,
    /// Who sent each stream's latest control packet: where its NACKs
    /// go.
    sources: BTreeMap<u16, NodeId>,
}

/// Where the relay sends what it heard.
#[derive(Debug, PartialEq, Eq)]
enum Hop {
    /// Re-multicast it downstream now.
    Down,
    /// A NACK: unicast it, as it came, to this node upstream now.
    Up(NodeId),
    /// Nowhere.
    Drop,
}

/// A running segment relay (cheap cloneable handle).
#[derive(Clone)]
pub struct SegmentRelay {
    state: Shared<RelayState>,
}

impl SegmentRelay {
    /// Attaches a relay to the LAN, joins the upstream group, and
    /// starts forwarding.
    pub fn start(sim: &mut Sim, lan: &Lan, cfg: RelayConfig) -> SegmentRelay {
        let _ = sim; // Attaching is instantaneous; kept for API symmetry.
        assert_ne!(
            cfg.upstream, cfg.downstream,
            "relay would loop: upstream and downstream group are the same"
        );
        let node = lan.attach(cfg.name);
        lan.join(node, cfg.upstream);
        let state = shared(RelayState::default());
        let relay = SegmentRelay {
            state: state.clone(),
        };
        let fwd_lan = lan.clone();
        let downstream = cfg.downstream;
        lan.set_handler(node, move |sim, dg| {
            match route(&state, dg.src, &dg.payload) {
                Hop::Down => fwd_lan.multicast(sim, node, downstream, dg.payload),
                Hop::Up(to) => fwd_lan.send(sim, node, Dest::Unicast(to), dg.payload),
                Hop::Drop => {}
            }
        });
        relay
    }

    /// Forwarding counters so far.
    pub fn stats(&self) -> RelayStats {
        self.state.borrow().stats
    }
}

/// Routes a datagram heard from `src`: a NACK back up to its stream's
/// source, anything else down. A control packet makes `src` its
/// stream's source.
fn route(state: &Shared<RelayState>, src: NodeId, raw: &[u8]) -> Hop {
    let mut st = state.borrow_mut();
    let st = &mut *st;
    let count = match es_proto::packet::decode(raw) {
        Ok(Packet::Nack { stream_id, .. }) => {
            let Some(&up) = st.sources.get(&stream_id) else {
                return Hop::Drop;
            };
            st.stats.passthrough += 1;
            return Hop::Up(up);
        }
        Ok(Packet::Control(c)) => {
            if st.sources.len() < MAX_STREAMS || st.sources.contains_key(&c.stream_id) {
                st.sources.insert(c.stream_id, src);
            }
            &mut st.stats.control_relayed
        }
        Ok(Packet::Data(_)) => &mut st.stats.data_relayed,
        Ok(Packet::Parity(_)) => &mut st.stats.parity_relayed,
        Ok(Packet::Session(_)) => &mut st.stats.passthrough,
        Err(_) => &mut st.stats.opaque,
    };
    *count += 1;
    Hop::Down
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use es_audio::AudioConfig;
    use es_net::{Datagram, LanConfig};
    use es_proto::packet::{
        encode_control, encode_data, encode_nack, encode_parity, ControlPacket, DataPacket,
    };
    use es_proto::{FecRecoverer, ParityAccumulator};
    use es_sim::SimTime;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn control(stream_id: u16, producer_time_us: u64) -> Bytes {
        encode_control(&ControlPacket {
            stream_id,
            seq: 0,
            producer_time_us,
            config: AudioConfig::CD,
            codec: 0,
            quality: 0,
            control_interval_ms: 100,
            flags: 0,
        })
    }

    fn data(seq: u32, play_at_us: u64) -> DataPacket {
        DataPacket {
            stream_id: 1,
            seq,
            play_at_us,
            codec: 0,
            payload: Bytes::from(vec![seq as u8; 4 + seq as usize]),
        }
    }

    /// What one node heard: arrival instant and the buffer itself.
    type Heard = Rc<RefCell<Vec<(SimTime, Bytes)>>>;

    /// A producer node, a relay from group 10 onto group 20, and one
    /// listener on each group.
    struct Rig {
        sim: Sim,
        lan: Lan,
        producer: NodeId,
        relay: SegmentRelay,
        upstream: Heard,
        downstream: Heard,
    }

    impl Rig {
        fn new() -> Rig {
            let mut sim = Sim::new(5);
            let lan = Lan::new(LanConfig::default());
            let producer = lan.attach("producer");
            let relay = SegmentRelay::start(
                &mut sim,
                &lan,
                RelayConfig::new(McastGroup(10), McastGroup(20)),
            );
            let listen = |name: &str, group| {
                let node = lan.attach(name);
                lan.join(node, group);
                let heard = Heard::default();
                let h = heard.clone();
                lan.set_handler(node, move |sim, dg: Datagram| {
                    h.borrow_mut().push((sim.now(), dg.payload));
                });
                heard
            };
            let upstream = listen("beside", McastGroup(10));
            let downstream = listen("behind", McastGroup(20));
            Rig {
                sim,
                lan,
                producer,
                relay,
                upstream,
                downstream,
            }
        }

        /// Multicasts `raw` upstream and runs the hop out.
        fn send(&mut self, raw: &Bytes) {
            self.lan
                .multicast(&mut self.sim, self.producer, McastGroup(10), raw.clone());
            self.sim.run();
        }
    }

    #[test]
    fn relay_forwards_the_datagram_it_heard() {
        let mut rig = Rig::new();
        let parity = {
            let mut acc = ParityAccumulator::new(2);
            acc.absorb(&data(0, 40_000));
            acc.absorb(&data(1, 60_000)).expect("group of two")
        };
        let announce = es_proto::encode_session(&es_proto::SessionPacket::Offer {
            seq: 0,
            streams: Vec::new(),
        });
        let sent = [
            control(1, 1_000),
            encode_data(&data(0, 40_000)),
            encode_parity(&parity),
            announce,
        ];
        for raw in &sent {
            let t0 = rig.sim.now();
            rig.send(raw);
            let (up_at, _) = rig
                .upstream
                .borrow()
                .last()
                .cloned()
                .expect("heard upstream");
            let (down_at, down) = rig.downstream.borrow().last().cloned().expect("went down");
            // The very buffer the producer sent.
            assert_eq!((down.as_ptr(), down.len()), (raw.as_ptr(), raw.len()));
            // Forwarded on arrival: the second hop costs one more wire
            // time and nothing else.
            let wire = up_at.saturating_since(t0);
            assert_eq!(down_at.saturating_since(up_at), wire);
        }
        assert_eq!(rig.downstream.borrow().len(), sent.len());
        let st = rig.relay.stats();
        assert_eq!(
            (
                st.control_relayed,
                st.data_relayed,
                st.parity_relayed,
                st.passthrough
            ),
            (1, 1, 1, 1),
            "{st:?}"
        );
    }

    #[test]
    fn parity_for_data_the_relay_never_saw_recovers_on_the_producer_timeline() {
        let mut rig = Rig::new();
        let (d0, d1) = (data(0, 40_000), data(1, 60_000));
        let mut acc = ParityAccumulator::new(2);
        acc.absorb(&d0);
        let parity = acc.absorb(&d1).expect("group of two");
        // Seq 1 is lost upstream of the relay: only its parity arrives.
        for raw in [control(1, 1_000), encode_data(&d0), encode_parity(&parity)] {
            rig.send(&raw);
        }
        let mut fec = FecRecoverer::new(2);
        let mut played = Vec::new();
        for (_, raw) in rig.downstream.borrow().iter() {
            let rebuilt = match es_proto::packet::decode(raw).expect("forwarded intact") {
                Packet::Data(d) => {
                    played.push((d.seq, d.play_at_us));
                    fec.on_data(&d)
                }
                Packet::Parity(p) => fec.on_parity(&p),
                _ => None,
            };
            played.extend(rebuilt.map(|d| (d.seq, d.play_at_us)));
        }
        // Both on the producer's timeline, so the speaker's clock
        // offset (which absorbed the hop) places them alike.
        assert_eq!(played, [(0, 40_000), (1, 60_000)]);
        assert_eq!(fec.recovered(), 1);
    }

    #[test]
    fn relay_forwards_unparseable_payloads_verbatim() {
        let mut rig = Rig::new();
        let junk = Bytes::from_static(b"not a packet");
        rig.send(&junk);
        let down: Vec<Bytes> = rig
            .downstream
            .borrow()
            .iter()
            .map(|(_, b)| b.clone())
            .collect();
        assert_eq!(down, [junk]);
        assert_eq!(rig.relay.stats().opaque, 1);
        assert_eq!(rig.relay.stats().data_relayed, 0);
    }

    #[test]
    fn forged_stream_ids_cost_at_most_max_streams_sources() {
        let state = shared(RelayState::default());
        let up = Lan::new(LanConfig::default()).attach("up");
        for stream_id in 1..=u16::MAX {
            assert_eq!(route(&state, up, &control(stream_id, 1_000)), Hop::Down);
        }
        let st = state.borrow();
        assert_eq!(st.sources.len(), MAX_STREAMS);
        assert_eq!(st.stats.control_relayed, u64::from(u16::MAX));
    }

    #[test]
    fn a_nack_goes_up_once_to_the_streams_source_and_never_down() {
        let mut sim = Sim::new(5);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let relay = SegmentRelay::start(
            &mut sim,
            &lan,
            RelayConfig::new(McastGroup(10), McastGroup(20)),
        );
        // A speaker behind the relay, and a second one beside it.
        let (speaker, neighbour) = (lan.attach("es1"), lan.attach("es2"));
        let log = |node| {
            let got = Rc::new(RefCell::new(Vec::new()));
            let g = got.clone();
            lan.set_handler(node, move |_sim, dg: Datagram| {
                g.borrow_mut()
                    .push(es_proto::packet::decode(&dg.payload).unwrap());
            });
            got
        };
        let (up, beside) = (log(producer), log(neighbour));
        // The speaker NACKs the node it heard its stream's control from.
        let control_from = Rc::new(Cell::new(None));
        let from = control_from.clone();
        lan.set_handler(speaker, move |_sim, dg: Datagram| from.set(Some(dg.src)));
        for node in [speaker, neighbour] {
            lan.join(node, McastGroup(20));
        }
        lan.multicast(&mut sim, producer, McastGroup(10), control(1, 1_000));
        sim.run();
        let relay_node = control_from.get().expect("control came down");
        // One NACK for the stream it carries, one for a stream it never
        // heard.
        for stream_id in [1, 2] {
            let nack = encode_nack(stream_id, &[(7, 2)]);
            lan.send(&mut sim, speaker, Dest::Unicast(relay_node), nack);
        }
        sim.run();
        let asked = Packet::Nack {
            stream_id: 1,
            ranges: vec![(7, 2)],
        };
        assert_eq!(*up.borrow(), [asked]);
        assert!(
            matches!(beside.borrow()[..], [Packet::Control(_)]),
            "{:?}",
            beside.borrow()
        );
        assert_eq!(relay.stats().passthrough, 1);
    }
}
