//! The segment relay: the "internet radio" hierarchy node (§4.4).
//!
//! The paper's scaling sketch extends the single-segment Ethernet
//! speaker into a tree: the producer multicasts once, campus relays
//! subscribe upstream and re-multicast to their own segment. A
//! [`SegmentRelay`] is that node for the simulator. It joins the
//! upstream group, holds each packet for a fixed window, re-stamps the
//! stream's producer-timeline fields against its own segment clock
//! (arrival + hold), and re-multicasts on the downstream group.
//!
//! Re-stamping keeps the timing contract intact across the hop:
//!
//! - **Control** packets get `producer_time_us += hold`, so a
//!   downstream speaker's clock offset — computed from control arrival
//!   minus the embedded stamp — lands on the relay's delivery timeline,
//!   not the producer's.
//! - **Data** packets get `play_at_us += hold`; together with the
//!   control shift, downstream speakers keep exactly the upstream
//!   slack budget and play one hold window behind the upstream
//!   segment.
//! - **Parity** packets XOR the covered deadlines into one field, so a
//!   uniform shift cannot be applied to the aggregate directly; the
//!   relay remembers the original deadlines of recently forwarded data
//!   packets and re-folds the XOR (`old ^ new` per covered seq). If it
//!   never saw a covered packet (it was lost upstream), the stale term
//!   stays: a downstream FEC recovery then reconstructs the packet
//!   with its *original* deadline — one hold window of lost slack,
//!   counted in [`RelayStats::parity_stale`], never a wrong stream.
//!
//! Announce and session packets are forwarded unchanged (their
//! semantics are producer-relative), and anything that fails to parse
//! — e.g. an authenticated stream, whose trailer the relay cannot
//! re-sign — is forwarded verbatim and counted as opaque.
//!
//! The relay's LAN node is pinned to its segment
//! ([`Lan::set_segment`]), so the upstream hand-off is one
//! cross-segment post into the relay and everything downstream of it
//! stays inside the segment.

use std::collections::BTreeMap;

use es_net::{Lan, McastGroup, NodeId};
use es_proto::packet::{encode_control, encode_data, encode_parity, Packet};
use es_sim::{shared, Shared, Sim, SimDuration};
use es_telemetry::{Registry, Telemetry};

/// How many forwarded data deadlines the relay remembers per stream
/// for parity re-folding; generously above any FEC group size.
const DEADLINE_WINDOW: usize = 256;

/// How many streams get such a window. The stream id is sixteen bits
/// anyone on the upstream group can forge; an upstream group carries
/// one stream, a relay chain a few. Data of a stream past the cap is
/// still re-stamped and forwarded, only its parity stays stale.
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
    /// Logical engine segment of this relay and its fleet.
    pub segment: u32,
    /// Hold window: each packet is forwarded `hold` after arrival and
    /// its timeline fields shifted by the same amount. Small enough to
    /// keep cross-segment playback skew inaudible, large enough to be
    /// a real re-timing boundary.
    pub hold: SimDuration,
}

impl RelayConfig {
    /// A relay forwarding `upstream` onto `downstream` with the
    /// default 2 ms hold, in segment 0.
    pub fn new(upstream: McastGroup, downstream: McastGroup) -> Self {
        RelayConfig {
            name: "relay".to_string(),
            upstream,
            downstream,
            segment: 0,
            hold: SimDuration::from_millis(2),
        }
    }
}

/// Forwarding counters for one relay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayStats {
    /// Data packets re-stamped and forwarded.
    pub data_relayed: u64,
    /// Control packets re-stamped and forwarded.
    pub control_relayed: u64,
    /// Parity packets forwarded with a fully re-folded deadline XOR.
    pub parity_relayed: u64,
    /// Parity packets forwarded with at least one stale (unseen)
    /// deadline term left in the XOR.
    pub parity_stale: u64,
    /// Announce/session packets forwarded unchanged.
    pub passthrough: u64,
    /// Undecodable datagrams forwarded verbatim (e.g. authenticated
    /// streams the relay cannot re-sign).
    pub opaque: u64,
}

impl Telemetry for RelayStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("relay");
        s.counter("data_relayed", self.data_relayed)
            .counter("control_relayed", self.control_relayed)
            .counter("parity_relayed", self.parity_relayed)
            .counter("parity_stale", self.parity_stale)
            .counter("passthrough", self.passthrough)
            .counter("opaque", self.opaque);
    }
}

#[derive(Default)]
struct RelayState {
    stats: RelayStats,
    /// `old ^ shifted` deadline of recently forwarded data packets, per
    /// stream and sequence number: the term that re-folds a parity
    /// packet's deadline XOR onto the relay timeline.
    deadlines: BTreeMap<u16, BTreeMap<u32, u64>>,
}

/// A running segment relay (cheap cloneable handle).
#[derive(Clone)]
pub struct SegmentRelay {
    node: NodeId,
    config_segment: u32,
    state: Shared<RelayState>,
}

impl SegmentRelay {
    /// Attaches a relay to the LAN, pins it to its segment, joins the
    /// upstream group, and starts forwarding.
    pub fn start(sim: &mut Sim, lan: &Lan, cfg: RelayConfig) -> SegmentRelay {
        let _ = sim; // Attaching is instantaneous; kept for API symmetry.
        assert_ne!(
            cfg.upstream, cfg.downstream,
            "relay would loop: upstream and downstream group are the same"
        );
        let node = lan.attach(cfg.name.clone());
        lan.set_segment(node, cfg.segment);
        lan.join(node, cfg.upstream);
        let state = shared(RelayState::default());
        let relay = SegmentRelay {
            node,
            config_segment: cfg.segment,
            state: state.clone(),
        };
        let fwd_lan = lan.clone();
        let hold = cfg.hold;
        let downstream = cfg.downstream;
        lan.set_handler(node, move |sim, dg| {
            let out = restamp(&state, &dg.payload, hold.as_micros());
            let fwd_lan = fwd_lan.clone();
            sim.schedule_in(hold, move |sim| {
                fwd_lan.multicast(sim, node, downstream, out);
            });
        });
        relay
    }

    /// The relay's LAN node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The logical segment this relay (and its fleet) runs in.
    pub fn segment(&self) -> u32 {
        self.config_segment
    }

    /// Forwarding counters so far.
    pub fn stats(&self) -> RelayStats {
        self.state.borrow().stats
    }
}

/// Shifts a packet's producer-timeline fields by `hold_us` and
/// re-encodes it; input that does not parse, or whose stamp is too
/// close to `u64::MAX` to shift (only a forger's), is returned as-is
/// and counted opaque.
fn restamp(state: &Shared<RelayState>, raw: &bytes::Bytes, hold_us: u64) -> bytes::Bytes {
    let mut st = state.borrow_mut();
    let shifted = match es_proto::packet::decode(raw) {
        Ok(Packet::Control(mut c)) => c.producer_time_us.checked_add(hold_us).map(|t| {
            c.producer_time_us = t;
            st.stats.control_relayed += 1;
            encode_control(&c)
        }),
        Ok(Packet::Data(mut d)) => d.play_at_us.checked_add(hold_us).map(|t| {
            if st.deadlines.len() < MAX_STREAMS || st.deadlines.contains_key(&d.stream_id) {
                let window = st.deadlines.entry(d.stream_id).or_default();
                window.insert(d.seq, d.play_at_us ^ t);
                while window.len() > DEADLINE_WINDOW {
                    // Oldest in serial order: the first key past `seq`
                    // while the window straddles the wrap.
                    let past = window.range(d.seq.wrapping_add(1)..).next();
                    let oldest = past.or(window.first_key_value()).map(|(&k, _)| k);
                    oldest.map(|k| window.remove(&k));
                }
            }
            d.play_at_us = t;
            st.stats.data_relayed += 1;
            encode_data(&d)
        }),
        Ok(Packet::Parity(mut p)) => {
            let window = st.deadlines.get(&p.stream_id);
            let mut stale = false;
            for i in 0..u32::from(p.count) {
                match window.and_then(|w| w.get(&p.base_seq.wrapping_add(i))) {
                    Some(&refold) => p.xor_play_at_us ^= refold,
                    None => stale = true,
                }
            }
            if stale {
                st.stats.parity_stale += 1;
            } else {
                st.stats.parity_relayed += 1;
            }
            Some(encode_parity(&p))
        }
        Ok(Packet::Announce(_)) | Ok(Packet::Session(_)) => {
            st.stats.passthrough += 1;
            Some(raw.clone())
        }
        Err(_) => None,
    };
    shifted.unwrap_or_else(|| {
        st.stats.opaque += 1;
        raw.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use es_audio::AudioConfig;
    use es_net::{Datagram, Dest, LanConfig};
    use es_proto::packet::{ControlPacket, DataPacket};
    use es_sim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn data(seq: u32, play_at_us: u64) -> Bytes {
        encode_data(&DataPacket {
            stream_id: 1,
            seq,
            play_at_us,
            codec: 0,
            payload: Bytes::from_static(&[1, 2, 3, 4]),
        })
    }

    /// Builds a producer node, a relay, and a downstream listener;
    /// returns what the listener receives.
    fn relay_rig(hold: SimDuration, send: Vec<Bytes>) -> Vec<(u64, Packet)> {
        let mut sim = Sim::new(5);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let _relay = SegmentRelay::start(&mut sim, &lan, {
            let mut c = RelayConfig::new(McastGroup(10), McastGroup(20));
            c.segment = 3;
            c.hold = hold;
            c
        });
        let listener = lan.attach("listener");
        lan.set_segment(listener, 3);
        lan.join(listener, McastGroup(20));
        let got: Rc<RefCell<Vec<(u64, Packet)>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        lan.set_handler(listener, move |sim, dg| {
            g.borrow_mut().push((
                sim.now().as_micros(),
                es_proto::packet::decode(&dg.payload).unwrap(),
            ));
        });
        for p in send {
            lan.multicast(&mut sim, producer, McastGroup(10), p);
        }
        sim.run();
        let out = got.borrow().clone();
        out
    }

    #[test]
    fn relay_restamps_data_and_control_by_hold() {
        let hold = SimDuration::from_millis(2);
        let control = encode_control(&ControlPacket {
            stream_id: 1,
            seq: 0,
            producer_time_us: 1_000,
            config: AudioConfig::CD,
            codec: 0,
            quality: 0,
            control_interval_ms: 100,
            flags: 0,
        });
        let got = relay_rig(hold, vec![control, data(7, 50_000)]);
        assert_eq!(got.len(), 2);
        match &got[0].1 {
            Packet::Control(c) => assert_eq!(c.producer_time_us, 1_000 + 2_000),
            p => panic!("expected control, got {p:?}"),
        }
        match &got[1].1 {
            Packet::Data(d) => {
                assert_eq!(d.seq, 7);
                assert_eq!(d.play_at_us, 52_000);
                assert_eq!(d.payload.as_ref(), &[1, 2, 3, 4]);
            }
            p => panic!("expected data, got {p:?}"),
        }
        // Forwarded one hold window after arrival.
        assert!(got[0].0 >= 2_000);
    }

    #[test]
    fn relay_refolds_parity_xor_with_shifted_deadlines() {
        let hold = SimDuration::from_millis(2);
        let d0 = 40_000u64;
        let d1 = 60_000u64;
        let parity = encode_parity(&es_proto::fec::ParityPacket {
            stream_id: 1,
            base_seq: 0,
            count: 2,
            xor_play_at_us: d0 ^ d1,
            xor_len: 0,
            xor_codec: 0,
            payload: Bytes::from_static(&[0, 0, 0, 0]),
        });
        let got = relay_rig(hold, vec![data(0, d0), data(1, d1), parity]);
        assert_eq!(got.len(), 3);
        match &got[2].1 {
            Packet::Parity(p) => {
                // XOR of the *shifted* deadlines: recovery downstream
                // reconstructs deadlines on the relay timeline.
                assert_eq!(p.xor_play_at_us, (d0 + 2_000) ^ (d1 + 2_000));
            }
            p => panic!("expected parity, got {p:?}"),
        }
    }

    #[test]
    fn relay_forwards_unparseable_payloads_verbatim() {
        let mut sim = Sim::new(5);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let relay = SegmentRelay::start(
            &mut sim,
            &lan,
            RelayConfig::new(McastGroup(10), McastGroup(20)),
        );
        let listener = lan.attach("listener");
        lan.join(listener, McastGroup(20));
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        lan.set_handler(listener, move |_sim, dg: Datagram| {
            assert!(matches!(dg.dst, Dest::Multicast(McastGroup(20))));
            g.borrow_mut().push(dg.payload.clone());
        });
        let junk = Bytes::from_static(b"not a packet");
        lan.multicast(&mut sim, producer, McastGroup(10), junk.clone());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*got.borrow(), vec![junk]);
        assert_eq!(relay.stats().opaque, 1);
        assert_eq!(relay.stats().data_relayed, 0);
    }
    #[test]
    fn relay_forwards_unshiftable_stamps_verbatim() {
        // A forged deadline or producer time within one hold of
        // `u64::MAX` used to panic a dev build in `+=`.
        let hold = SimDuration::from_millis(2);
        let forged_data = data(3, u64::MAX);
        let forged_control = encode_control(&ControlPacket {
            stream_id: 1,
            seq: 0,
            producer_time_us: u64::MAX - 1_999,
            config: AudioConfig::CD,
            codec: 0,
            quality: 0,
            control_interval_ms: 100,
            flags: 0,
        });
        let state = shared(RelayState::default());
        for forged in [&forged_data, &forged_control] {
            assert_eq!(restamp(&state, forged, hold.as_micros()), *forged);
        }
        assert_eq!(state.borrow().stats.opaque, 2);
        assert_eq!(state.borrow().stats.data_relayed, 0);
        assert!(state.borrow().deadlines.is_empty(), "nothing to re-fold");
        // The last shiftable stamp still shifts.
        let edge = restamp(&state, &data(4, u64::MAX - 2_000), hold.as_micros());
        match es_proto::packet::decode(&edge) {
            Ok(Packet::Data(d)) => assert_eq!(d.play_at_us, u64::MAX),
            p => panic!("expected data, got {p:?}"),
        }
    }

    #[test]
    fn relay_refolds_parity_across_the_sequence_wrap_and_caps_streams() {
        let hold_us = 2_000;
        let state = shared(RelayState::default());
        let (d0, d1) = (40_000u64, 60_000u64);
        // A window already full below the wrap: what it evicts next is
        // its oldest deadline, not its smallest sequence number.
        for back in (1..=DEADLINE_WINDOW as u32).rev() {
            restamp(&state, &data(u32::MAX - back, 0), hold_us);
        }
        restamp(&state, &data(u32::MAX, d0), hold_us);
        restamp(&state, &data(0, d1), hold_us);
        let parity = |stream_id, base_seq| {
            encode_parity(&es_proto::fec::ParityPacket {
                stream_id,
                base_seq,
                count: 2,
                xor_play_at_us: d0 ^ d1,
                xor_len: 0,
                xor_codec: 0,
                payload: Bytes::from_static(&[0, 0, 0, 0]),
            })
        };
        match es_proto::packet::decode(&restamp(&state, &parity(1, u32::MAX), hold_us)) {
            Ok(Packet::Parity(p)) => {
                assert_eq!(p.xor_play_at_us, (d0 + hold_us) ^ (d1 + hold_us))
            }
            p => panic!("expected parity, got {p:?}"),
        }
        assert_eq!(state.borrow().stats.parity_relayed, 1);
        assert_eq!(state.borrow().deadlines[&1].len(), DEADLINE_WINDOW);

        // 65 536 forged stream ids cost MAX_STREAMS windows, and their
        // data is still forwarded.
        let before = state.borrow().stats.data_relayed;
        for stream_id in 2..=u16::MAX {
            let forged = encode_data(&DataPacket {
                stream_id,
                seq: 0,
                play_at_us: d0,
                codec: 0,
                payload: Bytes::from_static(&[9]),
            });
            restamp(&state, &forged, hold_us);
        }
        assert_eq!(state.borrow().deadlines.len(), MAX_STREAMS);
        let forwarded = state.borrow().stats.data_relayed - before;
        assert_eq!(forwarded, u64::from(u16::MAX) - 1);
        restamp(&state, &parity(u16::MAX, 0), hold_us);
        assert_eq!(state.borrow().stats.parity_stale, 1);
    }
}
