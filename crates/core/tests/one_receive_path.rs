//! One receive path, two drivers.
//!
//! The simulated speaker and the live speaker both step
//! `es_speaker::SpeakerRx`, so one damaged trace must leave both with
//! the same protocol counters — and live mode, which used to ignore
//! parity packets, must rebuild a block the wire dropped. The trace is
//! a real producer's datagrams with FEC on, re-stamped to start just
//! below the `u32` sequence wrap, then damaged: the first control
//! packet and one data packet removed, another data packet doubled, one
//! datagram corrupted. No socket is involved, so this runs in sandboxes
//! that forbid multicast.

use std::rc::Rc;

use bytes::Bytes;
use es_core::{ChannelSpec, LiveSpeaker, SystemBuilder};
use es_net::{Lan, LanConfig, McastGroup};
use es_proto::{decode, encode_data, encode_parity, Packet};
use es_sim::{shared, Sim, SimDuration, SimTime};
use es_speaker::{EthernetSpeaker, SpeakerConfig};

const G: McastGroup = McastGroup(1);
const FEC_GROUP: u8 = 4;
/// Puts sequence number 0 eight packets below the wrap — two whole
/// parity groups, so the grid the recoverer assumes is kept.
const RESTAMP: u32 = u32::MAX - 7;

/// Two seconds of one channel's datagrams as a listener on the group
/// saw them, each with its arrival time.
fn capture() -> Vec<(SimTime, Bytes)> {
    let mut sys = SystemBuilder::new(19)
        .channel(ChannelSpec::new(1, G, "radio").fec_group(FEC_GROUP))
        .build();
    let heard = shared(Vec::new());
    let tap = sys.lan().attach("tap");
    sys.lan().join(tap, G);
    let log = Rc::clone(&heard);
    sys.lan().set_handler(tap, move |sim, dg| {
        log.borrow_mut().push((sim.now(), dg.payload));
    });
    sys.run_for(SimDuration::from_secs(2));
    let trace = heard.borrow().clone();
    trace
}

/// Moves the stream's sequence space and damages the trace.
fn damage(trace: Vec<(SimTime, Bytes)>) -> Vec<(SimTime, Bytes)> {
    let mut out = Vec::new();
    let (mut controls, mut datas) = (0, 0);
    for (at, raw) in trace {
        match decode(&raw).expect("the producer's own datagram") {
            Packet::Control(_) => {
                controls += 1;
                // Without the first, the data before the second is
                // data nobody can interpret (§2.3).
                if controls > 1 {
                    out.push((at, raw));
                }
            }
            Packet::Data(mut d) => {
                datas += 1;
                d.seq = d.seq.wrapping_add(RESTAMP);
                let raw = encode_data(&d);
                match datas {
                    // Lost on the wire, after the stream is understood
                    // and past the wrap; its group's parity survives.
                    18 => {}
                    21 => out.extend([(at, raw.clone()), (at, raw)]),
                    _ => out.push((at, raw)),
                }
            }
            Packet::Parity(mut p) => {
                p.base_seq = p.base_seq.wrapping_add(RESTAMP);
                out.push((at, encode_parity(&p)));
            }
            other => panic!("unexpected {other:?} on the data group"),
        }
    }
    assert!(controls >= 3 && datas >= 30, "{controls} / {datas}");
    let (at, victim) = out[out.len() / 2].clone();
    let mut corrupt = victim.to_vec();
    corrupt[6] ^= 0xFF;
    out.push((at, Bytes::from(corrupt)));
    out.sort_by_key(|&(at, _)| at);
    out
}

#[test]
fn sim_and_live_drivers_agree_on_a_damaged_trace() {
    let trace = damage(capture());

    // (a) The simulator's driver, fed over a clean LAN.
    let mut sim = Sim::new(1);
    let lan = Lan::new(LanConfig::default());
    let replay = lan.attach("replay");
    let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es", G));
    for (at, raw) in trace.clone() {
        let lan = lan.clone();
        sim.schedule_at(at, move |sim| lan.multicast(sim, replay, G, raw));
    }
    sim.run_for(SimDuration::from_secs(4));
    let a = spk.stats();

    // (b) The live driver, stepped under a fake clock.
    let mut live = LiveSpeaker::default();
    for (at, raw) in &trace {
        live.step(*at, raw);
    }
    let b = live.finish().stats;

    let protocol = |s: &es_speaker::SpeakerStats| {
        [
            s.datagrams,
            s.control_packets,
            s.fec_recovered,
            s.dropped_duplicate,
            s.dropped_waiting_control,
            s.bad_packets,
            s.data_packets,
            s.samples_played,
        ]
    };
    assert_eq!(protocol(&a), protocol(&b), "\n sim: {a:?}\nlive: {b:?}");
    // The damage did what it was meant to, on both.
    assert_eq!(b.fec_recovered, 1, "live mode rebuilt the dropped block");
    assert!(b.dropped_duplicate >= 1 && b.bad_packets == 1, "{b:?}");
    assert!(b.dropped_waiting_control >= 1, "{b:?}");
    assert_eq!(b.dropped_late + b.decode_errors, 0, "{b:?}");
}
