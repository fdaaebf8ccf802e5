//! One speaker, two adapters.
//!
//! The simulated speaker and the live speaker are two adapters of one
//! `es_speaker::SpeakerNode`, so one damaged trace must leave both with
//! the same counters, the same deadline slack and the same audio played
//! in the same order. The trace is a real producer's datagrams with FEC
//! on, re-stamped to start just below the `u32` sequence wrap, then
//! damaged: the first control packet removed (the data before the
//! second is data nobody can interpret), one data packet dropped that
//! its group's parity rebuilds, two dropped from one group that parity
//! cannot rebuild (concealed), another data packet doubled and one
//! datagram corrupted. Both adapters conceal. No socket is involved,
//! so this runs in sandboxes that forbid multicast.

use std::rc::Rc;

use bytes::Bytes;
use es_core::{ChannelSpec, LiveSpeaker, LiveSpeakerReport, SystemBuilder};
use es_net::{Lan, LanConfig, McastGroup};
use es_proto::{decode, encode_data, encode_parity, Packet};
use es_sim::{shared, Sim, SimDuration, SimTime};
use es_speaker::{EthernetSpeaker, SpeakerConfig, SpeakerStats};

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
                    // Two of one later group: beyond what its parity
                    // rebuilds, so each is concealed when due.
                    25 | 26 => {}
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

/// A concealing speaker whose tap keeps what its DAC played.
fn config() -> SpeakerConfig {
    let mut cfg = SpeakerConfig::new("es", G);
    cfg.conceal_loss = true;
    cfg.capture_output = true;
    cfg
}

/// The live adapter, stepped under a fake clock: every wakeup it asks
/// for is served at its instant, before the next arrival.
fn live(trace: &[(SimTime, Bytes)]) -> LiveSpeakerReport {
    let mut live = LiveSpeaker::new(config());
    for (at, raw) in trace {
        while let Some(wake) = live.next_wake().filter(|wake| wake < at) {
            live.wake(wake);
        }
        live.step(*at, raw);
    }
    while let Some(wake) = live.next_wake() {
        live.wake(wake);
    }
    live.finish()
}

/// Leaves out the counts only a device keeps.
fn node_side(stats: SpeakerStats) -> SpeakerStats {
    SpeakerStats {
        // Bytes a full device ring refused: the live adapter has no
        // ring, it keeps everything it is handed.
        dropped_overflow_bytes: 0,
        // Re-anchorings of the device's DMA grid: the live adapter
        // has no grid to fall behind.
        playback_resyncs: 0,
        ..stats
    }
}

/// Audio without the silence a device plays between and around the
/// blocks it is handed (the same filter applied to both sides, so a
/// zero sample inside a block is dropped from both).
fn audible(samples: &[i16]) -> Vec<i16> {
    samples.iter().copied().filter(|&s| s != 0).collect()
}

#[test]
fn sim_and_live_adapters_play_a_damaged_trace_alike() {
    let trace = damage(capture());

    // (a) The simulator's adapter, fed over a clean LAN; a listener
    // beside it logs each datagram at the instant the speaker got it.
    let mut sim = Sim::new(1);
    let lan = Lan::new(LanConfig::default());
    let replay = lan.attach("replay");
    let spk = EthernetSpeaker::start(&mut sim, &lan, config());
    let arrivals = shared(Vec::new());
    let listener = lan.attach("listener");
    lan.join(listener, G);
    let log = Rc::clone(&arrivals);
    lan.set_handler(listener, move |sim, dg| {
        log.borrow_mut().push((sim.now(), dg.payload));
    });
    for (at, raw) in trace {
        let lan = lan.clone();
        sim.schedule_at(at, move |sim| lan.multicast(sim, replay, G, raw));
    }
    sim.run_for(SimDuration::from_secs(4));
    let a = spk.stats();

    // (b) The live adapter, fed the same datagrams at the same instants.
    let heard = live(&arrivals.borrow());
    let b = heard.stats;

    // What only a device does happened to neither: nothing the sim
    // adapter wrote was refused or flushed.
    assert_eq!(
        (a.dropped_overflow_bytes, a.playback_resyncs),
        (0, 0),
        "{a:?}"
    );
    assert_eq!(node_side(a), node_side(b), "\n sim: {a:?}\nlive: {b:?}");
    assert_eq!(spk.deadline_slack(), heard.deadline_slack_us);
    let played = spk.tap().borrow().samples().expect("capture_output");
    assert_eq!(audible(&played), audible(&heard.samples));
    assert_eq!(b.samples_played, heard.samples.len() as u64);

    // The damage did what it was meant to, on both.
    assert_eq!(
        b.fec_recovered, 1,
        "the live adapter rebuilt the dropped block"
    );
    assert_eq!(b.concealed_packets, 2, "{b:?}");
    assert!(b.dropped_duplicate >= 1 && b.bad_packets == 1, "{b:?}");
    assert!(b.dropped_waiting_control >= 1, "{b:?}");
    assert_eq!(b.dropped_late + b.decode_errors, 0, "{b:?}");
    let decided = b.data_packets - b.concealed_packets;
    assert_eq!(
        heard.deadline_slack_us.count(),
        decided,
        "each real block once"
    );
}
