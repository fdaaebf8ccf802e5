//! Segment-relay integration tier: the §4.4 hierarchical rebroadcast
//! topology (producer → segment relay → downstream speakers) built
//! through [`SystemBuilder`], proven to play, to stay within the
//! paper's sync bounds, to repair at every depth of a chain, and to be
//! deterministic: relayed topologies are not in the chaos conformance
//! set, so the same-seed comparison lives here. With `ES_CHAOS_FP_DIR`
//! set, the one-hop topology and the three-hop chain write their
//! telemetry there too, for `scripts/fingerprints.sh`'s cross-process
//! diff.

use es_core::{ChannelSpec, HealSpec, RelaySpec, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::SimDuration;

const UPSTREAM: McastGroup = McastGroup(1);
const DOWNSTREAM: McastGroup = McastGroup(101);

/// `secs` of full-quality OVL on the upstream group.
fn radio(secs: u64) -> ChannelSpec {
    ChannelSpec::new(1, UPSTREAM, "radio")
        .policy(CompressionPolicy::Always {
            codec: es_codec::CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
        })
        .duration(SimDuration::from_secs(secs))
}

/// One producer on the backbone group, one speaker listening there
/// directly, a relay re-multicasting onto the downstream group, and
/// two speakers on the relayed group.
fn relayed_system() -> es_core::EsSystem {
    SystemBuilder::new(23)
        .channel(radio(3))
        .speaker(SpeakerSpec::new("backbone", UPSTREAM))
        .relay(RelaySpec::new(UPSTREAM, DOWNSTREAM))
        .speaker(SpeakerSpec::new("seg1-a", DOWNSTREAM))
        .speaker(SpeakerSpec::new("seg1-b", DOWNSTREAM))
        .build()
}

/// With `ES_CHAOS_FP_DIR` set, writes a topology's telemetry to
/// `<dir>/<name>.txt`, as the chaos suite writes its fingerprints, so
/// `scripts/fingerprints.sh` can diff relayed topologies across
/// processes.
fn write_fingerprint(name: &str, lines: &str) {
    if let Ok(dir) = std::env::var("ES_CHAOS_FP_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.txt"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, lines))
            .unwrap_or_else(|e| panic!("cannot write fingerprint {}: {e}", path.display()));
    }
}

/// Per-speaker `samples_played`, keyed by instance, plus the full
/// snapshot rendered to JSON lines (the fingerprint surface).
fn observe(sys: &es_core::EsSystem) -> (Vec<(String, u64)>, String) {
    let snap = sys.metrics();
    let played: Vec<(String, u64)> = snap
        .iter()
        .filter(|m| m.key.component == "speaker" && m.key.name == "samples_played")
        .map(|m| {
            let count = match m.value {
                es_telemetry::MetricValue::Counter(c) => c,
                ref other => panic!("samples_played is {}", other.kind()),
            };
            (m.key.instance.to_string(), count)
        })
        .collect();
    (played, snap.to_json_lines())
}

#[test]
fn relayed_fleet_plays_on_both_segments() {
    let mut sys = relayed_system();
    sys.run_for(SimDuration::from_secs(4));
    let (played, _) = observe(&sys);
    assert_eq!(played.len(), 3, "{played:?}");
    for (name, samples) in &played {
        assert!(
            *samples > 100_000,
            "{name} played only {samples} samples of a 3 s stream"
        );
    }
    let relay = sys.relay(0).expect("relay built");
    let stats = relay.stats();
    assert!(stats.data_relayed > 30, "{stats:?}");
    assert!(stats.control_relayed > 0, "{stats:?}");
    assert_eq!(stats.opaque, 0, "a clean link carries nothing unparseable");
}

#[test]
fn relayed_topology_is_deterministic() {
    let run = || {
        let mut sys = relayed_system();
        sys.run_for(SimDuration::from_secs(4));
        observe(&sys)
    };
    let (played, lines) = run();
    assert_eq!(played.len(), 3, "{played:?}");
    write_fingerprint("relayed_topology", &lines);
    let (played_again, lines_again) = run();
    assert_eq!(
        played, played_again,
        "samples_played diverges between two builds of one seed"
    );
    assert_eq!(
        lines, lines_again,
        "telemetry diverges between two builds of one seed"
    );
}

/// A producer, one speaker on the backbone group, and a chain of three
/// relays with one speaker at each depth: speaker `k` listens `k` hops
/// down.
fn relay_chain(
    seed: u64,
    secs: u64,
    speaker: impl Fn(String, McastGroup) -> SpeakerSpec,
) -> SystemBuilder {
    let hop = |k: u16| McastGroup(100 + k);
    let mut b = SystemBuilder::new(seed)
        .channel(radio(secs))
        .speaker(speaker("backbone".into(), UPSTREAM));
    for k in 1..=3 {
        let upstream = if k == 1 { UPSTREAM } else { hop(k - 1) };
        b = b
            .relay(RelaySpec::new(upstream, hop(k)))
            .speaker(speaker(format!("hop{k}"), hop(k)));
    }
    b
}

#[test]
fn relayed_speakers_play_in_step_with_the_backbone() {
    // A relay forwards a datagram in the delivery that heard it, so
    // each hop delays control and data alike by one wire transit on
    // the relay's own link, and a speaker's §3.2 clock offset absorbs
    // it: k hops down plays the whole stream at most k control
    // transits behind the backbone.
    let mut sys = relay_chain(23, 3, SpeakerSpec::new).build();
    sys.run_for(SimDuration::from_secs(4));
    write_fingerprint("relay_chain", &sys.metrics().to_json_lines());
    let played = |i: usize| {
        let tap = sys.speaker(i).expect("powered at build").tap();
        let tap = tap.borrow();
        match (tap.first_block_time(), tap.last_block_time()) {
            (Some(first), Some(last)) => [first, last],
            _ => panic!("speaker {i} never played"),
        }
    };
    // One hop's wire transit of a control packet: what the backbone
    // speaker's offset reads on a clock shared with the producer.
    let transit = sys.speaker(0).and_then(|s| s.clock_offset_us()).unwrap();
    let transit = SimDuration::from_micros(transit.try_into().unwrap());
    let backbone = played(0);
    for k in 1..=3u64 {
        let most = transit * k;
        let ends = played(k as usize).into_iter().zip(backbone);
        for (end, (at, base)) in ["first", "last"].into_iter().zip(ends) {
            let skew = at.saturating_since(base);
            assert!(
                base <= at && skew <= most,
                "{k} hops down the {end} block plays {skew} after the backbone's, \
                 not within 0..={most}"
            );
        }
    }
}

#[test]
fn repair_meets_the_deadline_at_every_depth() {
    // Every speaker's own link loses 5 %, so at each depth a NACK
    // climbs to the producer through every relay above it and the
    // refill comes back down through all of them; three hops down it
    // must still land before its block is due.
    for seed in 1..=5 {
        let spec = |name, group| SpeakerSpec::new(name, group).loss_concealment();
        let mut sys = relay_chain(seed, 8, spec).healing(HealSpec::new()).build();
        for i in 0..4 {
            let node = sys.speaker(i).expect("powered at build").node();
            sys.lan()
                .clone()
                .degrade(&mut sys.sim, node, 0.05, SimDuration::ZERO);
        }
        sys.run_for(SimDuration::from_secs(9));
        for depth in 0..4 {
            let spk = sys.speaker(depth).expect("powered at build");
            let st = spk.stats();
            let offset = spk.clock_offset_us().expect("synced");
            println!(
                "seed {seed} depth {depth}: sync_offset_us {offset} nacks_sent {} \
                 refills_received {} concealed_packets {}",
                st.nacks_sent, st.refills_received, st.concealed_packets
            );
            assert!(st.refills_received > 0, "seed {seed} depth {depth}: {st:?}");
            assert_eq!(st.refill_late, 0, "seed {seed} depth {depth}: {st:?}");
            assert_eq!(st.dropped_late, 0, "seed {seed} depth {depth}: {st:?}");
        }
    }
}

/// A speaker behind a relay hears its stream from the relay, so that
/// is where its NACK goes; the relay passes it up to the producer, and
/// the refill comes back down the way the stream does.
#[test]
fn relayed_speakers_repair_through_the_relay() {
    let mut b = SystemBuilder::new(29)
        .channel(radio(6))
        .relay(RelaySpec::new(UPSTREAM, DOWNSTREAM))
        .healing(HealSpec::new());
    for i in 0..4 {
        let spec = SpeakerSpec::new(format!("seg1-{i}"), DOWNSTREAM);
        b = b.speaker(spec.loss_concealment());
    }
    let mut sys = b.build();
    // Each relayed speaker's own link loses a tenth of what reaches it.
    for i in 0..4 {
        let node = sys.speaker(i).expect("powered at build").node();
        sys.lan()
            .clone()
            .degrade(&mut sys.sim, node, 0.1, SimDuration::ZERO);
    }
    sys.run_for(SimDuration::from_secs(7));
    let m = sys.metrics();
    let sum = |name| m.sum_counters("speaker", name);
    assert!(sum("nacks_sent") > 0, "no speaker asked");
    let heard = m.counter("rebroadcast/ch0/nacks_received").unwrap_or(0);
    assert!(heard > 0, "the producer heard no NACK");
    assert_eq!(m.counter("relay/relay0/passthrough"), Some(heard));
    assert!(sum("refills_received") > 0, "no refill came back down");
}

/// The engine events fired over one timed second of full-quality OVL,
/// after one to settle: per run the engine opened (`es_sim::Sim`
/// queues the events scheduled back to back for one instant as one
/// run), and per block a speaker played. With relays this is the perf
/// ledger's `fleet1k-relayed` shape, speakers dealt round-robin behind
/// them; with none, its `solo` shape.
fn events_per_run(relays: u32, speakers: u32) -> (f64, f64) {
    let downstream = |k: u32| McastGroup(100 + k as u16);
    let mut b = SystemBuilder::new(7).channel(radio(3));
    for k in 1..=relays {
        b = b.relay(RelaySpec::new(UPSTREAM, downstream(k)));
    }
    for i in 0..speakers {
        b = b.speaker(match relays {
            0 => SpeakerSpec::new(format!("es{i}"), UPSTREAM),
            _ => SpeakerSpec::new(format!("es{i}"), downstream(i % relays + 1)),
        });
    }
    let mut sys = b.build();
    let played = |sys: &es_core::EsSystem| -> u64 {
        let spk = |i| sys.speaker(i).expect("built").stats().data_packets;
        (0..speakers as usize).map(spk).sum()
    };
    sys.run_for(SimDuration::from_secs(1));
    let (events, runs, blocks) = (
        sys.sim.events_processed(),
        sys.sim.runs_opened(),
        played(&sys),
    );
    sys.run_for(SimDuration::from_secs(1));
    let events = (sys.sim.events_processed() - events) as f64;
    let runs = (sys.sim.runs_opened() - runs) as f64;
    (events / runs, events / (played(&sys) - blocks) as f64)
}

#[test]
fn a_synchronized_fleet_schedules_in_runs_and_a_lone_speaker_does_not() {
    // §2.3 multicasts one datagram to every speaker and §3.2 stamps it
    // with one deadline, so a fleet's receive, decode and play events
    // fall on shared instants, scheduled back to back. A handler that
    // interleaved two instants per speaker would de-coalesce the
    // fleet and show up only as a slower benchmark; this fails first.
    let (fleet, _) = events_per_run(4, 200);
    assert!(fleet >= 10.0, "{fleet:.1} events per run at 200 speakers");
    // One speaker has nobody to share an instant with.
    let (lone, _) = events_per_run(0, 1);
    assert!(
        (0.8..1.2).contains(&lone),
        "{lone:.2} events per run at one speaker"
    );
}

#[test]
fn a_fleet_fires_two_events_per_block_played() {
    // A multicast datagram reaches every speaker on its group in one
    // engine event, and each speaker decodes a block and takes §3.2's
    // decision for it there. What is left per block a speaker plays
    // is two events of its own: the wakeup at the block's deadline,
    // which hands it to the device, and the device's DMA completion
    // interrupt, at which the DAC takes its next block (one per 50 ms
    // device block, the stream's block length here). A third, say one
    // that only carried a decoded block to its decision, reads 3.
    let (_, per_block) = events_per_run(4, 200);
    assert!(
        per_block <= 2.5,
        "{per_block:.2} events per speaker-block at 200 speakers"
    );
}
