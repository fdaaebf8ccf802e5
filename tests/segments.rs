//! Segment-relay integration tier: the §4.4 hierarchical rebroadcast
//! topology (producer → segment relay → downstream speakers) built
//! through [`SystemBuilder`], proven to play, to stay within the
//! paper's sync bounds, and to be deterministic: relayed topologies
//! are not in the chaos conformance set, so the same-seed comparison
//! lives here.

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

#[test]
fn relay_hold_preserves_downstream_sync() {
    // The relay delays control and data alike by its 2 ms hold, so
    // downstream speakers' §3.2 clock offset absorbs the hop: they
    // play one hold behind the backbone, far inside the paper's 60 ms
    // bound of each other and of the backbone.
    let mut sys = relayed_system();
    sys.run_for(SimDuration::from_secs(4));
    let first_block = |i: usize| {
        sys.speaker(i)
            .and_then(|s| s.tap().borrow().first_block_time())
            .unwrap_or_else(|| panic!("speaker {i} never played"))
    };
    let backbone = first_block(0);
    for i in [1usize, 2] {
        let seg1 = first_block(i);
        let skew = if seg1 > backbone {
            seg1.saturating_since(backbone)
        } else {
            backbone.saturating_since(seg1)
        };
        assert!(
            skew <= SimDuration::from_millis(60),
            "speaker {i} starts {skew} away from the backbone"
        );
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
        sys.lan().clone().degrade(&mut sys.sim, node, 0.1);
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

/// Events fired per run the engine opened (`es_sim::Sim` queues the
/// events scheduled back to back for one instant as one run) over one
/// virtual second of full-quality OVL. With relays this is the perf
/// ledger's `fleet1k-relayed` shape, speakers dealt round-robin behind
/// them; with none, its `solo` shape.
fn events_per_run(relays: u32, speakers: u32) -> f64 {
    let downstream = |k: u32| McastGroup(100 + k as u16);
    let mut b = SystemBuilder::new(7).channel(radio(1));
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
    sys.run_for(SimDuration::from_secs(1));
    sys.sim.events_processed() as f64 / sys.sim.runs_opened() as f64
}

#[test]
fn a_synchronized_fleet_schedules_in_runs_and_a_lone_speaker_does_not() {
    // §2.3 multicasts one datagram to every speaker and §3.2 stamps it
    // with one deadline, so a fleet's receive, decode and play events
    // fall on shared instants, scheduled back to back. A handler that
    // interleaved two instants per speaker would de-coalesce the
    // fleet and show up only as a slower benchmark; this fails first.
    let fleet = events_per_run(4, 200);
    assert!(fleet >= 10.0, "{fleet:.1} events per run at 200 speakers");
    // One speaker has nobody to share an instant with.
    let lone = events_per_run(0, 1);
    assert!(
        (0.8..1.2).contains(&lone),
        "{lone:.2} events per run at one speaker"
    );
}
