//! Segment-relay integration tier: the §4.4 hierarchical rebroadcast
//! topology (producer → segment relay → downstream speakers) built
//! through [`SystemBuilder`], proven to play, to stay within the
//! paper's sync bounds, and to be deterministic: relayed topologies
//! are not in the chaos conformance set, so the same-seed comparison
//! lives here.

use es_core::{ChannelSpec, RelaySpec, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::SimDuration;

const UPSTREAM: McastGroup = McastGroup(1);
const DOWNSTREAM: McastGroup = McastGroup(101);

/// One producer on the backbone (segment 0), one speaker listening
/// there directly, a relay re-multicasting into segment 1, and two
/// speakers on the relayed group.
fn relayed_system() -> es_core::EsSystem {
    SystemBuilder::new(23)
        .channel(
            ChannelSpec::new(1, UPSTREAM, "radio")
                .policy(CompressionPolicy::Always {
                    codec: es_codec::CodecId::Ovl,
                    quality: es_codec::MAX_QUALITY,
                })
                .duration(SimDuration::from_secs(3)),
        )
        .speaker(SpeakerSpec::new("backbone", UPSTREAM))
        .relay(RelaySpec::new(UPSTREAM, DOWNSTREAM).segment(1))
        .speaker(SpeakerSpec::new("seg1-a", DOWNSTREAM).segment(1))
        .speaker(SpeakerSpec::new("seg1-b", DOWNSTREAM).segment(1))
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
            (m.key.instance.clone(), count)
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
    assert_eq!(stats.parity_stale, 0, "clean link must not stale parity");
    // Crossing the producer→segment-1 boundary goes through the
    // deterministic channel; the router must have seen it.
    assert!(sys.lan().cross_segment_posts() > 0);
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
    // The relay re-stamps control and data by its hold, so downstream
    // speakers lock to the *relay's* timeline and still land within
    // the paper's 60 ms bound of each other and of the backbone
    // (hold defaults to 2 ms — far inside the bound).
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
