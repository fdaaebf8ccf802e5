//! Integration: the unified telemetry subsystem observed end to end —
//! one simulated run populates metrics for every component, the journal
//! orders its events by virtual time, and snapshots survive a JSON-lines
//! round trip.

use es_core::prelude::*;
use es_telemetry::{Histogram, Metric};

fn observed_system(seed: u64) -> EsSystem {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "radio")
        .source(Source::Music)
        .duration(SimDuration::from_secs(4));
    SystemBuilder::new(seed)
        .channel(ch)
        .speaker(SpeakerSpec::new("lobby", group))
        .build()
}

/// The ISSUE's acceptance scenario: after a short run, one
/// `metrics()` call covers net, vad, rebroadcast and speaker.
#[test]
fn single_run_covers_every_component() {
    let mut sys = observed_system(21);
    sys.run_for(SimDuration::from_secs(3));
    let snap = sys.metrics();

    assert!(
        snap.counter("net/lan0/frames_delivered").unwrap_or(0) > 0,
        "net uninstrumented: {}",
        snap.to_json_lines()
    );
    assert!(
        snap.counter("speaker/lobby/samples_played").unwrap_or(0) > 0,
        "speaker uninstrumented: {}",
        snap.to_json_lines()
    );
    assert!(
        snap.counter("vad/ch0/audio_bytes_forwarded").unwrap_or(0) > 0,
        "vad uninstrumented: {}",
        snap.to_json_lines()
    );
    assert!(
        snap.counter("rebroadcast/ch0/data_packets").unwrap_or(0) > 0,
        "rebroadcast uninstrumented: {}",
        snap.to_json_lines()
    );
    // Derived views over the same snapshot.
    assert_eq!(
        snap.sum_counters("net", "frames_delivered"),
        snap.counter("net/lan0/frames_delivered").unwrap()
    );
    assert!(!snap.is_empty() && snap.len() > 10);
}

/// Snapshots serialize to JSON lines and back without loss.
#[test]
fn snapshot_json_lines_round_trip() {
    let mut sys = observed_system(22);
    sys.run_for(SimDuration::from_secs(2));
    let snap = sys.metrics();
    let text = snap.to_json_lines();
    let back = MetricsSnapshot::from_json_lines(&text).expect("parse back");
    assert_eq!(back.len(), snap.len());
    for metric in snap.iter() {
        let path = metric.key.to_string();
        assert_eq!(
            back.counter(&path),
            snap.counter(&path),
            "counter {path} changed across the round trip"
        );
        assert_eq!(back.gauge(&path), snap.gauge(&path), "gauge {path}");
    }
    // And re-serialization is stable.
    assert_eq!(back.to_json_lines(), text);
}

/// Under virtual time every journal event is Virtual-domain and the
/// (stamp, seq) order is monotone: later events never claim earlier
/// virtual timestamps.
#[test]
fn journal_orders_events_under_virtual_time() {
    let mut sys = observed_system(23);
    sys.run_for(SimDuration::from_secs(3));
    let events = sys.journal().events();
    assert!(
        !events.is_empty(),
        "a full boot + stream start must journal something"
    );
    let mut prev = (0u64, 0u64);
    for ev in &events {
        assert_eq!(ev.stamp.domain, TimeDomain::Virtual, "{ev:?}");
        let key = (ev.stamp.nanos, ev.seq);
        assert!(key >= prev, "journal out of order: {prev:?} then {key:?}");
        prev = key;
    }
    // Events round-trip through their JSON line form too.
    for ev in &events {
        let line = ev.to_json_line();
        let parsed = es_telemetry::Event::from_json_line(&line).expect("parse event");
        assert_eq!(parsed.seq, ev.seq);
        assert_eq!(parsed.component, ev.component);
        assert_eq!(parsed.message, ev.message);
        assert_eq!(parsed.stamp.nanos, ev.stamp.nanos);
    }
}

/// Determinism extends to telemetry: same seed, same snapshot text.
#[test]
fn same_seed_same_metrics() {
    let run = |seed| {
        let mut sys = observed_system(seed);
        sys.run_for(SimDuration::from_secs(2));
        sys.metrics().to_json_lines()
    };
    assert_eq!(run(7), run(7));
}

/// A deployment that records every metric kind: a segment relay,
/// negotiated concealing speakers behind bursty loss with FEC 4+1, and
/// the healing monitor.
fn every_kind_system() -> EsSystem {
    let (announce, group) = (McastGroup(0), McastGroup(1));
    let channel = ChannelSpec::new(1, group, "campus")
        .source(Source::Music)
        .duration(SimDuration::from_secs(3))
        .fec_group(4);
    let mut b = SystemBuilder::new(41)
        .lan(LanConfig::bursty(0.05, 3.0))
        .channel(channel)
        .sessions(SessionSpec::new(announce))
        .healing(HealSpec::new())
        .relay(RelaySpec::new(group, McastGroup(101)))
        .speaker(SpeakerSpec::new("seg1-a", McastGroup(101)).loss_concealment());
    for i in 0..4 {
        b = b.speaker(SpeakerSpec::negotiated(format!("es{i}"), "campus").loss_concealment());
    }
    b.build()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The JSON-lines export is pinned byte for byte: FNV-1a over the text
/// of a snapshot holding counters, gauges and histograms. The value is
/// the one the export gave while every key still owned three `String`s
/// and every histogram all 65 buckets, so a change to the snapshot's
/// layout cannot move a byte of what dashboards read.
#[test]
fn export_is_pinned_byte_for_byte() {
    let mut sys = every_kind_system();
    sys.run_for(SimDuration::from_secs(4));
    let snap = sys.metrics();
    let kinds: std::collections::BTreeSet<&str> = snap.iter().map(|m| m.value.kind()).collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["counter", "gauge", "histogram"]
    );
    let text = snap.to_json_lines();
    assert_eq!(
        (snap.len(), fnv1a(text.as_bytes())),
        (245, 6_450_848_580_130_443_320),
        "the export moved:\n{text}"
    );
}

/// The snapshot's layout: every key part with the same text shares one
/// label allocation (so all keys of one instance do), a metric fits in
/// one cache line, and a histogram equals any other holding the same
/// samples, however it was built.
#[test]
fn snapshot_layout_is_compact() {
    assert!(std::mem::size_of::<Metric>() <= 64);
    assert_eq!(Histogram::new(), Histogram::default());

    let mut sys = every_kind_system();
    sys.run_for(SimDuration::from_secs(4));
    let snap = sys.metrics();
    let mut first = std::collections::BTreeMap::new();
    for m in snap.iter() {
        for label in [&m.key.component, &m.key.instance, &m.key.name] {
            let shared = *first.entry(label.as_str()).or_insert(label.as_ptr());
            assert_eq!(
                shared,
                label.as_ptr(),
                "{} holds a second copy of {label:?}",
                m.key
            );
        }
    }

    // Speaker 1 is es0; its live histogram against every rebuilt copy.
    let direct = sys.speaker(1).expect("es0 built").deadline_slack();
    assert!(direct.count() > 0);
    let mut merged = Histogram::new();
    merged.merge(&Histogram::new());
    merged.merge(&direct);
    let back = MetricsSnapshot::from_json_lines(&snap.to_json_lines()).expect("parse back");
    assert_eq!(back, snap);
    let path = "speaker/es0/deadline_slack_us";
    for rebuilt in [snap.histogram(path), Some(&merged), back.histogram(path)] {
        assert_eq!(rebuilt, Some(&direct));
    }
}
