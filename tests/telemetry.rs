//! Integration: the unified telemetry subsystem observed end to end —
//! one simulated run populates metrics for every component, the journal
//! orders its events by virtual time, and every JSON line carries the
//! values of the metric or event it was written from.

use std::path::Path;

use es_core::prelude::*;
use es_telemetry::json::{self, JsonValue};
use es_telemetry::{Histogram, Metric, MetricValue};

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

/// Each JSON line of a snapshot, read with the generic parser, holds
/// the key, type and values of the metric it was written from, in the
/// snapshot's order.
fn assert_lines_match(snap: &MetricsSnapshot) {
    let text = snap.to_json_lines();
    assert_eq!(text.lines().count(), snap.len());
    for (line, metric) in text.lines().zip(snap.iter()) {
        let v = json::parse(line).expect("a JSON line");
        let num = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        assert_eq!(
            v.get("key").and_then(JsonValue::as_str),
            Some(metric.key.to_string().as_str())
        );
        assert_eq!(
            v.get("type").and_then(JsonValue::as_str),
            Some(metric.value.kind()),
            "{line}"
        );
        match &metric.value {
            MetricValue::Counter(c) => assert_eq!(num("value"), Some(*c), "{line}"),
            MetricValue::Gauge(g) => assert_eq!(
                v.get("value").and_then(JsonValue::as_f64),
                Some(*g),
                "{line}"
            ),
            MetricValue::Histogram(h) => {
                assert_eq!(num("count"), Some(h.count()), "{line}");
                assert_eq!(num("sum"), Some(h.sum()), "{line}");
                let buckets: Vec<(usize, u64)> = v
                    .get("buckets")
                    .and_then(JsonValue::items)
                    .expect("buckets")
                    .iter()
                    .map(|pair| match pair.items() {
                        Some([i, c]) => (i.as_u64().unwrap() as usize, c.as_u64().unwrap()),
                        _ => panic!("bucket not [index, count]: {line}"),
                    })
                    .collect();
                assert_eq!(buckets, h.nonzero_buckets().collect::<Vec<_>>(), "{line}");
            }
        }
    }
}

/// Snapshots serialize to JSON lines without loss.
#[test]
fn snapshot_json_lines_round_trip() {
    let mut sys = observed_system(22);
    sys.run_for(SimDuration::from_secs(2));
    assert_lines_match(&sys.metrics());
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
    // Each event's JSON line carries its sequence, stamp and texts.
    for ev in &events {
        let line = ev.to_json_line();
        let v = json::parse(&line).expect("a JSON line");
        let text = |k: &str| v.get(k).and_then(JsonValue::as_str);
        assert_eq!(v.get("seq").and_then(JsonValue::as_u64), Some(ev.seq));
        assert_eq!(text("domain"), Some("virtual"), "{line}");
        assert_eq!(
            v.get("ts_ns").and_then(JsonValue::as_u64),
            Some(ev.stamp.nanos)
        );
        assert_eq!(text("component"), Some(ev.component.as_str()));
        assert_eq!(text("message"), Some(ev.message.as_str()));
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

/// Fails unless `fresh` is the committed `results/<name>` byte for
/// byte. On a mismatch it writes `fresh` to `CARGO_TARGET_TMPDIR` and
/// names the first lines that differ; commit the fresh copy if the
/// change is meant.
fn assert_matches_committed(name: &str, fresh: &str) {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let old = std::fs::read_to_string(&committed).unwrap_or_default();
    if old == fresh {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&out, fresh).expect("write the fresh copy");
    let (old_lines, new_lines): (Vec<_>, Vec<_>) = (old.lines().collect(), fresh.lines().collect());
    let differ: Vec<String> = (0..old_lines.len().max(new_lines.len()))
        .filter(|&i| old_lines.get(i) != new_lines.get(i))
        .take(5)
        .map(|i| {
            let (was, is) = (old_lines.get(i), new_lines.get(i));
            format!("  line {}: {was:?} -> {is:?}", i + 1)
        })
        .collect();
    panic!(
        "{} differs from the fresh copy {}; first lines that differ:\n{}",
        committed.display(),
        out.display(),
        if differ.is_empty() {
            "  none: the files differ in their line ends".to_string()
        } else {
            differ.join("\n")
        }
    );
}

/// The JSON-lines export is pinned byte for byte: the text of a
/// snapshot holding counters, gauges and histograms is the committed
/// `results/export.jsonl`. The layout of the snapshot has changed
/// under the pin without moving it, so no such change can move a byte
/// of what dashboards read. Until the twelfth move it was an FNV-1a
/// hash of the text, which said that something moved but not what. It moved
/// once for behaviour: deleting the FEC ladder took its three counters
/// out (two under `heal/heal0`, one under `rebroadcast/ch0`) and, with
/// the ladder's one raise, its four PARAM datagrams. It moved again
/// when the session plane shed its unread fields: `net/lan0`'s
/// `payload_bytes_sent` and `wire_bytes_sent` each fell by 20 bytes,
/// the four DISCOVERs' caps blocks (3 B each) and the device-class
/// byte of the four SETUPs and the four one-entry OFFERs (1 B each).
/// It moved a third time when `net/lan0/multicast_fanout` stopped
/// counting duplicate copies and unicast deliveries as receivers:
/// 3.240343347639485 → 3.163090128755365, no other line. It moved a
/// fourth time when speakers began to record the FEC groups they gave
/// up on: five lines joined, `speaker/{es0,es1,es2,es3,seg1-a}/
/// fec_unrecoverable` (1, 2, 1, 1, 1), and no other line moved. It
/// moved a fifth time when a group that lost a data packet and its
/// parity counted too: the same five lines went to (2, 4, 3, 3, 3),
/// nine groups that lost their parity and data with it (seven of them
/// only the data packet right before the parity), and no other line
/// moved. It moved a sixth time, for many lines, when OVL began to
/// send a channel that repeats the one before it as one header bit:
/// the stream is dual mono, so each OVL payload halved
/// (`rebroadcast/ch0/payload_bytes_out` 193 633 → 97 072,
/// `compression_ratio` 0.366 → 0.183) and a data packet crosses the
/// LAN as two fragments where it took three. Burst loss then stepped
/// each receiver's loss chain once per fragment, so the bursts fell on other
/// packets, session handshakes among them, and fewer datagrams were
/// lost (`net/lan0/frames_dropped` 57 → 43). Every other moved line
/// follows from that, and three keys left the snapshot because their
/// counters fell to zero (`speaker/es1/fec_unrecoverable`,
/// `speaker/es2/fec_unrecoverable`, `speaker/es2/nacks_sent`). It
/// moved a seventh time when a data packet whose seq had already
/// played stopped reopening its FEC group: two keys left,
/// `speaker/{es3,seg1-a}/fec_unrecoverable` (1 → 0), and no other line
/// moved. Each of the two had counted a group it heard the parity of
/// but not the data sent before it listened; the reopened groups had
/// filled the recoverer's four-group window and retired it, and now it
/// is still open when the run ends. It moved an eighth time when a
/// segment relay stopped holding each datagram 2 ms before forwarding
/// it: two lines moved, both on `seg1-a`, the one relayed speaker.
/// `sync_offset_us` fell 2 116 → 116 (one wire transit per hop). The
/// `deadline_slack_us` sum rose 11 449 906 → 11 459 906: five refills
/// each reached the §3.2 decision 2 ms earlier, and one block moved
/// from bucket 17 to 18. It moved a ninth time, for many lines and
/// for the same reason as the sixth, when OVL began to ease each
/// packet's signal into its frame instead of framing it between zeros:
/// `rebroadcast/ch0/payload_bytes_out` fell 97 072 → 35 557
/// (`compression_ratio` 0.183 → 0.067), so a data packet crosses the LAN
/// as one fragment where it took two (`net/lan0/frames_dropped_partial`
/// 7 → 0). Burst loss still stepped per fragment, so the bursts fell on
/// other packets and fewer were lost (`net/lan0/frames_dropped`
/// 43 → 33). Every other moved line follows from that, and two keys
/// left the snapshot because their counters fell to zero
/// (`speaker/es0/fec_unrecoverable`, `speaker/es3/nacks_sent`). It
/// moved a tenth time, for 80 lines, when burst loss began to last a
/// time instead of a number of fragments: the LAN's 3.0 became bursts
/// of mean 3 ms, read at each fragment's instant on the wire. The
/// bursts fell on other packets (`net/lan0/frames_dropped` 33 → 26).
/// Each negotiated speaker heard one more stream control packet
/// (`control_packets` 6 → 7) and dropped fewer data packets waiting
/// for one (`dropped_waiting_control` 12 → 9 or 10), so it played
/// sooner: es0–es2 played 51 blocks instead of 50 and es3 51 instead
/// of 46 (`samples_played` 224 910 each). One key joined,
/// `speaker/es2/nacks_sent` (0 → 1), and `seg1-a` concealed one block
/// (0 → 1). Every other moved line follows from those. It moved an
/// eleventh time, for 25 lines, when OVL began to lap each packet onto
/// the one before: `rebroadcast/ch0/payload_bytes_out` fell
/// 35 557 → 20 168 (`compression_ratio` 0.067 → 0.038, and the LAN's
/// byte counters with it), `encode_work_units` 7 693 920 → 5 813 856
/// and each speaker's `decode_work_units` by the same quarter (4.31
/// windows a packet where there were 6). Five keys joined, one
/// `faded_heads` of 1 per speaker: its first packet laps one it never
/// heard. Shorter packets cross the LAN sooner, so each speaker's
/// `deadline_slack_us` sum rose by about 1.2 ms and its
/// `quality_jitter_us` moved by under 3 µs; no block played
/// differently often. It moved a twelfth time, for one line, when the
/// hole table began to count `fec_unrecoverable` at a missing block's
/// deadline: `speaker/seg1-a/fec_unrecoverable` joined at 1. Its group
/// [44, 48) lost seq 47 and its parity, and seq 47 is the block
/// `seg1-a` concealed (at 2.562 s). The three groups after it arrived
/// whole with their parity and left the recoverer's window, so at the
/// run's end [44, 48) was still open in that window and the window's
/// rule never counted it. es0–es3 repaired every loss by a refill or
/// FEC and stay unlisted.
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
    assert_matches_committed("export.jsonl", &snap.to_json_lines());
}

/// The snapshot's layout: every key part with the same text shares one
/// label allocation (so all keys of one instance do), a metric fits in
/// one cache line, a histogram equals any other holding the same
/// samples, however it was built, and every kind's export line carries
/// its metric's values.
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
    let path = "speaker/es0/deadline_slack_us";
    for rebuilt in [snap.histogram(path), Some(&merged)] {
        assert_eq!(rebuilt, Some(&direct));
    }
    assert_lines_match(&snap);
}

/// `(component, name, kind)` of every metric in `snap`, after checking
/// that each key is three `[A-Za-z0-9_.-]+` segments.
fn key_kinds(snap: &MetricsSnapshot) -> Vec<(String, String, &'static str)> {
    let segment = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    snap.iter()
        .map(|m| {
            let k = &m.key;
            assert!(
                [&k.component, &k.instance, &k.name]
                    .iter()
                    .all(|s| segment(s)),
                "metric key {k} is not three [A-Za-z0-9_.-]+ segments"
            );
            (k.component.to_string(), k.name.to_string(), m.value.kind())
        })
        .collect()
}

/// A speaker whose FEC 4+1 stream loses two members of one group: its
/// link goes dark for 130 ms, over two consecutive data packets, so
/// either two of one group's data packets or a data packet and its
/// parity are gone. The stream then plays on cleanly, and the group
/// counts when its first lost block comes due.
fn unrecoverable_group_metrics() -> MetricsSnapshot {
    let group = McastGroup(1);
    let channel = ChannelSpec::new(1, group, "radio")
        .duration(SimDuration::from_secs(3))
        .fec_group(4);
    let mut sys = SystemBuilder::new(1)
        .channel(channel)
        .speaker(SpeakerSpec::new("es", group))
        .build();
    sys.run_for(SimDuration::from_secs(1));
    let node = sys.speaker(0).expect("powered at build").node();
    let lan = sys.lan().clone();
    lan.degrade(&mut sys.sim, node, 1.0, SimDuration::ZERO);
    sys.run_for(SimDuration::from_millis(130));
    lan.heal(&mut sys.sim, node);
    sys.run_for(SimDuration::from_millis(500));
    sys.metrics()
}

/// Every key production code records: what `every_kind_system()` does,
/// plus the catalog announcer, the override controller, the live
/// producer's report and a FEC group lost beyond repair, which it need
/// not have (its losses fall where they fall). Each (component, name)
/// keeps one kind across every instance, and the sorted inventory is
/// the committed `results/telemetry-keys.json`.
#[test]
fn recorded_keys_match_the_inventory() {
    let mut sys = every_kind_system();
    sys.run_for(SimDuration::from_secs(4));
    let mut keys = key_kinds(&sys.metrics());

    let group = McastGroup(1);
    let mut announced = SystemBuilder::new(1)
        .announce_on(McastGroup(0))
        .channel(ChannelSpec::new(1, group, "radio").duration(SimDuration::from_secs(2)))
        .build();
    announced.run_for(SimDuration::from_secs(1));
    keys.extend(key_kinds(&announced.metrics()));

    let lost = unrecoverable_group_metrics();
    assert!(
        lost.counter("speaker/es/fec_unrecoverable").unwrap_or(0) > 0,
        "the dark link cost no whole group:\n{}",
        lost.to_json_lines()
    );
    keys.extend(key_kinds(&lost));

    let mut reg = Registry::new();
    reg.set_instance("ctl0");
    OverrideStats::default().record(&mut reg);
    es_core::LiveProducerReport::default().record(&mut reg);
    keys.extend(key_kinds(&reg.snapshot()));

    keys.sort();
    keys.dedup();
    for pair in keys.windows(2) {
        let (c, n, a) = &pair[0];
        assert!(
            (c, n) != (&pair[1].0, &pair[1].1),
            "{c}/*/{n} is recorded both as a {a} and as a {}",
            pair[1].2
        );
    }
    let mut fresh = String::from("[\n");
    for (i, (component, name, kind)) in keys.iter().enumerate() {
        let sep = if i + 1 < keys.len() { "," } else { "" };
        fresh.push_str(&format!(
            "{{\"component\":\"{component}\",\"name\":\"{name}\",\"kind\":\"{kind}\"}}{sep}\n"
        ));
    }
    fresh.push_str("]\n");
    assert_matches_committed("telemetry-keys.json", &fresh);
}
