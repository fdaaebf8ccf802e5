//! The metric tables: what the ledger prints, what `BENCHMARK.json`
//! declares, and how the two map onto each other.
//!
//! The ledger's own report carries the issue's ten end-to-end metrics
//! for every workload. `BENCHMARK.json` gates the subset a relative
//! bound can judge across seeds — wall-clock and resource figures plus
//! two virtual-clock ratios that are never zero. The other
//! virtual-clock outcomes (skew, join, slack) are exact per seed, some
//! are legitimately 0 on clean workloads, and all repeat to the digit,
//! so they are published through the per-layer list under the layer
//! that owns them and gated inside the harness by exact equality.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` and the printed tables use.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// The ten end-to-end metrics every workload reports, in print order:
/// `(name, unit, better, bound)`. The bound is the share of the
/// baseline median a wall-clock metric may worsen by; `None` marks a
/// virtual-clock metric, which must repeat exactly. Definitions are in
/// the README's table.
pub const END_TO_END: [(&str, &str, Better, Option<f64>); 10] = [
    ("setup_s", "s", Lower, Some(0.25)),
    ("x_realtime", "x", Higher, Some(0.25)),
    ("peak_rss_mb", "MiB", Lower, Some(0.05)),
    ("fail_fraction", "ratio", Lower, None),
    ("skew_us_max", "us", Lower, None),
    ("join_ms_p50", "ms", Lower, None),
    ("join_ms_max", "ms", Lower, None),
    ("slack_ms_p50", "ms", Higher, None),
    ("slack_ms_tail", "ms", Higher, None),
    ("wire_kbps", "kbit/s", Lower, None),
];

/// The end-to-end metrics `BENCHMARK.json` gates, as `(name, unit,
/// better, bound)`. `played_fraction` is `1 - fail_fraction`: the same
/// information, never zero. `x_realtime` and `setup_s` are reported at
/// reference host speed ([`crate::calib`]); `ledger.host_speed` in the
/// per-layer list turns them back into what the wall clock read.
/// Bounds are about three times the widest seed-to-seed spread measured
/// on the baseline host (README, "Steadiness"): the shared host's
/// interference sets the wall-clock ones, and `campus-impaired` — whose
/// loss pattern, and with it the healing plane's FEC level, changes
/// with the seed — the rest.
pub const BENCH_END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("x_realtime", "x", Higher, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MiB", Lower, 0.05),
    ("played_fraction", "ratio", Higher, 0.05),
    ("wire_kbps", "kbit/s", Lower, 0.25),
];

/// Ledger end-to-end metrics republished per layer in
/// `BENCHMARK.json`: `(ledger name, per-layer name)`.
pub const REPUBLISHED: [(&str, &str); 6] = [
    ("fail_fraction", "speaker.fail_fraction"),
    ("skew_us_max", "core.skew_us_max"),
    ("join_ms_p50", "speaker.join_ms_p50"),
    ("join_ms_max", "speaker.join_ms_max"),
    ("slack_ms_p50", "speaker.slack_ms_p50"),
    ("slack_ms_tail", "speaker.slack_ms_tail"),
];

/// Where a per-layer figure comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Exact count read at the end of an untraced run.
    Count,
    /// Timing from the traced pass (spans or replay probes).
    Timing,
    /// Virtual-clock outcome republished from the end-to-end table.
    Outcome,
}

impl Source {
    /// Column tag in the printed per-layer table.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Count => "count",
            Source::Timing => "timing",
            Source::Outcome => "outcome",
        }
    }
}

/// Every per-layer metric: `(name, unit, better, source)`. Layer =
/// crate name.
pub const PER_LAYER: [(&str, &str, Better, Source); 74] = [
    ("sim.events", "count", Lower, Source::Count),
    ("sim.events_per_speaker_s", "1/s", Lower, Source::Count),
    ("sim.merge_scans", "count", Lower, Source::Count),
    ("sim.cross_segment_posts", "count", Lower, Source::Count),
    ("sim.event_ns", "ns", Lower, Source::Timing),
    ("sim.event_ns_shards4", "ns", Lower, Source::Timing),
    ("sim.lanes2_wall_ratio", "ratio", Lower, Source::Timing),
    ("sim.shards4_wall_ratio", "ratio", Lower, Source::Timing),
    ("net.datagrams_sent", "count", Lower, Source::Count),
    ("net.datagrams_delivered", "count", Higher, Source::Count),
    ("net.datagrams_lost", "count", Lower, Source::Count),
    ("net.fanout", "ratio", Higher, Source::Count),
    ("net.wire_bytes", "B", Lower, Source::Count),
    ("net.fanout_ns_per_delivery", "ns", Lower, Source::Timing),
    ("audio.gen_ms_per_audio_s", "ms", Lower, Source::Timing),
    ("audio.convert_ns_per_sample", "ns", Lower, Source::Timing),
    ("vad.block_roundtrip_us", "us", Lower, Source::Timing),
    (
        "codec.ovl_encode_ms_per_audio_s",
        "ms",
        Lower,
        Source::Timing,
    ),
    (
        "codec.ovl_decode_ms_per_audio_s",
        "ms",
        Lower,
        Source::Timing,
    ),
    ("codec.decode_wire_us_per_pkt", "us", Lower, Source::Timing),
    ("codec.decode_redundancy", "ratio", Lower, Source::Count),
    ("proto.encode_data_ns_per_pkt", "ns", Lower, Source::Timing),
    ("proto.decode_ns_per_pkt", "ns", Lower, Source::Timing),
    ("proto.auth_sign_us_per_pkt", "us", Lower, Source::Timing),
    ("proto.auth_verify_us_per_pkt", "us", Lower, Source::Timing),
    ("proto.fec_absorb_ns_per_pkt", "ns", Lower, Source::Timing),
    ("proto.fec_recover_us_per_pkt", "us", Lower, Source::Timing),
    ("proto.session_roundtrip_ns", "ns", Lower, Source::Timing),
    ("rebroadcast.data_packets", "count", Lower, Source::Count),
    ("rebroadcast.control_packets", "count", Lower, Source::Count),
    ("rebroadcast.parity_packets", "count", Lower, Source::Timing),
    (
        "rebroadcast.retransmits_sent",
        "count",
        Lower,
        Source::Count,
    ),
    (
        "rebroadcast.compression_ratio",
        "ratio",
        Lower,
        Source::Count,
    ),
    ("rebroadcast.relay_forwarded", "count", Lower, Source::Count),
    (
        "rebroadcast.relay_parity_stale",
        "count",
        Lower,
        Source::Count,
    ),
    (
        "rebroadcast.producer_ms_per_audio_s",
        "ms",
        Lower,
        Source::Timing,
    ),
    ("rebroadcast.relay_us_per_pkt", "us", Lower, Source::Timing),
    ("speaker.datagrams", "count", Lower, Source::Count),
    ("speaker.data_packets", "count", Higher, Source::Count),
    ("speaker.dropped_late", "count", Lower, Source::Count),
    ("speaker.concealed_packets", "count", Lower, Source::Count),
    ("speaker.fec_recovered", "count", Higher, Source::Count),
    ("speaker.dropped_duplicate", "count", Lower, Source::Count),
    (
        "speaker.dropped_waiting_control",
        "count",
        Lower,
        Source::Count,
    ),
    ("speaker.refills_received", "count", Higher, Source::Count),
    ("speaker.refill_late", "count", Lower, Source::Count),
    ("speaker.playback_resyncs", "count", Lower, Source::Count),
    ("speaker.decode_work_units", "count", Lower, Source::Count),
    ("speaker.rx_us_per_pkt", "us", Lower, Source::Timing),
    ("speaker.self_us_per_pkt", "us", Lower, Source::Timing),
    ("speaker.fail_fraction", "ratio", Lower, Source::Outcome),
    ("speaker.join_ms_p50", "ms", Lower, Source::Outcome),
    ("speaker.join_ms_max", "ms", Lower, Source::Outcome),
    ("speaker.slack_ms_p50", "ms", Higher, Source::Outcome),
    ("speaker.slack_ms_tail", "ms", Higher, Source::Outcome),
    ("telemetry.record_ns_per_op", "ns", Lower, Source::Timing),
    ("telemetry.snapshot_ms", "ms", Lower, Source::Timing),
    ("telemetry.json_lines_ms", "ms", Lower, Source::Timing),
    ("telemetry.snapshot_metrics", "count", Lower, Source::Count),
    ("telemetry.journal_events", "count", Lower, Source::Count),
    ("core.build_ms", "ms", Lower, Source::Timing),
    ("core.warmup_ms", "ms", Lower, Source::Timing),
    ("core.slice_growth_ratio", "ratio", Lower, Source::Timing),
    ("core.rerun_wall_ratio", "ratio", Lower, Source::Timing),
    ("core.session_setup_virtual_ms", "ms", Lower, Source::Count),
    ("core.sessions_established", "count", Higher, Source::Count),
    ("core.session_setup_attempts", "count", Lower, Source::Count),
    ("core.skew_us_max", "us", Lower, Source::Outcome),
    ("heal.detector_epoch_us", "us", Lower, Source::Timing),
    ("heal.epochs", "count", Lower, Source::Count),
    ("heal.actions", "count", Lower, Source::Count),
    ("ledger.attributed_share", "ratio", Higher, Source::Timing),
    (
        "ledger.trace_overhead_share",
        "ratio",
        Lower,
        Source::Timing,
    ),
    ("ledger.host_speed", "ratio", Higher, Source::Timing),
];

/// True for end-to-end metrics measured on the wall clock (gated on
/// the median); the rest must repeat exactly.
pub fn is_wall_clock(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.0 == name && m.3.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use es_telemetry::json::{self, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a JsonValue, k: &str) -> &'a str {
        v.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("`{k}` missing in {v:?}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = benchmark_json();
        let names = |k: &str| -> Vec<String> {
            doc.get(k)
                .and_then(JsonValue::items)
                .expect("array")
                .iter()
                .map(|m| field(m, "name").to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            workload::ALL.map(|w| w.name.to_string())
        );
        assert_eq!(
            names("end_to_end"),
            BENCH_END_TO_END.map(|m| m.0.to_string())
        );
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0.to_string()));

        for (entry, (_, unit, better, bound)) in doc
            .get("end_to_end")
            .and_then(JsonValue::items)
            .expect("array")
            .iter()
            .zip(BENCH_END_TO_END)
        {
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better.word());
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), Some(bound));
        }
        for (entry, (_, unit, better, _)) in doc
            .get("per_layer")
            .and_then(JsonValue::items)
            .expect("array")
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better.word());
        }
        for (entry, w) in doc
            .get("workloads")
            .and_then(JsonValue::items)
            .expect("array")
            .iter()
            .zip(workload::ALL)
        {
            assert_eq!(field(entry, "why"), w.why);
        }
    }

    #[test]
    fn names_are_unique_and_republished_metrics_exist() {
        let mut all: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        all.extend(BENCH_END_TO_END.iter().map(|m| m.0));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used twice");
        for (from, to) in REPUBLISHED {
            assert!(END_TO_END.iter().any(|m| m.0 == from));
            assert!(PER_LAYER
                .iter()
                .any(|m| m.0 == to && m.3 == Source::Outcome));
        }
        assert!(is_wall_clock("x_realtime") && !is_wall_clock("wire_kbps"));
    }
}
