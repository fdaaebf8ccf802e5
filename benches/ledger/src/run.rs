//! One measured run of one workload, inside a child process.
//!
//! Timeline (wall): process start → `build()` → warm-up (virtual
//! second 0→1: first control packet, arena and buffer-pool fill) —
//! together `setup_s` — then the timed region, virtual 1 s → stream
//! end + 1 s, advanced in 10 ms slices so join can be polled from
//! outside. Snapshots, skew correlation and teardown come after the
//! timed region and are never part of `x_realtime`. Calibration bursts
//! ([`crate::calib`]) run at process start, after the warm-up and
//! between virtual seconds of the timed region; their wall is taken
//! out of both figures.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use es_core::prelude::*;
use es_net::lan::Dest;
use es_sim::{shared, Shared};
use es_telemetry::{Histogram, MetricValue};

use crate::calib::Calibrator;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workload::Built;

/// Virtual length of one polling slice.
const SLICE_MS: u64 = 10;

/// Calibration bursts spread over the timed region, whatever the
/// stream length (≈0.2 s of wall per child).
const TIMED_BURSTS: u64 = 12;

/// Calibration bursts on either side of set-up.
const SETUP_BURSTS: u64 = 2;

/// One datagram seen by the capture tap.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Virtual arrival time at the tap.
    pub at: SimTime,
    /// Group it was multicast on.
    pub group: McastGroup,
    /// The wire bytes (shared with the LAN, not copied).
    pub payload: Bytes,
}

/// What one run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// The ten end-to-end metrics by name.
    pub e2e: BTreeMap<String, f64>,
    /// Exact per-layer counts read from the system's own stats.
    pub counts: BTreeMap<String, f64>,
    /// Context a reader needs next to the numbers (which percentile
    /// the slack tail is, how many skew pairs locked, …).
    pub notes: BTreeMap<String, f64>,
    /// Correctness-gate violations; empty means the run is good.
    pub violations: Vec<String>,
    /// Wall seconds of the timed region, calibration bursts excluded.
    pub wall_timed_s: f64,
    /// How fast the host ran the calibration work during this run,
    /// relative to the quiet baseline host ([`Calibrator::host_speed`]).
    pub host_speed: f64,
}

/// Watches, from outside and at slice resolution, when each speaker
/// finishes its handshake and when it first plays.
struct JoinWatch {
    power_on: Vec<SimDuration>,
    established: Vec<Option<SimTime>>,
    joined: Vec<Option<SimTime>>,
    pending: Vec<usize>,
}

impl JoinWatch {
    fn new(power_on: Vec<SimDuration>) -> Self {
        JoinWatch {
            established: vec![None; power_on.len()],
            joined: vec![None; power_on.len()],
            pending: (0..power_on.len()).collect(),
            power_on,
        }
    }

    /// Notes every speaker that established its session or started
    /// playing during the slice that just ended.
    fn poll(&mut self, sys: &EsSystem) {
        if self.pending.is_empty() {
            return;
        }
        let now = sys.sim.now();
        let (established, joined) = (&mut self.established, &mut self.joined);
        self.pending.retain(|&i| {
            if established[i].is_none()
                && sys
                    .session(i)
                    .is_some_and(|s| s.phase() == ClientPhase::Established)
            {
                established[i] = Some(now);
            }
            let playing = sys.speaker(i).is_some_and(|s| s.stats().samples_played > 0);
            if playing {
                joined[i] = Some(now);
            }
            !playing
        });
    }

    /// Power-on → event, in ms, for every speaker the event happened to.
    fn since_power_on(&self, events: &[Option<SimTime>]) -> Vec<f64> {
        events
            .iter()
            .zip(&self.power_on)
            .filter_map(|(e, on)| e.map(|t| t.as_millis().saturating_sub(on.as_millis()) as f64))
            .collect()
    }
}

/// When calibration runs while a stretch of virtual seconds is
/// advanced: `bursts` of them after every `every` seconds — between
/// `run.slice` spans, so no span contains one.
struct Pace<'a> {
    calib: &'a mut Calibrator,
    every: u64,
    bursts: u64,
}

impl<'a> Pace<'a> {
    /// About `total` bursts spread evenly over `secs` virtual seconds.
    fn spread(calib: &'a mut Calibrator, total: u64, secs: u64) -> Self {
        let every = (secs / total).max(1);
        let stops = (secs / every).max(1);
        Pace {
            calib,
            every,
            bursts: total.div_ceil(stops),
        }
    }
}

/// Advances `sys` one virtual second at a time up to `until_s`, one
/// `run.slice` span per second, polling join after every 10 ms slice.
fn advance(
    sys: &mut EsSystem,
    until_s: u64,
    watch: &mut JoinWatch,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    pace: Pace,
) {
    let slice = SimDuration::from_millis(SLICE_MS);
    let mut seconds = 0;
    while sys.sim.now() < SimTime::from_secs(until_s) {
        let span = tracer.begin("run.slice", parent);
        for _ in 0..1_000 / SLICE_MS {
            sys.run_for(slice);
            watch.poll(sys);
        }
        tracer.end(span);
        seconds += 1;
        if seconds % pace.every == 0 {
            for _ in 0..pace.bursts {
                pace.calib.burst();
            }
        }
    }
}

fn samples_played(sys: &EsSystem) -> Vec<u64> {
    (0..sys.speaker_count())
        .map(|i| sys.speaker(i).map_or(0, |s| s.stats().samples_played))
        .collect()
}

/// Attaches a tap node that records every datagram multicast on
/// `groups` with its virtual arrival time.
fn attach_tap(sys: &EsSystem, groups: &[McastGroup]) -> Shared<Vec<Captured>> {
    let captured: Shared<Vec<Captured>> = shared(Vec::new());
    let lan = sys.lan();
    let tap = lan.attach("ledger-tap");
    for &g in groups {
        lan.join(tap, g);
    }
    let sink = captured.clone();
    lan.set_handler(tap, move |sim, dg| {
        if let Dest::Multicast(group) = dg.dst {
            sink.borrow_mut().push(Captured {
                at: sim.now(),
                group,
                payload: dg.payload,
            });
        }
    });
    captured
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds (via `build`), warms up, runs and measures one workload.
/// `process_start` is when the child began, so `setup_s` covers
/// everything a user waits for before audio flows. With `capture` set
/// a tap node records the run's datagrams for the replay probes.
pub fn measure(
    process_start: Instant,
    tracer: &mut Tracer,
    capture: bool,
    build: impl FnOnce() -> Built,
) -> (Measured, Vec<Captured>) {
    let mut calib = Calibrator::new();
    for _ in 0..SETUP_BURSTS {
        calib.burst();
    }
    let root = tracer.begin("run", None);
    let span = tracer.begin("core.build", Some(root));
    let Built {
        mut sys,
        stream_secs,
        power_on,
        groups,
        skew_peers,
        clean,
    } = build();
    tracer.end(span);
    let tap = capture.then(|| attach_tap(&sys, &groups));
    let mut watch = JoinWatch::new(power_on);

    let span = tracer.begin("core.warmup", Some(root));
    // The bursts after the warm-up second close the bracket around
    // set-up and open the one around the timed region.
    let pace = Pace::spread(&mut calib, SETUP_BURSTS, 1);
    advance(&mut sys, 1, &mut watch, tracer, Some(span), pace);
    tracer.end(span);
    let setup_s = process_start.elapsed().as_secs_f64() - calib.spent_s();
    let warm = samples_played(&sys);

    let end_s = stream_secs + 1;
    let (timed, spent) = (Instant::now(), calib.spent_s());
    let pace = Pace::spread(&mut calib, TIMED_BURSTS, stream_secs);
    advance(&mut sys, end_s, &mut watch, tracer, Some(root), pace);
    let wall_timed_s = timed.elapsed().as_secs_f64() - (calib.spent_s() - spent);

    let mut m = Measured {
        wall_timed_s,
        host_speed: calib.host_speed().unwrap_or(1.0),
        ..Measured::default()
    };
    let played = samples_played(&sys);
    let cfg = sys.rebroadcaster(0).stream_config();
    let rate = cfg.sample_rate as f64 * cfg.channels as f64;
    let audio_s: f64 = played
        .iter()
        .zip(&warm)
        .map(|(end, start)| (end - start) as f64 / rate)
        .sum();

    let span = tracer.begin("telemetry.snapshot", Some(root));
    let snap = sys.metrics();
    tracer.end(span);
    if tracer.enabled() {
        tracer.scope("telemetry.json_lines", Some(root), || {
            snap.to_json_lines().len()
        });
    }

    let (failed, learned) = blocks(&sys);
    let fail_fraction = if learned == 0 {
        1.0
    } else {
        (failed as f64 / learned as f64).min(1.0)
    };

    // Skew: speaker 0 against the workload's peers, correlated over a
    // window anchored mid-stream.
    let mid = SimTime::from_millis(stream_secs * 500);
    let offsets: Vec<Option<SimDuration>> = skew_peers
        .iter()
        .map(|&k| sys.playback_offset(0, k, mid, SimDuration::from_millis(50)))
        .collect();
    let locked: Vec<u64> = offsets.iter().flatten().map(|d| d.as_micros()).collect();
    m.notes
        .insert("skew_pairs_sampled".into(), offsets.len() as f64);
    m.notes
        .insert("skew_pairs_locked".into(), locked.len() as f64);

    let slack = merged_slack(&snap);
    let tail_p = stats::low_tail_percentile(slack.count()).unwrap_or(0.5);
    m.notes.insert("slack_samples".into(), slack.count() as f64);
    m.notes
        .insert("slack_tail_percentile".into(), tail_p * 100.0);

    let join = watch.since_power_on(&watch.joined);
    let lan = sys.lan().stats();
    let e2e = [
        ("setup_s", setup_s),
        ("x_realtime", audio_s / wall_timed_s.max(1e-9)),
        ("fail_fraction", fail_fraction),
        (
            "skew_us_max",
            locked.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("join_ms_p50", stats::median(&join).unwrap_or(0.0)),
        ("join_ms_max", join.iter().copied().fold(0.0, f64::max)),
        ("slack_ms_p50", slack.quantile(0.5) as f64 / 1e3),
        ("slack_ms_tail", slack.quantile(tail_p) as f64 / 1e3),
        (
            "wire_kbps",
            lan.wire_bytes_sent as f64 * 8.0 / 1e3 / stream_secs as f64,
        ),
    ];
    m.e2e = e2e.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    m.notes.insert("blocks_learned".into(), learned as f64);
    m.notes.insert("blocks_failed".into(), failed as f64);
    m.notes.insert("audio_s_timed".into(), audio_s);

    m.violations = gate(&watch.power_on, end_s, &played, clean, fail_fraction);

    counts(&mut m.counts, &sys, &snap, stream_secs);
    let setup = watch.since_power_on(&watch.established);
    m.counts.insert(
        "core.session_setup_virtual_ms".into(),
        stats::median(&setup).unwrap_or(0.0),
    );
    let span = tracer.begin("drop", Some(root));
    drop(snap);
    drop(sys);
    tracer.end(span);
    tracer.end(root);
    m.e2e.insert("peak_rss_mb".into(), peak_rss_mb());
    let captured = tap.map_or_else(Vec::new, |t| t.take());
    (m, captured)
}

/// `(failed, learned)` blocks over all powered speakers. Failed = not
/// written to the device by their deadline. The categories are
/// disjoint in speaker.rs except one corner — a concealment replica
/// that is itself discarded late counts in both `concealed_packets`
/// and `dropped_late` — so callers cap the ratio at 1. `data_packets`
/// counts device writes (real and replica), so the blocks a speaker
/// learned of are its writes plus the real arrivals it could not
/// write.
fn blocks(sys: &EsSystem) -> (u64, u64) {
    let (mut failed, mut learned) = (0u64, 0u64);
    for i in 0..sys.speaker_count() {
        let Some(st) = sys.speaker(i).map(|s| s.stats()) else {
            continue;
        };
        let unwritten = st.dropped_late + st.decode_errors + st.dropped_busy + st.bad_packets;
        failed += unwritten + st.concealed_packets;
        learned += unwritten + st.data_packets;
    }
    (failed, learned)
}

/// Every `speaker/*/deadline_slack_us` histogram of a snapshot, merged.
fn merged_slack(snap: &MetricsSnapshot) -> Histogram {
    let mut slack = Histogram::new();
    for metric in snap.iter() {
        if let MetricValue::Histogram(h) = &metric.value {
            if metric.key.component == "speaker" && metric.key.name == "deadline_slack_us" {
                slack.merge(h);
            }
        }
    }
    slack
}

/// The per-run correctness gate: every speaker powered before the end
/// played something; a clean workload lost nothing and all its
/// speakers played the same amount.
fn gate(
    power_on: &[SimDuration],
    end_s: u64,
    played: &[u64],
    clean: bool,
    fail_fraction: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, on) in power_on.iter().enumerate() {
        if on.as_millis() < end_s * 1_000 && played[i] == 0 {
            violations.push(format!("speaker {i} was powered but played nothing"));
        }
    }
    if played.is_empty() {
        violations.push("no speakers".into());
    }
    if clean {
        if fail_fraction != 0.0 {
            violations.push(format!(
                "clean workload lost blocks: fail_fraction = {fail_fraction}"
            ));
        }
        if played.iter().any(|&p| p != played[0]) {
            violations.push("speakers disagree on samples_played".into());
        }
    }
    violations
}

/// The exact per-layer counts, read from the system's own stats
/// structs at the end of a run (layer = crate name).
fn counts(
    out: &mut BTreeMap<String, f64>,
    sys: &EsSystem,
    snap: &MetricsSnapshot,
    stream_secs: u64,
) {
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    let speakers = sys.speaker_count().max(1) as f64;
    let events = sys.sim.events_processed() as f64;
    put("sim.events", events);
    put(
        "sim.events_per_speaker_s",
        events / (speakers * stream_secs as f64),
    );
    put("sim.merge_scans", sys.sim.merge_scans() as f64);
    put(
        "sim.cross_segment_posts",
        sys.lan().cross_segment_posts() as f64,
    );

    let lan = sys.lan().stats();
    put("net.datagrams_sent", lan.datagrams_sent as f64);
    put("net.datagrams_delivered", lan.datagrams_delivered as f64);
    put("net.datagrams_lost", lan.datagrams_lost as f64);
    put("net.fanout", lan.multicast_fanout());
    put("net.wire_bytes", lan.wire_bytes_sent as f64);

    let rb = sys.rebroadcaster(0).stats();
    put("rebroadcast.data_packets", rb.data_packets as f64);
    put("rebroadcast.control_packets", rb.control_packets as f64);
    put("rebroadcast.retransmits_sent", rb.retransmits_sent as f64);
    put("rebroadcast.compression_ratio", rb.compression_ratio());
    let relays: Vec<_> = (0..sys.relay_count())
        .filter_map(|i| sys.relay(i).map(|r| r.stats()))
        .collect();
    put(
        "rebroadcast.relay_forwarded",
        relays
            .iter()
            .map(|r| r.data_relayed + r.control_relayed + r.parity_relayed + r.parity_stale)
            .sum::<u64>() as f64,
    );
    put(
        "rebroadcast.relay_parity_stale",
        relays.iter().map(|r| r.parity_stale).sum::<u64>() as f64,
    );

    let mut total = es_speaker::SpeakerStats::default();
    let (mut established, mut attempts) = (0u64, 0u64);
    for i in 0..sys.speaker_count() {
        if let Some(st) = sys.speaker(i).map(|s| s.stats()) {
            total.datagrams += st.datagrams;
            total.data_packets += st.data_packets;
            total.dropped_late += st.dropped_late;
            total.concealed_packets += st.concealed_packets;
            total.fec_recovered += st.fec_recovered;
            total.dropped_duplicate += st.dropped_duplicate;
            total.dropped_waiting_control += st.dropped_waiting_control;
            total.refills_received += st.refills_received;
            total.refill_late += st.refill_late;
            total.playback_resyncs += st.playback_resyncs;
            total.decode_work_units += st.decode_work_units;
        }
        if let Some((_, setups, est, _)) = sys.session(i).map(|s| s.client_counts()) {
            established += est;
            attempts += setups;
        }
    }
    put("speaker.datagrams", total.datagrams as f64);
    put("speaker.data_packets", total.data_packets as f64);
    put("speaker.dropped_late", total.dropped_late as f64);
    put("speaker.concealed_packets", total.concealed_packets as f64);
    put("speaker.fec_recovered", total.fec_recovered as f64);
    put("speaker.dropped_duplicate", total.dropped_duplicate as f64);
    put(
        "speaker.dropped_waiting_control",
        total.dropped_waiting_control as f64,
    );
    put("speaker.refills_received", total.refills_received as f64);
    put("speaker.refill_late", total.refill_late as f64);
    put("speaker.playback_resyncs", total.playback_resyncs as f64);
    put("speaker.decode_work_units", total.decode_work_units as f64);
    put(
        "codec.decode_redundancy",
        total.data_packets as f64 / (rb.data_packets.max(1)) as f64,
    );

    put("telemetry.snapshot_metrics", snap.len() as f64);
    put("telemetry.journal_events", sys.journal().len() as f64);
    put("core.sessions_established", established as f64);
    put("core.session_setup_attempts", attempts as f64);

    let heal = sys.heal().map(|h| h.stats()).unwrap_or_default();
    put("heal.epochs", heal.epochs as f64);
    put(
        "heal.actions",
        (heal.fec_raises
            + heal.fec_lowers
            + heal.retransmits_requested
            + heal.failovers
            + heal.recoveries) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(speaker_group: McastGroup) -> Built {
        let sys = SystemBuilder::new(7)
            .fleet_threads(1)
            .sim_shards(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "tiny").duration(SimDuration::from_secs(2)))
            .speaker(SpeakerSpec::new("es0", speaker_group))
            .build();
        Built {
            sys,
            stream_secs: 2,
            power_on: vec![SimDuration::ZERO],
            groups: vec![McastGroup(1)],
            skew_peers: Vec::new(),
            clean: true,
        }
    }

    #[test]
    fn a_run_that_plays_nothing_reads_zero_and_fails_the_gate() {
        // Nominal audio seconds over wall would report a record here;
        // x_realtime counts samples actually played. The speaker is
        // tuned to a group no producer sends on.
        let mut off = Tracer::new(false);
        let (m, captured) = measure(Instant::now(), &mut off, false, || tiny(McastGroup(99)));
        assert_eq!(m.e2e["x_realtime"], 0.0);
        assert_eq!(m.e2e["fail_fraction"], 1.0, "nothing learned is all failed");
        assert!(
            m.violations.iter().any(|v| v.contains("played nothing")),
            "{:?}",
            m.violations
        );
        assert!(captured.is_empty(), "no tap was asked for");
    }

    #[test]
    fn a_clean_run_passes_the_gate_and_reports_all_ten_metrics() {
        let mut on = Tracer::new(true);
        let (m, captured) = measure(Instant::now(), &mut on, true, || tiny(McastGroup(1)));
        assert_eq!(m.violations, Vec::<String>::new());
        for (name, ..) in crate::metrics::END_TO_END {
            assert!(m.e2e.contains_key(name), "{name} missing");
        }
        assert!(m.e2e["x_realtime"] > 1.0);
        assert_eq!(m.e2e["fail_fraction"], 0.0);
        // Timed region = virtual 1 s → 3 s; the stream ends at 2 s and
        // its last 200 ms of playout delay drain after that.
        assert!(m.notes["audio_s_timed"] > 1.0 && m.notes["audio_s_timed"] < 1.5);
        assert!(m.wall_timed_s > 0.0 && m.host_speed > 0.0);
        assert_eq!(m.e2e["join_ms_p50"] % SLICE_MS as f64, 0.0);
        // The tap saw control and data packets on the channel's group,
        // and the tracer one slice span per virtual second.
        assert!(captured.len() > 40 && captured.iter().all(|c| c.group == McastGroup(1)));
        assert_eq!(on.durations_of("run.slice").len(), 3);
        assert_eq!(on.durations_of("core.build").len(), 1);
    }
}
