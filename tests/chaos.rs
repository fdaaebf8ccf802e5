//! The chaos conformance suite: eight named fault scenarios, each run
//! twice with the same seed ([`es_chaos::conformance`]) so that any
//! nondeterminism fails before the recovery invariants are even
//! evaluated. On failure every assertion prints the reproducing
//! one-liner, e.g. `ES_CHAOS_SEED=42 cargo test --test chaos burst_loss`.
//!
//! Scenario shape (see EXPERIMENTS.md for the format): one CD channel
//! streaming 5 virtual seconds, two or three speakers, a 7-second run,
//! probes bracketing each fault phase.

use es_chaos::{conformance, Fault, Scenario};
use es_net::LanConfig;
use es_sim::SimDuration;

const STREAM: SimDuration = SimDuration::from_secs(5);
const RUN: SimDuration = SimDuration::from_secs(7);

/// Offset assertion helper: the probe's measured playback offset
/// between speaker 0 and every other speaker must be within `ms`.
fn offsets_within(probe: &es_chaos::Probe, ms: u64) -> Result<(), String> {
    for (i, off) in probe.offsets.iter().enumerate() {
        match off {
            Some(d) if *d <= SimDuration::from_millis(ms) => {}
            Some(d) => {
                return Err(format!(
                    "speaker {} is {} behind speaker 0 (allowed {ms} ms)",
                    i + 1,
                    d
                ))
            }
            None => return Err(format!("speaker {}: no correlation lock", i + 1)),
        }
    }
    Ok(())
}

/// Gilbert–Elliott bursts at ~8% long-run fragment loss, mean burst
/// of 8 fragments. PLC conceals the gaps; playback never stalls and
/// the speakers stay aligned.
fn burst_loss_scenario() -> Scenario {
    Scenario::new("burst_loss", 42)
        .lan(LanConfig::bursty(0.08, 8.0))
        .clicks()
        .conceal_loss()
        .stream_for(STREAM)
        .run_for(RUN)
        .probe(SimDuration::from_secs(5))
        .check("bursts-actually-dropped", |t| {
            let m = &t.final_probe().metrics;
            let dropped = m.counter("net/lan0/frames_dropped").unwrap_or(0);
            if dropped == 0 {
                return Err("burst model dropped nothing".into());
            }
            Ok(())
        })
        .check("speakers-keep-playing", |t| {
            let m = &t.final_probe().metrics;
            for spk in ["es0", "es1"] {
                let played = m
                    .counter(&format!("speaker/{spk}/samples_played"))
                    .unwrap_or(0);
                // 5 s of CD stereo is 441 000 interleaved samples;
                // demand at least 80% despite the bursts.
                if played < 350_000 {
                    return Err(format!("{spk} played only {played} samples"));
                }
            }
            Ok(())
        })
        .check("gaps-concealed", |t| {
            let concealed = t
                .final_probe()
                .metrics
                .sum_counters("speaker", "concealed_packets");
            if concealed == 0 {
                return Err("PLC never engaged under burst loss".into());
            }
            Ok(())
        })
        .check("speakers-in-sync", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn burst_loss() {
    conformance(&burst_loss_scenario());
}

/// 20% of deliveries held back 70 ms — past the 50 ms packet
/// spacing (so sequence numbers genuinely invert at the speakers)
/// yet well inside the 200 ms playout delay, so reordering must
/// cost nothing: no deadline misses, no lost audio.
fn reorder_scenario() -> Scenario {
    Scenario::new("reorder", 43)
        .lan(LanConfig::reordering(0.2, SimDuration::from_millis(70)))
        .clicks()
        .stream_for(STREAM)
        .run_for(RUN)
        .probe(SimDuration::from_secs(5))
        .check("reordering-happened", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("net/lan0/frames_reordered").unwrap_or(0) == 0 {
                return Err("no deliveries were reordered".into());
            }
            let seen = m.sum_counters("speaker", "quality_reordered");
            if seen == 0 {
                return Err("speakers never observed out-of-order arrival".into());
            }
            Ok(())
        })
        .check("playout-delay-absorbs-it", |t| {
            let m = &t.final_probe().metrics;
            let late = m.sum_counters("speaker", "deadline_misses");
            if late > 0 {
                return Err(format!("{late} deadline misses from 30 ms holds"));
            }
            if m.counter("net/lan0/frames_dropped").unwrap_or(0) > 0 {
                return Err("reorderer must never drop".into());
            }
            Ok(())
        })
        .check("speakers-in-sync", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn reorder() {
    conformance(&reorder_scenario());
}

/// Half of all deliveries are duplicated. The speakers' sequence
/// filter must make the storm inaudible: every timestamp plays
/// exactly once.
fn duplicate_storm_scenario() -> Scenario {
    Scenario::new("duplicate_storm", 44)
        .lan(LanConfig::duplicating(0.5))
        .clicks()
        .stream_for(STREAM)
        .run_for(RUN)
        .probe(SimDuration::from_secs(5))
        .check("storm-happened", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("net/lan0/frames_duplicated").unwrap_or(0) == 0 {
                return Err("no duplicates were created".into());
            }
            Ok(())
        })
        .check("every-copy-suppressed", |t| {
            let m = &t.final_probe().metrics;
            let produced = m.counter("rebroadcast/ch0/data_packets").unwrap_or(0);
            for spk in ["es0", "es1"] {
                let dup = m
                    .counter(&format!("speaker/{spk}/dropped_duplicate"))
                    .unwrap_or(0);
                if dup == 0 {
                    return Err(format!("{spk} never saw a duplicate"));
                }
                let played = m
                    .counter(&format!("speaker/{spk}/data_packets"))
                    .unwrap_or(0);
                if played > produced {
                    return Err(format!(
                        "{spk} played {played} packets but only {produced} were produced"
                    ));
                }
            }
            Ok(())
        })
        .check("no-doubled-audio", |t| {
            let m = &t.final_probe().metrics;
            // 5 s of CD stereo = 441 000 interleaved samples; a
            // doubled packet would push a speaker past the total.
            for spk in ["es0", "es1"] {
                let played = m
                    .counter(&format!("speaker/{spk}/samples_played"))
                    .unwrap_or(0);
                if played > 441_100 {
                    return Err(format!("{spk} played {played} samples — duplicates leaked"));
                }
            }
            Ok(())
        })
        .check("speakers-in-sync", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn duplicate_storm() {
    conformance(&duplicate_storm_scenario());
}

/// Speaker 1 goes dark from 1.5 s to 3 s. While partitioned its
/// deliveries drop; after the heal it must resync within epsilon and
/// the drop counters must stop growing.
fn partition_and_heal_scenario() -> Scenario {
    Scenario::new("partition_and_heal", 45)
        .clicks()
        .speakers(3)
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(1_500),
            Fault::PartitionSpeaker {
                speaker: 1,
                duration: SimDuration::from_millis(1_500),
            },
        )
        .probe(SimDuration::from_millis(3_500))
        .probe(SimDuration::from_secs(5))
        .check("partition-dropped-traffic", |t| {
            let m = &t.final_probe().metrics;
            let part = m.counter("net/lan0/frames_partitioned").unwrap_or(0);
            if part == 0 {
                return Err("partition window dropped nothing".into());
            }
            Ok(())
        })
        .check("drops-stop-after-heal", |t| {
            let mid = t.probe_at(SimDuration::from_millis(3_500)).unwrap();
            let end = t.final_probe();
            let grew = end
                .metrics
                .counter_delta(&mid.metrics, "net/lan0/frames_partitioned")
                .unwrap();
            if grew > 0 {
                return Err(format!("{grew} partitioned drops after the heal"));
            }
            let dropped = end
                .metrics
                .counter_delta(&mid.metrics, "net/lan0/frames_dropped")
                .unwrap();
            if dropped > 0 {
                return Err(format!("frames_dropped kept growing: +{dropped}"));
            }
            Ok(())
        })
        .check("partitioned-speaker-recovers", |t| {
            let mid = t.probe_at(SimDuration::from_millis(3_500)).unwrap();
            let end = t.final_probe();
            let caught_up = end
                .metrics
                .counter_delta(&mid.metrics, "speaker/es1/datagrams")
                .unwrap();
            if caught_up == 0 {
                return Err("speaker es1 heard nothing after the heal".into());
            }
            Ok(())
        })
        .check("resynced-within-epsilon", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
        .check("journal-records-the-window", |t| {
            for needle in ["receiver partitioned", "receiver partition healed"] {
                if !t.journal_lines.contains(needle) {
                    return Err(format!("journal missing {needle:?}"));
                }
            }
            Ok(())
        })
}

#[test]
fn partition_and_heal() {
    conformance(&partition_and_heal_scenario());
}

/// The rebroadcaster dies at 1.5 s and comes back at 3 s: a control
/// packet gap on top of a data gap. Speakers must resume playback
/// and realign from the restart's immediate control packet.
fn producer_restart_scenario() -> Scenario {
    Scenario::new("producer_restart", 46)
        .clicks()
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(1_500),
            Fault::CrashProducer { channel: 0 },
        )
        .at(
            SimDuration::from_secs(3),
            Fault::RestartProducer { channel: 0 },
        )
        .probe(SimDuration::from_secs(3))
        .probe(SimDuration::from_secs(5))
        .check("crash-recorded", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("rebroadcast/ch0/crashes") != Some(1) {
                return Err("exactly one crash expected".into());
            }
            if m.counter("rebroadcast/ch0/crash_dropped_blocks")
                .unwrap_or(0)
                == 0
            {
                return Err("the outage dropped no audio blocks".into());
            }
            for needle in ["rebroadcaster crashed", "rebroadcaster restarted"] {
                if !t.journal_lines.contains(needle) {
                    return Err(format!("journal missing {needle:?}"));
                }
            }
            Ok(())
        })
        .check("stream-resumes", |t| {
            let down = t.probe_at(SimDuration::from_secs(3)).unwrap();
            let end = t.final_probe();
            for name in ["data_packets", "control_packets"] {
                for spk in ["es0", "es1"] {
                    let path = format!("speaker/{spk}/{name}");
                    let delta = end.metrics.counter_delta(&down.metrics, &path).unwrap();
                    if delta == 0 {
                        return Err(format!("{path} froze after the restart"));
                    }
                }
            }
            Ok(())
        })
        .check("speakers-in-sync-after-restart", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn producer_restart() {
    conformance(&producer_restart_scenario());
}

/// A clean LAN develops 5 ms Gaussian jitter mid-run, then calms
/// down — two scheduled LanConfig transitions. The 200 ms playout
/// delay must swallow the spike: zero deadline misses throughout.
fn jitter_spike_scenario() -> Scenario {
    Scenario::new("jitter_spike", 47)
        .clicks()
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(1_500),
            Fault::Lan(LanConfig::lossy(0.0, SimDuration::from_millis(5))),
        )
        .at(
            SimDuration::from_millis(3_500),
            Fault::Lan(LanConfig::default()),
        )
        .probe(SimDuration::from_secs(5))
        .check("transitions-journaled", |t| {
            let n = t.journal_lines.matches("lan configuration changed").count();
            if n != 2 {
                return Err(format!("{n} config transitions journaled, wanted 2"));
            }
            Ok(())
        })
        .check("no-audio-lost-to-jitter", |t| {
            let m = &t.final_probe().metrics;
            let late = m.sum_counters("speaker", "deadline_misses");
            if late > 0 {
                return Err(format!("{late} deadline misses from a 5 ms spike"));
            }
            for spk in ["es0", "es1"] {
                let played = m
                    .counter(&format!("speaker/{spk}/samples_played"))
                    .unwrap_or(0);
                if played < 430_000 {
                    return Err(format!("{spk} played only {played} samples"));
                }
            }
            Ok(())
        })
        .check("speakers-in-sync", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn jitter_spike() {
    conformance(&jitter_spike_scenario());
}

/// The full session lifecycle over the control plane: both speakers
/// join by handshake (discover → setup → stream), the broker flushes
/// every session mid-run, then tears down speaker 1's session — which
/// auto-rejoins by re-discovering. The whole dance must be journaled
/// and deterministic.
fn session_lifecycle_scenario() -> Scenario {
    Scenario::new("session_lifecycle", 48)
        .negotiated()
        .stream_for(STREAM)
        .run_for(RUN)
        .at(SimDuration::from_secs(3), Fault::FlushSessions)
        .at(
            SimDuration::from_secs(4),
            Fault::TeardownSpeaker { speaker: 1 },
        )
        .probe(SimDuration::from_millis(2_800))
        .probe(SimDuration::from_secs(5))
        .check("sessions-negotiated", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("session/broker/acks").unwrap_or(0) < 2 {
                return Err("broker granted fewer than 2 sessions".into());
            }
            for spk in ["es0", "es1"] {
                let est = m
                    .counter(&format!("session/{spk}/sessions_established"))
                    .unwrap_or(0);
                if est == 0 {
                    return Err(format!("{spk} never established a session"));
                }
            }
            if !t.journal_lines.contains("session established") {
                return Err("journal missing \"session established\"".into());
            }
            Ok(())
        })
        .check("flush-resyncs-every-speaker", |t| {
            let m = &t.final_probe().metrics;
            for spk in ["es0", "es1"] {
                let re = m
                    .counter(&format!("speaker/{spk}/session_resyncs"))
                    .unwrap_or(0);
                if re == 0 {
                    return Err(format!("{spk} never resynced on FLUSH"));
                }
            }
            if !t.journal_lines.contains("session flush resync") {
                return Err("journal missing the flush resync".into());
            }
            Ok(())
        })
        .check("teardown-then-rejoin", |t| {
            let m = &t.final_probe().metrics;
            if !t.journal_lines.contains("session closed") {
                return Err("journal missing \"session closed\"".into());
            }
            // es1 re-established after the broker tore it down.
            let est = m.counter("session/es1/sessions_established").unwrap_or(0);
            if est < 2 {
                return Err(format!("es1 established {est} sessions, wanted ≥ 2"));
            }
            Ok(())
        })
        .check("audio-flows-throughout", |t| {
            let m = &t.final_probe().metrics;
            for (spk, floor) in [("es0", 300_000), ("es1", 200_000)] {
                let played = m
                    .counter(&format!("speaker/{spk}/samples_played"))
                    .unwrap_or(0);
                if played < floor {
                    return Err(format!("{spk} played only {played} samples"));
                }
            }
            Ok(())
        })
        .check("speakers-in-sync-pre-flush", |t| {
            offsets_within(t.probe_at(SimDuration::from_millis(2_800)).unwrap(), 60)
        })
}

#[test]
fn session_lifecycle() {
    conformance(&session_lifecycle_scenario());
}

/// Speaker 1 is partitioned before its first DISCOVER can be answered
/// — the OFFER/SETUP exchange is cut mid-handshake. While dark it
/// keeps retrying; after the heal, re-discovery must converge: the
/// journal shows the late establishment and both speakers end up in
/// granted sessions. Looped over seeds to show convergence is not a
/// fluke of one schedule.
fn session_partition_scenario(seed: u64) -> Scenario {
    Scenario::new("session_partition_mid_handshake", seed)
        .negotiated()
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(5),
            Fault::PartitionSpeaker {
                speaker: 1,
                duration: SimDuration::from_millis(1_200),
            },
        )
        .probe(SimDuration::from_secs(5))
        .check("handshake-was-cut", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("net/lan0/frames_partitioned").unwrap_or(0) == 0 {
                return Err("the partition dropped nothing".into());
            }
            Ok(())
        })
        .check("rediscovery-converges", |t| {
            let m = &t.final_probe().metrics;
            // The partitioned speaker had to retry discovery…
            let discovers = m.counter("session/es1/discovers_sent").unwrap_or(0);
            if discovers < 2 {
                return Err(format!("es1 sent {discovers} DISCOVERs, wanted ≥ 2"));
            }
            // …and still ended up established, like its healthy peer.
            for spk in ["es0", "es1"] {
                let est = m
                    .counter(&format!("session/{spk}/sessions_established"))
                    .unwrap_or(0);
                if est == 0 {
                    return Err(format!("{spk} never established"));
                }
            }
            if !t.journal_lines.contains("session established") {
                return Err("journal missing the re-discovery".into());
            }
            Ok(())
        })
        .check("late-joiner-still-plays", |t| {
            let m = &t.final_probe().metrics;
            let played = m.counter("speaker/es1/samples_played").unwrap_or(0);
            if played < 200_000 {
                return Err(format!("es1 played only {played} samples after healing"));
            }
            Ok(())
        })
}

#[test]
fn session_partition_mid_handshake() {
    // conformance() runs each seed twice and demands byte-identical
    // fingerprints — final samples_played included — so every seed
    // proves deterministic convergence, not just seed 52.
    for seed in [52, 53, 54] {
        conformance(&session_partition_scenario(seed));
    }
}
