//! The healing conformance suite: five named recovery scenarios for
//! the self-healing plane (DESIGN.md §10), each run through
//! [`es_chaos::conformance`] — twice per seed, byte-identical
//! fingerprints demanded — so a repair that only works on one event
//! schedule fails before its invariants are even evaluated. On failure
//! every assertion prints the reproducing one-liner, e.g.
//! `ES_CHAOS_SEED=61 cargo test --test healing producer_failover`.
//! Fleet-sized runs at the end hold receiver-originated repair to its
//! deadline, for statically wired and negotiated speakers alike — and
//! past the death of the producer that was doing the repairing.
//!
//! Scenario shape matches the chaos tier: one CD channel streaming
//! 5 virtual seconds, two or three speakers, a 7-second run, probes
//! bracketing each fault phase — plus a [`HealSpec`] so the monitor
//! epochs tick throughout.

use es_chaos::{conformance, Fault, Scenario, Trace};
use es_core::{ChannelSpec, HealSpec, SessionSpec, Source, SpeakerSpec, SystemBuilder};
use es_heal::HealPolicy;
use es_net::{LanConfig, McastGroup};
use es_sim::{SimDuration, SimTime};
use es_telemetry::MetricsSnapshot;

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

/// Speaker es1 sits behind a lossy leaf link (35% sustained loss for
/// three seconds — high enough that the NACK refill cannot mask the
/// loss fraction below the sick threshold at any check.sh matrix
/// seed). The detector must report it sick after its hysteresis
/// window, then report it recovered after the link heals.
fn sick_receiver_scenario() -> Scenario {
    Scenario::new("sick_receiver_detected_and_recovered", 61)
        .test_binary("healing")
        .clicks()
        .healing(HealSpec::new())
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(500),
            Fault::DegradeSpeaker {
                speaker: 1,
                loss: 0.35,
                duration: SimDuration::from_secs(3),
            },
        )
        .probe(SimDuration::from_secs(5))
        .check("leaf-link-actually-lossy", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("net/lan0/frames_degraded").unwrap_or(0) == 0 {
                return Err("the degraded link dropped nothing".into());
            }
            Ok(())
        })
        .check("recovered-after-the-link-heals", |t| {
            // A recovery is reported only for a receiver that was
            // reported Sick: once the degrade window closes, es1 goes
            // healthy again and the detector must say so.
            let m = &t.final_probe().metrics;
            if m.counter("heal/heal0/recoveries").unwrap_or(0) == 0 {
                return Err("es1 was never reported recovered".into());
            }
            if !t.journal_lines.contains("receiver recovered") {
                return Err("journal missing \"receiver recovered\"".into());
            }
            Ok(())
        })
        .check("receiver-keeps-playing", |t| {
            let m = &t.final_probe().metrics;
            // 5 s of CD stereo is 441 000 interleaved samples; demand
            // at least 80% despite 3 s of 35% loss.
            let played = m.counter("speaker/es1/samples_played").unwrap_or(0);
            if played < 350_000 {
                return Err(format!("es1 played only {played} samples"));
            }
            Ok(())
        })
        .check("monitor-kept-its-epochs", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("heal/heal0/epochs").unwrap_or(0) < 10 {
                return Err("healing monitor missed epochs over a 7 s run".into());
            }
            Ok(())
        })
}

#[test]
fn sick_receiver_detected_and_recovered() {
    conformance(&sick_receiver_scenario());
}

/// Loss concealment stays OFF and the playout delay is stretched to
/// 800 ms, so the only way es1 can play through a 50% loss window is
/// its own NACKs reaching the producer, which re-multicasts the cached
/// packets in time for their (delayed) deadlines.
fn neighbor_retransmit_scenario() -> Scenario {
    Scenario::new("neighbor_retransmit_fills_gap", 62)
        .test_binary("healing")
        .clicks()
        .playout_delay(SimDuration::from_millis(800))
        .healing(HealSpec::new().epoch(SimDuration::from_millis(250)))
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(1_000),
            Fault::DegradeSpeaker {
                speaker: 1,
                loss: 0.5,
                duration: SimDuration::from_millis(1_500),
            },
        )
        .probe(SimDuration::from_secs(5))
        .check("gaps-were-nacked", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("speaker/es1/nacks_sent").unwrap_or(0) == 0 {
                return Err("es1 never sent a NACK".into());
            }
            if m.counter("heal/heal0/retransmits_requested").unwrap_or(0) == 0 {
                return Err("the monitor never counted a NACK".into());
            }
            Ok(())
        })
        .check("producer-refilled-them", |t| {
            let m = &t.final_probe().metrics;
            let sent = m.counter("rebroadcast/ch0/retransmits_sent").unwrap_or(0);
            if sent == 0 {
                return Err("producer re-multicast nothing".into());
            }
            if !t.journal_lines.contains("retransmitted missed packets") {
                return Err("journal missing the producer's retransmit record".into());
            }
            Ok(())
        })
        .check("refill-reaches-the-ear", |t| {
            let m = &t.final_probe().metrics;
            // 5 s of CD stereo is 441 000 interleaved samples. A 1.5 s
            // window of 50% loss with no PLC and no refill would strip
            // roughly 66 000 of them; demand the refill wins most back.
            // (Measured across the check.sh seed matrix 61/62/63 the
            // refill leaves 418 950–432 180 played.)
            let played = m.counter("speaker/es1/samples_played").unwrap_or(0);
            if played < 395_000 {
                return Err(format!(
                    "es1 played only {played} samples — gap not refilled"
                ));
            }
            Ok(())
        })
        .check("speakers-in-sync", |t| {
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn neighbor_retransmit_fills_gap() {
    conformance(&neighbor_retransmit_scenario());
}

/// The primary rebroadcaster dies at 1.5 s and never restarts. The
/// monitor sees the control-packet counter stall, promotes the warm
/// standby — which adopts the stream clock and sequence space — and
/// playback resumes without the speakers ever re-tuning.
fn producer_failover_scenario(seed: u64) -> Scenario {
    Scenario::new("producer_failover_preserves_clock", seed)
        .test_binary("healing")
        .clicks()
        .healing(HealSpec::new().standby())
        .stream_for(STREAM)
        .run_for(RUN)
        .at(
            SimDuration::from_millis(1_500),
            Fault::CrashProducer { channel: 0 },
        )
        .probe(SimDuration::from_secs(3))
        .probe(SimDuration::from_secs(5))
        .check("failover-happened-once", |t| {
            let m = &t.final_probe().metrics;
            if m.counter("heal/heal0/failovers") != Some(1) {
                return Err("expected exactly one failover".into());
            }
            if !t
                .journal_lines
                .contains("standby promoted after control stall")
            {
                return Err("journal missing the promotion".into());
            }
            Ok(())
        })
        .check("standby-carries-the-stream", |t| {
            let down = t.probe_at(SimDuration::from_secs(3)).unwrap();
            let end = t.final_probe();
            if end
                .metrics
                .counter("rebroadcast/standby0/data_packets")
                .unwrap_or(0)
                == 0
            {
                return Err("the standby never sent audio".into());
            }
            for name in ["data_packets", "control_packets"] {
                for spk in ["es0", "es1"] {
                    let path = format!("speaker/{spk}/{name}");
                    let delta = end.metrics.counter_delta(&down.metrics, &path).unwrap();
                    if delta == 0 {
                        return Err(format!("{path} froze after the failover"));
                    }
                }
            }
            Ok(())
        })
        .check("clock-survives-the-handover", |t| {
            // The standby adopted the primary's stream position and
            // origin; a clock jump would show as a sync offset blowout.
            offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
        })
}

#[test]
fn producer_failover_preserves_clock() {
    // The acceptance bar: across seeds the failover path must be
    // *identically* lossy — per-speaker samples_played may not diverge
    // by a single sample, because the crash instant, the stall
    // detection and the promotion all ride the virtual clock, not the
    // seed-dependent jitter.
    let mut baseline: Option<Vec<(String, u64)>> = None;
    for seed in [61u64, 62, 63] {
        let trace = conformance(&producer_failover_scenario(seed));
        let played: Vec<(String, u64)> = trace
            .final_probe()
            .metrics
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
        assert!(
            !played.is_empty(),
            "{}: probe saw no speakers",
            trace.repro()
        );
        match &baseline {
            None => baseline = Some(played),
            Some(base) => assert_eq!(
                base,
                &played,
                "{}: samples_played diverged across seeds",
                trace.repro()
            ),
        }
    }
}

/// Speaker es1's link flaps: 300 ms dropouts, shorter than the
/// detector's `sick_after` hysteresis at 500 ms epochs. The damping
/// must hold — the bursts are counted as suppressed flaps and es1 is
/// never reported Sick, because reporting every blip would make the
/// fleet's health read as noise.
///
/// Each burst drops everything: it covers about 6 of an epoch's 10
/// blocks, so however it straddles the epoch boundary at least one
/// epoch is sick. At 50 % loss instead, about one burst in nine lost
/// ≤ 1 block, stayed under the 15 % threshold and was rightly not a
/// flap — seed 4 saw only one. The scenario keeps its conservative
/// geometry otherwise — flaps 1.5 s apart (a clean epoch between
/// bursts) and the detector one hysteresis notch above default — so
/// it guards damping, not the refill-echo fix.
fn flapping_receiver_scenario() -> Scenario {
    let policy = HealPolicy { sick_after: 3 };
    let mut sc = Scenario::new("flapping_receiver_damped", 64)
        .test_binary("healing")
        .clicks()
        .healing(HealSpec::new().policy(policy))
        .stream_for(STREAM)
        .run_for(RUN)
        .probe(SimDuration::from_secs(5));
    for start_ms in [300u64, 1_800, 3_300] {
        sc = sc.at(
            SimDuration::from_millis(start_ms),
            Fault::DegradeSpeaker {
                speaker: 1,
                loss: 1.0,
                duration: SimDuration::from_millis(300),
            },
        );
    }
    sc.check("flaps-actually-dropped", |t| {
        let m = &t.final_probe().metrics;
        if m.counter("net/lan0/frames_degraded").unwrap_or(0) == 0 {
            return Err("the flapping link dropped nothing".into());
        }
        Ok(())
    })
    .check("flaps-suppressed-not-acted-on", |t| {
        let m = &t.final_probe().metrics;
        let suppressed = m.counter("heal/heal0/suppressed_flaps").unwrap_or(0);
        if suppressed < 2 {
            return Err(format!(
                "only {suppressed} suppressed flaps — hysteresis not engaging"
            ));
        }
        // Only a receiver reported Sick can recover.
        if m.counter("heal/heal0/recoveries").unwrap_or(0) != 0 {
            return Err("a sub-hysteresis flap was reported Sick".into());
        }
        Ok(())
    })
    .check("speakers-in-sync", |t| {
        offsets_within(t.probe_at(SimDuration::from_secs(5)).unwrap(), 60)
    })
}

#[test]
fn flapping_receiver_damped() {
    conformance(&flapping_receiver_scenario());
}

/// Per-speaker `samples_played` at a trace's final probe.
fn samples_played(trace: &Trace) -> Vec<(String, u64)> {
    let played: Vec<(String, u64)> = trace
        .final_probe()
        .metrics
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
    assert!(
        !played.is_empty(),
        "{}: probe saw no speakers",
        trace.repro()
    );
    played
}

/// Two runs of one scenario that nothing observable may tell apart.
fn assert_indistinguishable(base: &Trace, other: &Trace, between: &str) {
    assert_eq!(
        base.fingerprint(),
        other.fingerprint(),
        "{}: fingerprint diverges between {between}",
        other.repro(),
    );
    assert_eq!(
        samples_played(base),
        samples_played(other),
        "{}: samples_played diverges between {between}",
        other.repro(),
    );
}

fn healing_scenarios() -> [Scenario; 4] {
    [
        sick_receiver_scenario(),
        neighbor_retransmit_scenario(),
        producer_failover_scenario(61),
        flapping_receiver_scenario(),
    ]
}

/// The healing plane's determinism contract, end to end: every healing
/// scenario — sick-receiver detection, NACK refill, failover, flap
/// damping — run twice on the same seed has to produce bit-identical
/// trace fingerprints and identical per-speaker `samples_played`.
#[test]
fn heal_actions_are_deterministic() {
    for sc in &healing_scenarios() {
        assert_indistinguishable(&sc.run(), &sc.run(), "two runs of one seed");
    }
}

/// Sixteen concealing speakers behind 5 % bursty loss, FEC 4+1 and
/// the healing plane, 20 virtual seconds of music: the metrics at 7 s
/// and at the end. With `failover` a warm standby is on and the primary
/// dies at 5 s, for good; the monitor has promoted the standby by
/// 6.2 s. `ES_CHAOS_SEED` overrides `seed`.
fn repair_fleet(seed: u64, negotiated: bool, failover: bool) -> (u64, [MetricsSnapshot; 2]) {
    let seed = std::env::var("ES_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(seed);
    let (announce, group) = (McastGroup(0), McastGroup(1));
    let stream = SimDuration::from_secs(20);
    let channel = ChannelSpec::new(1, group, "campus")
        .source(Source::Music)
        .duration(stream)
        .fec_group(4);
    let heal = if failover {
        HealSpec::new().standby()
    } else {
        HealSpec::new()
    };
    let mut b = SystemBuilder::new(seed)
        .lan(LanConfig::bursty(0.05, 3.0))
        .channel(channel)
        .healing(heal);
    if negotiated {
        b = b.sessions(SessionSpec::new(announce));
    }
    for i in 0..16 {
        let spec = if negotiated {
            SpeakerSpec::negotiated(format!("es{i}"), "campus")
        } else {
            SpeakerSpec::new(format!("es{i}"), group)
        };
        b = b.speaker(spec.loss_concealment());
    }
    let mut sys = b.build();
    if failover {
        let primary = sys.rebroadcaster(0).clone();
        sys.sim
            .schedule_at(SimTime::from_secs(5), move |sim| primary.crash(sim));
    }
    sys.run_until(SimTime::from_secs(7));
    let at_7s = sys.metrics();
    sys.run_until(SimTime::ZERO + stream + SimDuration::from_secs(2));
    (seed, [at_7s, sys.metrics()])
}

/// Runs [`repair_fleet`] twice and demands identical metrics; returns
/// the reproducing one-liner with them.
fn repair_fleet_twice(
    test: &str,
    seed: u64,
    negotiated: bool,
    failover: bool,
) -> (String, [MetricsSnapshot; 2]) {
    let (seed, m) = repair_fleet(seed, negotiated, failover);
    let repro = format!("ES_CHAOS_SEED={seed} cargo test --test healing {test}");
    let (_, again) = repair_fleet(seed, negotiated, failover);
    assert_eq!(
        m[1].to_json_lines(),
        again[1].to_json_lines(),
        "NONDETERMINISM — reproduce with: {repro}"
    );
    (repro, m)
}

/// Fleet-wide `[blocks concealed or late, blocks due]`.
fn missed_of_blocks(m: &MetricsSnapshot) -> [u64; 2] {
    let sum = |name| m.sum_counters("speaker", name);
    let late = sum("deadline_misses");
    [sum("concealed_packets") + late, sum("data_packets") + late]
}

/// Holds a run of [`repair_fleet`] to the deadline, whatever kind of
/// speaker the fleet is: the speakers NACK on the wire and the
/// producer hears them, at most 1 % of blocks are concealed or late,
/// at most 5 % of refills land past their block's deadline.
fn repair_meets_the_deadline(test: &str, seed: u64, negotiated: bool) {
    let (repro, [_, m]) = repair_fleet_twice(test, seed, negotiated, false);
    let sum = |name| m.sum_counters("speaker", name);
    assert!(
        sum("fec_recovered") > 0,
        "parity repaired nothing\n  {repro}"
    );
    let sent = sum("nacks_sent");
    assert!(sent > 50, "the speakers sent {sent} NACKs\n  {repro}");
    // The unicast NACK crosses the lossy LAN too; most arrive.
    let heard = m.counter("rebroadcast/ch0/nacks_received").unwrap_or(0);
    assert!(heard > 50, "the producer heard {heard} NACKs\n  {repro}");
    let counted = m.counter("heal/heal0/retransmits_requested").unwrap_or(0);
    assert!(counted > 0, "the monitor counted no NACK\n  {repro}");
    let refills = sum("refills_received");
    assert!(
        refills > 50,
        "only {refills} refills under 5 % loss\n  {repro}"
    );
    let [missed, blocks] = missed_of_blocks(&m);
    assert!(
        missed * 100 <= blocks,
        "{missed} of {blocks} blocks concealed or late\n  {repro}"
    );
    assert!(
        sum("refill_late") * 20 <= refills,
        "{} of {refills} refills late\n  {repro}",
        sum("refill_late")
    );
    // No block is written over its own replica any more.
    assert!(
        sum("playback_resyncs") <= 3 * 16,
        "{} playback resyncs\n  {repro}",
        sum("playback_resyncs")
    );
}

#[test]
fn negotiated_fleet_repairs_over_the_wire() {
    repair_meets_the_deadline("negotiated_fleet_repairs_over_the_wire", 71, true);
}

#[test]
fn static_fleet_repairs_over_the_wire() {
    repair_meets_the_deadline("static_fleet_repairs_over_the_wire", 72, false);
}

/// Repair outlives the producer that was doing it. A speaker NACKs
/// whoever it hears the stream from, and from the promotion on that is
/// the standby, not the primary's corpse: from 7 s on the standby
/// retransmits, refills land, and the fleet is held to the same 1 % as
/// before the crash.
#[test]
fn repair_survives_failover() {
    for (fleet, negotiated) in [("static", false), ("negotiated", true)] {
        let test = "repair_survives_failover";
        let (repro, [after, end]) = repair_fleet_twice(test, 71, negotiated, true);
        let which = format!("{fleet} fleet\n  {repro}");
        assert_eq!(end.counter("heal/heal0/failovers"), Some(1), "{which}");
        let resent = end
            .counter_delta(&after, "rebroadcast/standby0/retransmits_sent")
            .unwrap_or(0);
        assert!(resent > 50, "the standby re-sent {resent} packets: {which}");
        let refills = |m: &MetricsSnapshot| m.sum_counters("speaker", "refills_received");
        assert!(
            refills(&end) > refills(&after) + 50,
            "refills {} -> {}: {which}",
            refills(&after),
            refills(&end)
        );
        let ([missed_7s, blocks_7s], [missed, blocks]) =
            (missed_of_blocks(&after), missed_of_blocks(&end));
        let (missed, blocks) = (missed - missed_7s, blocks - blocks_7s);
        assert!(
            missed * 100 <= blocks,
            "{missed} of {blocks} blocks concealed or late after the failover: {which}"
        );
    }
}
