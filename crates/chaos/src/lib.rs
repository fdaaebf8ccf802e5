//! # es-chaos — declarative fault-injection scenarios
//!
//! The paper's synchronization argument (§3.2) is really a claim about
//! *recovery*: speakers stay aligned despite loss, reorder, duplication
//! and producer hiccups. This crate turns that claim into executable
//! scenarios: a [`Scenario`] is a seeded script of timed impairment
//! phases ([`Fault`]s scheduled on the sim clock) plus named invariant
//! checks that read the telemetry the run produced (a [`Trace`] of
//! [`Probe`] snapshots and the event journal).
//!
//! Determinism is the point. [`conformance`] executes every scenario
//! twice with the same seed and demands byte-identical telemetry
//! fingerprints before it even looks at the invariants; any failure is
//! reported with a one-liner that reproduces the exact run:
//!
//! ```text
//! ES_CHAOS_SEED=42 cargo test --test chaos burst_loss
//! ```
//!
//! Environment knobs:
//! - `ES_CHAOS_SEED` overrides every scenario's seed (the repro hook).
//! - `ES_CHAOS_FP_DIR` writes each scenario's fingerprint to
//!   `<dir>/<name>.txt` so a driver script can diff two whole-suite
//!   runs across processes (`scripts/check.sh` does exactly that).
//! - `ES_CHAOS_JOURNAL_DIR` writes each scenario's event journal to
//!   `<dir>/<name>.jsonl` — the gate archives the healing tier's
//!   journals under `results/` for post-mortem reading.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use es_core::prelude::CompressionPolicy;
use es_core::{ChannelSpec, EsSystem, HealSpec, SessionSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_sim::{SimDuration, SimTime};
use es_telemetry::MetricsSnapshot;

/// One scripted impairment, applied at a scheduled virtual time.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Swap the LAN's physical parameters ([`es_net::Lan::set_config`]).
    Lan(LanConfig),
    /// Degrade one speaker's receive path: each datagram bound for it
    /// is independently dropped with probability `loss` for the
    /// window, then the path clears. Unlike [`Fault::PartitionSpeaker`]
    /// the speaker stays reachable — this is the lossy-leaf-link case
    /// the healing plane's FEC ladder exists for.
    DegradeSpeaker {
        /// Speaker index (declaration order).
        speaker: usize,
        /// Per-datagram loss probability, clamped to `0.0..=1.0`.
        loss: f64,
        /// Window length; reception heals by itself afterwards.
        duration: SimDuration,
    },
    /// Cut one speaker off the LAN for a window.
    PartitionSpeaker {
        /// Speaker index (declaration order).
        speaker: usize,
        /// Window length; the partition heals by itself afterwards.
        duration: SimDuration,
    },
    /// End a speaker's partition window early.
    HealSpeaker {
        /// Speaker index (declaration order).
        speaker: usize,
    },
    /// Kill a channel's rebroadcaster process (control packets stop).
    CrashProducer {
        /// Channel index (declaration order).
        channel: usize,
    },
    /// Bring a crashed rebroadcaster back.
    RestartProducer {
        /// Channel index (declaration order).
        channel: usize,
    },
    /// Multicast FLUSH to every live session: receivers drop their
    /// clocks and re-gate on the next control packet. Requires
    /// [`Scenario::negotiated`].
    FlushSessions,
    /// Broker-side TEARDOWN of one speaker's session (the receiver
    /// auto-rejoins by re-discovering). Requires
    /// [`Scenario::negotiated`].
    TeardownSpeaker {
        /// Speaker index (declaration order).
        speaker: usize,
    },
}

/// Telemetry captured at one probe instant.
pub struct Probe {
    /// When the probe was taken.
    pub at: SimTime,
    /// Full system metrics at that instant.
    pub metrics: MetricsSnapshot,
    /// Playback offset of each speaker `i > 0` versus speaker 0,
    /// measured by cross-correlating DAC taps over a window ending
    /// shortly before the probe. `None` while a speaker has not played
    /// through the window (e.g. mid-partition).
    pub offsets: Vec<Option<SimDuration>>,
}

/// Everything one scenario run produced.
pub struct Trace {
    /// Scenario name.
    pub name: String,
    /// The seed the run actually used (after any env override).
    pub seed: u64,
    /// Probe snapshots in time order; the last one is taken at the end
    /// of the run.
    pub probes: Vec<Probe>,
    /// The system journal as JSON lines (scripted faults emit events
    /// here alongside the components' own diagnostics).
    pub journal_lines: String,
    /// Number of speakers in the deployment.
    pub speakers: usize,
    /// Test binary [`Trace::repro`] names (`chaos` or `healing`).
    pub test_binary: String,
}

impl Trace {
    /// The snapshot taken when the run ended.
    pub fn final_probe(&self) -> &Probe {
        self.probes.last().expect("a run always probes at the end")
    }

    /// The probe taken at exactly `at` after the epoch, if one was
    /// scheduled there.
    pub fn probe_at(&self, at: SimDuration) -> Option<&Probe> {
        let t = SimTime::ZERO + at;
        self.probes.iter().find(|p| p.at == t)
    }

    /// The one-liner that reproduces this exact run.
    pub fn repro(&self) -> String {
        format!(
            "ES_CHAOS_SEED={} cargo test --test {} {}",
            self.seed, self.test_binary, self.name
        )
    }

    /// A canonical byte string of everything observable: probe times,
    /// metrics JSON lines, playback offsets and the journal. Two runs
    /// of the same scenario with the same seed must produce identical
    /// fingerprints — this is the determinism contract [`conformance`]
    /// enforces.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario={} seed={}\n", self.name, self.seed));
        for p in &self.probes {
            out.push_str(&format!("== probe @ {} ns\n", p.at.as_nanos()));
            for (i, off) in p.offsets.iter().enumerate() {
                out.push_str(&format!(
                    "offset[0,{}]={}\n",
                    i + 1,
                    off.map_or(-1, |d| d.as_micros() as i64)
                ));
            }
            out.push_str(&p.metrics.to_json_lines());
        }
        out.push_str("== journal\n");
        out.push_str(&self.journal_lines);
        out
    }
}

/// A named invariant evaluated against the finished [`Trace`].
type CheckFn = Box<dyn Fn(&Trace) -> Result<(), String>>;

/// A declarative chaos scenario: deployment shape, a script of timed
/// faults, probe instants, and invariant checks.
pub struct Scenario {
    name: String,
    seed: u64,
    lan: LanConfig,
    speakers: usize,
    conceal_loss: bool,
    negotiated: bool,
    clicks: bool,
    fec_group: Option<u8>,
    playout_delay: Option<SimDuration>,
    healing: Option<HealSpec>,
    stream: SimDuration,
    run_for: SimDuration,
    phases: Vec<(SimDuration, Fault)>,
    probes: Vec<SimDuration>,
    checks: Vec<(String, CheckFn)>,
    test_binary: String,
}

impl Scenario {
    /// A scenario named `name`: one CD music channel streaming for 8
    /// virtual seconds, two speakers, a 10-second run, default LAN.
    /// `ES_CHAOS_SEED` in the environment overrides `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Scenario {
            name: name.into(),
            seed,
            lan: LanConfig::default(),
            speakers: 2,
            conceal_loss: false,
            negotiated: false,
            clicks: false,
            fec_group: None,
            playout_delay: None,
            healing: None,
            stream: SimDuration::from_secs(8),
            run_for: SimDuration::from_secs(10),
            phases: Vec::new(),
            probes: Vec::new(),
            checks: Vec::new(),
            test_binary: "chaos".into(),
        }
    }

    /// Initial LAN parameters (later [`Fault::Lan`] phases replace
    /// them).
    pub fn lan(mut self, lan: LanConfig) -> Self {
        self.lan = lan;
        self
    }

    /// Number of speakers (all powered on at t=0).
    pub fn speakers(mut self, n: usize) -> Self {
        assert!(n >= 1, "a scenario needs at least one speaker");
        self.speakers = n;
        self
    }

    /// Enables packet-loss concealment on every speaker.
    pub fn conceal_loss(mut self) -> Self {
        self.conceal_loss = true;
        self
    }

    /// Speakers join by session handshake (DISCOVER → SETUP on announce
    /// group 0) instead of static group wiring, and the producer runs a
    /// session broker. Enables [`Fault::FlushSessions`] and
    /// [`Fault::TeardownSpeaker`].
    pub fn negotiated(mut self) -> Self {
        self.negotiated = true;
        self
    }

    /// Streams an uncompressed click train instead of music — the
    /// sharpest signal for the cross-correlation sync probes.
    pub fn clicks(mut self) -> Self {
        self.clicks = true;
        self
    }

    /// Emits one XOR-parity packet per `n` data packets (FEC).
    pub fn fec_group(mut self, n: u8) -> Self {
        self.fec_group = Some(n);
        self
    }

    /// Overrides the channel's receiver playout delay (a deep playout
    /// buffer gives NACK retransmissions time to land before their
    /// deadlines).
    pub fn playout_delay(mut self, d: SimDuration) -> Self {
        self.playout_delay = Some(d);
        self
    }

    /// Enables the self-healing plane ([`SystemBuilder::healing`]).
    pub fn healing(mut self, spec: HealSpec) -> Self {
        self.healing = Some(spec);
        self
    }

    /// Names the test binary [`Trace::repro`] points at (`chaos` by
    /// default; the healing tier sets `healing`).
    pub fn test_binary(mut self, name: impl Into<String>) -> Self {
        self.test_binary = name.into();
        self
    }

    /// Stream length (the channel's clip duration).
    pub fn stream_for(mut self, d: SimDuration) -> Self {
        self.stream = d;
        self
    }

    /// Total virtual run time (must cover every phase and probe).
    pub fn run_for(mut self, d: SimDuration) -> Self {
        self.run_for = d;
        self
    }

    /// Schedules a fault `at` after the epoch.
    pub fn at(mut self, at: SimDuration, fault: Fault) -> Self {
        self.phases.push((at, fault));
        self
    }

    /// Captures a telemetry probe `at` after the epoch (one more is
    /// always taken at the end of the run).
    pub fn probe(mut self, at: SimDuration) -> Self {
        self.probes.push(at);
        self
    }

    /// Adds a named invariant check over the finished trace.
    pub fn check(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&Trace) -> Result<(), String> + 'static,
    ) -> Self {
        self.checks.push((name.into(), Box::new(f)));
        self
    }

    /// The seed this scenario will actually run with: the declared one,
    /// unless `ES_CHAOS_SEED` overrides it.
    pub fn effective_seed(&self) -> u64 {
        match std::env::var("ES_CHAOS_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("ES_CHAOS_SEED={s:?} is not a u64")),
            Err(_) => self.seed,
        }
    }

    fn build(&self, seed: u64) -> EsSystem {
        let group = McastGroup(1);
        let channel_name = format!("chaos-{}", self.name);
        let mut b = SystemBuilder::new(seed).lan(self.lan).channel({
            let mut ch = ChannelSpec::new(1, group, channel_name.clone()).duration(self.stream);
            ch = if self.clicks {
                // 4 clicks/s of CD stereo, uncompressed.
                ch.source(Source::Impulses(11_025))
                    .policy(CompressionPolicy::Never)
            } else {
                ch.source(Source::Music)
            };
            if let Some(n) = self.fec_group {
                ch = ch.fec_group(n);
            }
            if let Some(d) = self.playout_delay {
                ch = ch.playout_delay(d);
            }
            ch
        });
        if self.negotiated {
            b = b.sessions(SessionSpec::new(McastGroup(0)));
        }
        if let Some(h) = &self.healing {
            b = b.healing(h.clone());
        }
        for i in 0..self.speakers {
            let mut spec = if self.negotiated {
                SpeakerSpec::negotiated(format!("es{i}"), channel_name.clone())
            } else {
                SpeakerSpec::new(format!("es{i}"), group)
            };
            if self.conceal_loss {
                spec = spec.loss_concealment();
            }
            // Every probe correlates the taps for the skew fingerprint.
            b = b.speaker(spec.capture_output());
        }
        b.build()
    }

    /// Executes the scenario once and collects its [`Trace`]. Panics if
    /// a fault references a speaker or channel the deployment does not
    /// have.
    pub fn run(&self) -> Trace {
        let seed = self.effective_seed();
        let mut sys = self.build(seed);
        let lan = sys.lan().clone();

        // Script the fault phases onto the sim clock. All speakers
        // power on at t=0, so their node ids exist now.
        for (at, fault) in &self.phases {
            let at = *at;
            match fault {
                Fault::Lan(cfg) => {
                    let lan = lan.clone();
                    let cfg = *cfg;
                    sys.sim.schedule_in(at, move |sim| lan.set_config(sim, cfg));
                }
                Fault::DegradeSpeaker {
                    speaker,
                    loss,
                    duration,
                } => {
                    let node = sys
                        .speaker(*speaker)
                        .expect("scenario speakers power on at t=0")
                        .node();
                    let loss = *loss;
                    let sick = lan.clone();
                    sys.sim
                        .schedule_in(at, move |sim| sick.degrade(sim, node, loss));
                    let clear = lan.clone();
                    sys.sim
                        .schedule_in(at + *duration, move |sim| clear.degrade(sim, node, 0.0));
                }
                Fault::PartitionSpeaker { speaker, duration } => {
                    let node = sys
                        .speaker(*speaker)
                        .expect("scenario speakers power on at t=0")
                        .node();
                    let until = SimTime::ZERO + at + *duration;
                    let partition = lan.clone();
                    sys.sim
                        .schedule_in(at, move |sim| partition.partition(sim, node, until));
                    // An explicit heal at window end, so the journal
                    // records both edges of the outage.
                    let heal = lan.clone();
                    sys.sim
                        .schedule_in(at + *duration, move |sim| heal.heal(sim, node));
                }
                Fault::HealSpeaker { speaker } => {
                    let lan = lan.clone();
                    let node = sys
                        .speaker(*speaker)
                        .expect("scenario speakers power on at t=0")
                        .node();
                    sys.sim.schedule_in(at, move |sim| lan.heal(sim, node));
                }
                Fault::CrashProducer { channel } => {
                    let rb = sys.rebroadcaster(*channel).clone();
                    sys.sim.schedule_in(at, move |sim| rb.crash(sim));
                }
                Fault::RestartProducer { channel } => {
                    let rb = sys.rebroadcaster(*channel).clone();
                    sys.sim.schedule_in(at, move |sim| rb.restart(sim));
                }
                Fault::FlushSessions => {
                    let broker = sys
                        .broker()
                        .expect("FlushSessions requires .negotiated()")
                        .clone();
                    sys.sim.schedule_in(at, move |sim| broker.flush_all(sim));
                }
                Fault::TeardownSpeaker { speaker } => {
                    let broker = sys
                        .broker()
                        .expect("TeardownSpeaker requires .negotiated()")
                        .clone();
                    let name = format!("es{speaker}");
                    sys.sim
                        .schedule_in(at, move |sim| broker.teardown_speaker(sim, &name));
                }
            }
        }

        // Run in segments, pausing at each probe instant to capture a
        // snapshot (metrics walks never consume simulator randomness,
        // so probing does not perturb the run).
        let mut probe_times: Vec<SimDuration> = self.probes.clone();
        probe_times.sort();
        probe_times.dedup();
        probe_times.retain(|&t| t < self.run_for);
        probe_times.push(self.run_for);

        let mut probes = Vec::with_capacity(probe_times.len());
        for at in probe_times {
            let t = SimTime::ZERO + at;
            sys.run_until(t);
            probes.push(self.capture(&sys, t));
        }

        Trace {
            name: self.name.clone(),
            seed,
            probes,
            journal_lines: sys.journal().to_json_lines(),
            speakers: self.speakers,
            test_binary: self.test_binary.clone(),
        }
    }

    fn capture(&self, sys: &EsSystem, at: SimTime) -> Probe {
        // Correlate over a window that ended comfortably before the
        // probe so both taps have played through it.
        let window_start = SimTime::from_nanos(at.as_nanos().saturating_sub(1_500_000_000));
        let offsets = (1..self.speakers)
            .map(|i| sys.playback_offset(0, i, window_start, SimDuration::from_millis(100)))
            .collect();
        Probe {
            at,
            metrics: sys.metrics(),
            offsets,
        }
    }
}

/// Runs `scenario` twice with the same seed, verifies the two traces
/// are byte-identical, evaluates every invariant check, and returns the
/// first run's trace. Any failure panics with the scenario, the seed,
/// and the exact one-liner that reproduces the run.
pub fn conformance(scenario: &Scenario) -> Trace {
    let first = scenario.run();
    let second = scenario.run();
    let (fa, fb) = (first.fingerprint(), second.fingerprint());
    if fa != fb {
        let diff_at = fa
            .lines()
            .zip(fb.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fa.lines().count().min(fb.lines().count()));
        panic!(
            "NONDETERMINISM in scenario '{}': two runs with seed {} diverge \
             at fingerprint line {} — reproduce with: {}",
            first.name,
            first.seed,
            diff_at,
            first.repro()
        );
    }
    if let Ok(dir) = std::env::var("ES_CHAOS_FP_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join(format!("{}.txt", first.name));
        std::fs::write(&path, &fa)
            .unwrap_or_else(|e| panic!("cannot write fingerprint {}: {e}", path.display()));
    }
    if let Ok(dir) = std::env::var("ES_CHAOS_JOURNAL_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join(format!("{}.jsonl", first.name));
        std::fs::write(&path, &first.journal_lines)
            .unwrap_or_else(|e| panic!("cannot write journal {}: {e}", path.display()));
    }
    for (name, check) in &scenario.checks {
        if let Err(why) = check(&first) {
            panic!(
                "INVARIANT '{name}' failed in scenario '{}': {why}\n  reproduce with: {}",
                first.name,
                first.repro()
            );
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scenario {
        Scenario::new("unit", 7)
            .stream_for(SimDuration::from_secs(2))
            .run_for(SimDuration::from_secs(3))
            .probe(SimDuration::from_secs(1))
    }

    #[test]
    fn run_collects_probes_in_order() {
        let trace = quick().run();
        assert_eq!(trace.probes.len(), 2, "one scheduled + one final");
        assert_eq!(trace.probes[0].at, SimTime::from_secs(1));
        assert_eq!(trace.final_probe().at, SimTime::from_secs(3));
        assert!(trace.probe_at(SimDuration::from_secs(1)).is_some());
        assert!(trace.probe_at(SimDuration::from_secs(2)).is_none());
        // A healthy default LAN delivers traffic to both speakers.
        let m = &trace.final_probe().metrics;
        assert!(m.counter("net/lan0/frames_delivered").unwrap() > 0);
        assert_eq!(m.counter("net/lan0/frames_dropped"), Some(0));
    }

    #[test]
    fn conformance_is_deterministic_and_checks_run() {
        let ran = std::rc::Rc::new(std::cell::Cell::new(false));
        let ran2 = ran.clone();
        let trace = conformance(&quick().check("samples-played", move |t| {
            ran2.set(true);
            let played = t
                .final_probe()
                .metrics
                .sum_counters("speaker", "samples_played");
            if played == 0 {
                return Err("no audio played".into());
            }
            Ok(())
        }));
        assert!(ran.get(), "check must execute");
        assert_eq!(trace.seed, trace.seed);
        assert!(trace.repro().contains("cargo test --test chaos unit"));
    }

    #[test]
    #[should_panic(expected = "INVARIANT 'always-fails'")]
    fn failed_check_panics_with_repro() {
        conformance(&quick().check("always-fails", |_| Err("nope".into())));
    }

    #[test]
    fn degrade_fault_drops_and_clears() {
        let trace = Scenario::new("unit-degrade", 9)
            .test_binary("healing")
            .stream_for(SimDuration::from_secs(2))
            .run_for(SimDuration::from_secs(3))
            .at(
                SimDuration::from_millis(500),
                Fault::DegradeSpeaker {
                    speaker: 1,
                    loss: 0.5,
                    duration: SimDuration::from_millis(800),
                },
            )
            .probe(SimDuration::from_millis(1_300))
            .run();
        let mid = trace
            .probe_at(SimDuration::from_millis(1_300))
            .unwrap()
            .metrics
            .counter("net/lan0/frames_degraded")
            .unwrap();
        assert!(mid > 0, "window must drop frames");
        let end = trace
            .final_probe()
            .metrics
            .counter("net/lan0/frames_degraded")
            .unwrap();
        assert_eq!(mid, end, "drops must stop once the window clears");
        assert!(trace.journal_lines.contains("receiver degraded"));
        assert!(trace.repro().contains("--test healing"));
    }

    #[test]
    fn faults_schedule_and_journal() {
        let trace = Scenario::new("unit-faults", 3)
            .stream_for(SimDuration::from_secs(2))
            .run_for(SimDuration::from_secs(3))
            .at(
                SimDuration::from_millis(500),
                Fault::PartitionSpeaker {
                    speaker: 1,
                    duration: SimDuration::from_millis(400),
                },
            )
            .at(
                SimDuration::from_secs(1),
                Fault::CrashProducer { channel: 0 },
            )
            .at(
                SimDuration::from_millis(1_500),
                Fault::RestartProducer { channel: 0 },
            )
            .run();
        let m = &trace.final_probe().metrics;
        assert!(m.counter("net/lan0/frames_partitioned").unwrap() > 0);
        assert_eq!(m.counter("rebroadcast/ch0/crashes"), Some(1));
        for needle in [
            "receiver partitioned",
            "rebroadcaster crashed",
            "rebroadcaster restarted",
        ] {
            assert!(
                trace.journal_lines.contains(needle),
                "journal missing {needle:?}"
            );
        }
    }
}
