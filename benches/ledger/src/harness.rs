//! The parent side: spawns one fresh child per run, one at a time,
//! gates every run, aggregates, and attributes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::child::Kind;
use crate::metrics::{self, REPUBLISHED};
use crate::report::ChildReport;
use crate::stats::{self, Summary};
use crate::workload::{self, Workload};

/// Decode lanes and event shards every gated run is pinned to.
pub const PINNED: (usize, usize) = (1, 1);

/// Runs per variant for the measured wall ratios (lanes, shards,
/// in-process rerun); each ratio is a median, never a single shot.
const RATIO_RUNS: usize = 3;
/// The same under `--quick`.
const RATIO_RUNS_QUICK: usize = 1;

/// Where and how children are started.
pub struct Harness {
    /// This executable.
    pub exe: PathBuf,
    /// `benches/ledger/out/`.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Smoke sizes.
    pub quick: bool,
}

impl Harness {
    /// A harness re-executing the current binary, writing under the
    /// package's own `out/`.
    pub fn new(seed: u64, quick: bool) -> Result<Self, String> {
        Ok(Harness {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            seed,
            quick,
        })
    }

    /// Runs one child to completion and gates it. `Err` is a failed
    /// run — spawn error, non-zero exit, unreadable report or a
    /// correctness violation — and is never averaged in.
    pub fn spawn(
        &self,
        w: Workload,
        (lanes, shards): (usize, usize),
        kind: &Kind,
    ) -> Result<ChildReport, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .args(["--workload", w.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--lanes", &lanes.to_string()])
            .args(["--shards", &shards.to_string()])
            // The defaults these override follow the environment and
            // `available_parallelism`; a stray variable must not reach
            // a child.
            .env_remove("ES_FLEET_THREADS")
            .env_remove("ES_SIM_SHARDS");
        if self.quick {
            cmd.arg("--quick");
        }
        match kind {
            Kind::Plain => {}
            Kind::WallOnly => {
                cmd.arg("--wall-only");
            }
            Kind::Rerun => {
                cmd.arg("--rerun");
            }
            Kind::Traced(path) => {
                cmd.arg("--trace-out").arg(path);
            }
        }
        let out = cmd
            .output()
            .map_err(|e| format!("{}: spawn failed: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{}: child printed nothing ({})", w.name, out.status))
            .and_then(|line| {
                ChildReport::from_json(line).map_err(|e| format!("{}: bad report: {e}", w.name))
            })?;
        if !report.measured.violations.is_empty() {
            return Err(format!(
                "{}: {}",
                w.name,
                report.measured.violations.join("; ")
            ));
        }
        if !out.status.success() {
            return Err(format!("{}: child exited with {}", w.name, out.status));
        }
        Ok(report)
    }

    /// Path of a workload's span file.
    pub fn trace_path(&self, w: Workload) -> PathBuf {
        self.out_dir.join(format!("trace-{}.json", w.name))
    }
}

/// Median of the timed-region walls of a set of reports.
fn median_wall(reports: &[ChildReport]) -> Option<f64> {
    let walls: Vec<f64> = reports.iter().map(|r| r.measured.wall_timed_s).collect();
    stats::median(&walls)
}

/// All untraced runs of one workload in one set.
pub struct WorkloadRuns {
    /// The workload.
    pub workload: Workload,
    /// Runs that passed the gate.
    pub good: Vec<ChildReport>,
    /// One line per failed run.
    pub failures: Vec<String>,
}

impl WorkloadRuns {
    /// An empty set for `workload`.
    pub fn new(workload: Workload) -> Self {
        WorkloadRuns {
            workload,
            good: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Adds one run's outcome.
    pub fn push(&mut self, outcome: Result<ChildReport, String>) {
        match outcome {
            Ok(r) => self.good.push(r),
            Err(e) => self.failures.push(e),
        }
    }

    /// Runs started.
    pub fn attempted(&self) -> usize {
        self.good.len() + self.failures.len()
    }

    /// Every virtual-clock end-to-end metric, layer count and note
    /// must repeat bit for bit across runs of one seed; lists each
    /// that did not.
    pub fn disagreements(&self) -> Vec<String> {
        let Some((first, rest)) = self.good.split_first() else {
            return Vec::new();
        };
        let exact = |r: &ChildReport| -> BTreeMap<String, f64> {
            let m = &r.measured;
            m.e2e
                .iter()
                .filter(|(k, _)| !metrics::is_wall_clock(k))
                .chain(&m.counts)
                .chain(&m.notes)
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        let want = exact(first);
        let mut out = Vec::new();
        for (i, r) in rest.iter().enumerate() {
            for (k, v) in exact(r) {
                if want.get(&k) != Some(&v) {
                    out.push(format!(
                        "{}: {k} = {v} in run {} but {:?} in run 0",
                        self.workload.name,
                        i + 1,
                        want.get(&k)
                    ));
                }
            }
        }
        out
    }

    /// Values of one end-to-end metric across the good runs.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.good
            .iter()
            .filter_map(|r| r.measured.e2e.get(metric).copied())
            .collect()
    }

    /// Summary of one end-to-end metric across the good runs.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        stats::summarize(&self.values(metric))
    }

    /// The figure `BENCHMARK.json` and `--check-repeat` judge the set
    /// by: the median over the good runs, the two wall-clock figures
    /// first brought to reference host speed with the run's own
    /// calibration ([`crate::calib`]) — a phase of the shared host that
    /// slows a run slows its calibration bursts as much.
    pub fn judged(&self, metric: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .good
            .iter()
            .filter_map(|r| {
                let (v, speed) = (*r.measured.e2e.get(metric)?, r.measured.host_speed);
                Some(match metric {
                    "x_realtime" => v / speed,
                    "setup_s" => v * speed,
                    _ => v,
                })
            })
            .collect();
        stats::median(&values)
    }

    /// True when every run passed and the exact metrics agree.
    pub fn correct(&self) -> bool {
        !self.good.is_empty() && self.failures.is_empty() && self.disagreements().is_empty()
    }
}

/// One set: every workload `k` times, each run a fresh process,
/// interleaved round-robin so slow drift of the host hits every
/// workload alike.
pub fn run_set(h: &Harness, k: usize, progress: &mut dyn FnMut(&str)) -> Vec<WorkloadRuns> {
    let mut sets: Vec<WorkloadRuns> = workload::ALL.into_iter().map(WorkloadRuns::new).collect();
    for round in 0..k {
        for runs in &mut sets {
            progress(&format!("run {}/{k} {}", round + 1, runs.workload.name));
            runs.push(h.spawn(runs.workload, PINNED, &Kind::Plain));
        }
    }
    sets
}

/// Which measured wall ratios a traced pass takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ratios {
    /// The ledger's own report: each ratio on the workload the issue
    /// names for it (lanes on `fleet64-ovl`, shards on
    /// `fleet1k-relayed`, in-process rerun on `fleet64-ovl`), lane and
    /// shard ratios only with two or more cores.
    Named {
        /// Cores on this host.
        nproc: usize,
    },
    /// All three on the workload at hand (the `BENCHMARK.json`
    /// contract wants every per-layer metric from every workload).
    All,
}

impl Ratios {
    /// Whether `metric` is taken on workload `w` at all.
    fn applies(self, metric: &str, w: Workload) -> bool {
        let named = match metric {
            "sim.shards4_wall_ratio" => "fleet1k-relayed",
            _ => "fleet64-ovl",
        };
        self == Ratios::All || w.name == named
    }

    /// Why a lane or shard ratio that applies is left out anyway.
    fn omitted(self, metric: &str) -> Option<String> {
        match self {
            Ratios::Named { nproc } if nproc < 2 => Some(format!(
                "{metric} omitted: nproc = {nproc}, a one-core wall ratio says nothing about lanes or shards"
            )),
            _ => None,
        }
    }
}

/// The per-layer figures of one workload: exact counts and outcomes
/// from the untraced runs, timings from one traced child, measured
/// wall ratios from extra children, and the ledger's own accounting.
/// Returns the figures plus notes (ratios omitted and why). Past
/// `deadline` each ratio settles for the one run it already has.
pub fn layer_metrics(
    h: &Harness,
    runs: &WorkloadRuns,
    ratios: Ratios,
    deadline: Option<Instant>,
    progress: &mut dyn FnMut(&str),
) -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    let late = |i: usize| i > 0 && deadline.is_some_and(|d| Instant::now() >= d);
    let w = runs.workload;
    let base = runs
        .good
        .first()
        .ok_or_else(|| format!("{}: no good untraced run to attribute", w.name))?;
    let base_wall = median_wall(&runs.good).unwrap_or(base.measured.wall_timed_s);
    let mut out = base.measured.counts.clone();
    for (from, to) in REPUBLISHED {
        if let Some(v) = base.measured.e2e.get(from) {
            out.insert(to.to_string(), *v);
        }
    }

    progress(&format!("traced {}", w.name));
    let traced = h.spawn(w, PINNED, &Kind::Traced(h.trace_path(w)))?;
    out.extend(traced.timings.clone());

    let ratio_runs = if h.quick {
        RATIO_RUNS_QUICK
    } else {
        RATIO_RUNS
    };
    let mut notes = Vec::new();
    let variants = [
        ("sim.lanes2_wall_ratio", (2, 1)),
        ("sim.shards4_wall_ratio", (1, 4)),
    ];
    for (metric, pinned) in variants {
        if !ratios.applies(metric, w) {
            continue;
        }
        if let Some(why) = ratios.omitted(metric) {
            notes.push(why);
            continue;
        }
        let mut variant = Vec::new();
        for i in (0..ratio_runs).take_while(|&i| !late(i)) {
            progress(&format!("{metric} {}/{ratio_runs} {}", i + 1, w.name));
            variant.push(h.spawn(w, pinned, &Kind::Plain)?);
        }
        let wall = median_wall(&variant).unwrap_or(base_wall);
        out.insert(metric.to_string(), wall / base_wall);
    }
    // Base runs that were themselves rerun children (contract mode)
    // already carry the ratio; otherwise measure it now.
    let mut reruns: Vec<f64> = runs
        .good
        .iter()
        .filter_map(|r| r.timings.get("core.rerun_wall_ratio").copied())
        .collect();
    if reruns.is_empty() && ratios.applies("core.rerun_wall_ratio", w) {
        for i in (0..ratio_runs).take_while(|&i| !late(i)) {
            progress(&format!(
                "core.rerun_wall_ratio {}/{ratio_runs} {}",
                i + 1,
                w.name
            ));
            let rerun = h.spawn(w, PINNED, &Kind::Rerun)?;
            reruns.extend(rerun.timings.get("core.rerun_wall_ratio").copied());
        }
    }
    if let Some(ratio) = stats::median(&reruns) {
        out.insert("core.rerun_wall_ratio".into(), ratio);
    }

    let get = |k: &str| out.get(k).copied().unwrap_or(0.0);
    let secs = w.secs(h.quick) as f64;
    // Counts cover the whole run; the wall covers virtual 1 s → end,
    // i.e. all but the first of the stream's seconds.
    let timed_share = (secs - 1.0).max(0.0) / secs;
    // One term per hop, none overlapping: the producer replay has no
    // receivers; the speaker replay carries each datagram's LAN
    // delivery, so `net.fanout_ns_per_delivery` is a breakdown of it,
    // not a term of its own.
    let attributed_s = timed_share
        * (get("rebroadcast.producer_ms_per_audio_s") / 1e3 * secs
            + get("rebroadcast.relay_us_per_pkt") / 1e6 * get("rebroadcast.relay_forwarded")
            + get("speaker.rx_us_per_pkt") / 1e6 * get("speaker.datagrams")
            + (get("telemetry.snapshot_ms") / 1e3 + get("heal.detector_epoch_us") / 1e6)
                * get("heal.epochs"));
    out.insert("ledger.attributed_share".into(), attributed_s / base_wall);
    let speeds: Vec<f64> = runs.good.iter().map(|r| r.measured.host_speed).collect();
    out.extend(stats::median(&speeds).map(|s| ("ledger.host_speed".to_string(), s)));
    out.insert(
        "ledger.trace_overhead_share".into(),
        traced.measured.wall_timed_s / base_wall - 1.0,
    );
    Ok((out, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judged_brings_the_wall_figures_to_reference_speed() {
        let w = workload::find("solo").expect("listed");
        let mut runs = WorkloadRuns::new(w);
        assert_eq!(runs.judged("x_realtime"), None);
        // The same program on a host at half speed, at full speed and
        // a quarter faster: half, one and 1.25 times the throughput,
        // twice, one and 0.8 times the set-up wall.
        for speed in [0.5, 1.0, 1.25] {
            let mut r = ChildReport::default();
            r.measured.host_speed = speed;
            r.measured.e2e.insert("x_realtime".into(), 200.0 * speed);
            r.measured.e2e.insert("setup_s".into(), 1.0 / speed);
            r.measured.e2e.insert("peak_rss_mb".into(), 64.0 * speed);
            runs.push(Ok(r));
        }
        assert_eq!(runs.judged("x_realtime"), Some(200.0));
        assert_eq!(runs.judged("setup_s"), Some(1.0));
        // Anything else is the plain median.
        assert_eq!(runs.judged("peak_rss_mb"), Some(64.0));
        assert_eq!(runs.summary("x_realtime").map(|s| s.median), Some(200.0));
    }
}
