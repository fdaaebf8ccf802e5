//! `es-ledger` — the repository's one perf ledger.
//!
//! ```text
//! es-ledger [--seed N] [--quick] [--check-repeat]
//!     every workload k = 5 times, each run a fresh child process,
//!     round-robin; prints every metric with unit, median, quartiles,
//!     min/max and n; gates correctness; one traced pass per workload
//!     for the per-layer numbers; writes out/ledger.json.
//! es-ledger --workload W --seed N --seconds S --trace 0|1
//!     the BENCHMARK.json contract: one workload, measured for S
//!     seconds, one JSON object as the last line of stdout.
//! ```
//!
//! See `README.md` beside this package for the tables and the known
//! contamination of today's numbers.

// The harness measures wall time; that is the one thing the
// workspace-wide clippy.toml forbids everywhere else.
#![allow(clippy::disallowed_methods)]

mod calib;
mod child;
mod harness;
mod host;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use child::Kind;
use harness::{Harness, Ratios, WorkloadRuns, PINNED};
use host::Host;
use stats::Summary;
use workload::{Conditions, Workload};

/// Runs per workload per set.
const K_FULL: usize = 5;
/// Runs per workload per set under `--quick`.
const K_QUICK: usize = 2;
/// Default workload seed.
const DEFAULT_SEED: u64 = 7;
/// Fewest children a contract-mode invocation aggregates.
const MIN_CONTRACT_RUNS: usize = 3;
/// Untraced children a contract-mode traced invocation runs first, as
/// the base of its ratios and shares. Each runs the workload twice, so
/// the same children also yield `core.rerun_wall_ratio`.
const CONTRACT_BASE_RUNS: usize = 3;

const USAGE: &str = "usage:
  es-ledger [--seed N] [--quick] [--check-repeat]
  es-ledger --workload NAME --seed N --seconds S --trace 0|1";

/// Command-line arguments as `--name value` pairs and bare flags.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} wants a whole number, got `{v}`"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        workload::find(name).ok_or_else(|| {
            format!(
                "unknown workload `{name}` (have: {})",
                workload::ALL.map(|w| w.name).join(", ")
            )
        })
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    let outcome = if args.0.first().is_some_and(|a| a == "child") {
        child_main(start, &args)
    } else if args.value("--workload").is_some() {
        contract_main(&args)
    } else {
        ledger_main(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("es-ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `es-ledger child …`: one run, one line of JSON, non-zero exit on a
/// gate violation.
fn child_main(start: Instant, args: &Args) -> Result<bool, String> {
    let w = args.workload()?;
    let need = |name: &str| args.number(name)?.ok_or(format!("{name} is required"));
    let c = Conditions {
        seed: need("--seed")?,
        quick: args.flag("--quick"),
        lanes: need("--lanes")? as usize,
        shards: need("--shards")? as usize,
    };
    let kind = match args.value("--trace-out") {
        Some(path) => Kind::Traced(path.into()),
        None if args.flag("--rerun") => Kind::Rerun,
        None if args.flag("--wall-only") => Kind::WallOnly,
        None => Kind::Plain,
    };
    let report = child::run(start, w, c, &kind);
    println!("{}", report.to_json());
    Ok(report.measured.violations.is_empty())
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        let digits = if v.fract() == 0.0 { 0 } else { 4 };
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

fn print_workload(runs: &WorkloadRuns, layers: Option<&(BTreeMap<String, f64>, Vec<String>)>) {
    let w = runs.workload;
    println!("\n== {} — {}", w.name, w.why);
    println!(
        "  runs: {} attempted, {} failed",
        runs.attempted(),
        runs.failures.len()
    );
    for f in runs.failures.iter().chain(&runs.disagreements()) {
        println!("  FAILED: {f}");
    }
    println!(
        "  {:<34} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>2} {:>7}",
        "end-to-end", "unit", "better", "median", "q1", "q3", "min", "max", "n", "spread"
    );
    for (name, unit, better, _) in metrics::END_TO_END {
        if let Some(s) = runs.summary(name) {
            println!(
                "  {:<34} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>2} {:>6.2}%",
                name,
                unit,
                better.word(),
                fmt(s.median),
                fmt(s.q1),
                fmt(s.q3),
                fmt(s.min),
                fmt(s.max),
                s.n,
                s.spread() * 100.0
            );
        }
    }
    let speeds: Vec<f64> = runs.good.iter().map(|r| r.measured.host_speed).collect();
    if let (Some(x), Some(setup), Some(speed)) = (
        runs.judged("x_realtime"),
        runs.judged("setup_s"),
        stats::median(&speeds),
    ) {
        println!(
            "  at reference host speed (what BENCHMARK.json reports): x_realtime {}, setup_s {}; host_speed median {}",
            fmt(x),
            fmt(setup),
            fmt(speed)
        );
    }
    if let Some(notes) = runs.good.first().map(|r| &r.measured.notes) {
        let note = |k: &str| notes.get(k).copied().unwrap_or(0.0);
        println!(
            "  slack_ms_tail is p{} of {} samples; skew locked on {} of {} sampled pairs; {} of {} blocks failed",
            fmt(note("slack_tail_percentile")),
            note("slack_samples"),
            note("skew_pairs_locked"),
            note("skew_pairs_sampled"),
            note("blocks_failed"),
            note("blocks_learned"),
        );
    }
    let Some((layers, notes)) = layers else {
        return;
    };
    println!("  per-layer (counts and outcomes exact, timings from the traced pass)");
    for (name, unit, better, source) in metrics::PER_LAYER {
        if let Some(v) = layers.get(name) {
            println!(
                "  {name:<34} {unit:>7} {:>6} {:>12}  {}",
                better.word(),
                fmt(*v),
                source.tag()
            );
        }
    }
    for n in notes {
        println!("  note: {n}");
    }
}

fn summary_json(out: &mut String, name: &str, unit: &str, s: &Summary) {
    report::key(out, name);
    out.push('{');
    report::text(out, "unit", unit);
    report::num(out, "median", s.median);
    report::num(out, "q1", s.q1);
    report::num(out, "q3", s.q3);
    report::num(out, "min", s.min);
    report::num(out, "max", s.max);
    report::num(out, "n", s.n as f64);
    out.push('}');
}

type Layers = BTreeMap<&'static str, (BTreeMap<String, f64>, Vec<String>)>;

/// The whole report as one JSON document (`out/ledger.json`).
fn ledger_json(
    h: &Harness,
    host: &Host,
    k: usize,
    sets: &[WorkloadRuns],
    layers: &Layers,
) -> String {
    let mut out = String::from("{");
    report::num(&mut out, "schema", report::SCHEMA_VERSION as f64);
    // Stamped so a smoke run can never pass for a BENCHMARK result.
    report::flag(&mut out, "quick", h.quick);
    report::num(&mut out, "seed", h.seed as f64);
    report::num(&mut out, "runs_per_workload", k as f64);
    report::num(&mut out, "lanes", PINNED.0 as f64);
    report::num(&mut out, "shards", PINNED.1 as f64);
    report::key(&mut out, "host");
    out.push('{');
    report::num(&mut out, "nproc", host.nproc as f64);
    report::text(&mut out, "cpu", &host.cpu);
    report::text(&mut out, "rustc", &host.rustc);
    report::text(&mut out, "commit", &host.commit);
    out.push('}');
    report::key(&mut out, "workloads");
    out.push('{');
    for runs in sets {
        let w = runs.workload;
        report::key(&mut out, w.name);
        out.push('{');
        report::text(&mut out, "why", w.why);
        report::num(&mut out, "stream_secs", w.secs(h.quick) as f64);
        report::num(&mut out, "speakers", w.receivers(h.quick) as f64);
        report::num(&mut out, "attempted", runs.attempted() as f64);
        report::num(&mut out, "failed", runs.failures.len() as f64);
        report::flag(&mut out, "correct", runs.correct());
        for metric in ["x_realtime", "setup_s"] {
            if let Some(v) = runs.judged(metric) {
                report::num(&mut out, &format!("{metric}_at_reference_speed"), v);
            }
        }
        report::key(&mut out, "end_to_end");
        out.push('{');
        for (name, unit, _, _) in metrics::END_TO_END {
            if let Some(s) = runs.summary(name) {
                summary_json(&mut out, name, unit, &s);
            }
        }
        out.push('}');
        if let Some(r) = runs.good.first() {
            report::map(&mut out, "notes", &r.measured.notes);
        }
        if let Some((metrics, _)) = layers.get(w.name) {
            report::map(&mut out, "per_layer", metrics);
        }
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// Compares two sets metric by metric; prints both judged figures,
/// their relative difference and the bound, and returns whether every
/// pair agrees (virtual-clock metrics exactly, wall-clock ones within
/// their own bound).
fn check_repeat(a: &[WorkloadRuns], b: &[WorkloadRuns]) -> bool {
    println!("\n== check-repeat: two sets of the same code");
    println!(
        "  {:<16} {:<14} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    let mut agree = true;
    for (ra, rb) in a.iter().zip(b) {
        for (name, _, _, bound) in metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (ra.judged(name), rb.judged(name)) else {
                agree = false;
                continue;
            };
            let diff = if sa == sb {
                0.0
            } else {
                (sb - sa).abs() / sa.abs().max(f64::MIN_POSITIVE)
            };
            let bound = bound.unwrap_or(0.0);
            let ok = diff <= bound;
            agree &= ok;
            println!(
                "  {:<16} {:<14} {:>12} {:>12} {:>8.2}% {:>6.0}%{}",
                ra.workload.name,
                name,
                fmt(sa),
                fmt(sb),
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    agree
}

/// The default command: the full ledger.
fn ledger_main(args: &Args) -> Result<bool, String> {
    let quick = args.flag("--quick");
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let k = if quick { K_QUICK } else { K_FULL };
    let h = Harness::new(seed, quick)?;
    let host = Host::detect();
    println!(
        "# es-ledger seed={seed} quick={quick} runs/workload={k} lanes={} shards={} (each run a fresh process)",
        PINNED.0, PINNED.1
    );
    println!(
        "# host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        host.nproc, host.cpu, host.rustc, host.commit
    );
    let began = Instant::now();
    let mut progress =
        |what: &str| eprintln!("[es-ledger {:6.1}s] {what}", began.elapsed().as_secs_f64());

    let first = harness::run_set(&h, k, &mut progress);
    let repeat = args
        .flag("--check-repeat")
        .then(|| harness::run_set(&h, k, &mut progress));

    let mut layers: Layers = BTreeMap::new();
    let mut ok = true;
    for runs in &first {
        let ratios = Ratios::Named { nproc: host.nproc };
        match harness::layer_metrics(&h, runs, ratios, None, &mut progress) {
            Ok(found) => {
                layers.insert(runs.workload.name, found);
            }
            Err(e) => {
                ok = false;
                println!("\nFAILED: traced pass: {e}");
            }
        }
        ok &= runs.correct();
        print_workload(runs, layers.get(runs.workload.name));
    }
    if let Some(second) = &repeat {
        for runs in second {
            ok &= runs.correct();
            for f in runs.failures.iter().chain(&runs.disagreements()) {
                println!("FAILED (second set): {f}");
            }
        }
        ok &= check_repeat(&first, second);
    }

    std::fs::create_dir_all(&h.out_dir).map_err(|e| format!("{}: {e}", h.out_dir.display()))?;
    let path = h.out_dir.join("ledger.json");
    std::fs::write(&path, ledger_json(&h, &host, k, &first, &layers))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\n# wrote {} and {} span files; {}",
        path.display(),
        layers.len(),
        if ok {
            "all gates passed"
        } else {
            "GATE FAILED"
        }
    );
    if quick {
        println!("# quick: smoke sizes, not comparable with BENCHMARK results");
    }
    Ok(ok)
}

fn metric_json(out: &mut String, name: &str, unit: &str, v: f64) {
    report::key(out, name);
    out.push('{');
    report::num(out, "value", v);
    report::text(out, "unit", unit);
    out.push('}');
}

/// `--workload W --seed N --seconds S --trace T`: the BENCHMARK.json
/// contract. Children run one after another for `S` seconds — another
/// one starts while half of it still fits — and the last stdout line
/// is the result object. An operation is one child run; a run that
/// violates the correctness gate is a failed operation and is left out
/// of the figures.
fn contract_main(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let w = args.workload()?;
    let seed = args.number("--seed")?.ok_or("--seed is required")?;
    let seconds = args.number("--seconds")?.ok_or("--seconds is required")?;
    let traced = match args.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let h = Harness::new(seed, false)?;
    let mut progress = |what: &str| {
        eprintln!(
            "[es-ledger {:6.1}s] {what}",
            started.elapsed().as_secs_f64()
        )
    };
    let budget = Duration::from_secs(seconds);
    let deadline = started + budget;

    let mut runs = WorkloadRuns::new(w);
    let mut metrics_out = String::from("{");
    if traced {
        for i in 0..CONTRACT_BASE_RUNS {
            if i > 0 && Instant::now() >= deadline {
                break;
            }
            progress(&format!(
                "base + rerun {}/{CONTRACT_BASE_RUNS} {}",
                i + 1,
                w.name
            ));
            runs.push(h.spawn(w, PINNED, &Kind::Rerun));
        }
        let (layers, _) =
            harness::layer_metrics(&h, &runs, Ratios::All, Some(deadline), &mut progress)?;
        for (name, unit, _, _) in metrics::PER_LAYER {
            let v = layers
                .get(name)
                .ok_or_else(|| format!("{}: per-layer metric {name} was not produced", w.name))?;
            metric_json(&mut metrics_out, name, unit, *v);
        }
    } else {
        // None of the five metrics below needs the skew correlation,
        // and on `fleet1k-relayed` leaving it out buys a fourth child.
        let mut longest = Duration::ZERO;
        while runs.attempted() < MIN_CONTRACT_RUNS || started.elapsed() + longest / 2 <= budget {
            let spawned = Instant::now();
            runs.push(h.spawn(w, PINNED, &Kind::WallOnly));
            longest = longest.max(spawned.elapsed());
        }
        let each: Vec<String> = runs
            .good
            .iter()
            .map(|r| {
                let x = r.measured.e2e.get("x_realtime").copied().unwrap_or(0.0);
                format!("{}@{:.3}", fmt(x), r.measured.host_speed)
            })
            .collect();
        progress(&format!(
            "x_realtime@host_speed run by run: {}",
            each.join(" ")
        ));
        for (name, unit, _, _) in metrics::BENCH_END_TO_END {
            let value = match name {
                "played_fraction" => runs.judged("fail_fraction").map(|f| 1.0 - f),
                _ => runs.judged(name),
            }
            .ok_or_else(|| format!("{}: no good run reported {name}", w.name))?;
            metric_json(&mut metrics_out, name, unit, value);
        }
    }
    metrics_out.push('}');
    for f in runs.failures.iter().chain(&runs.disagreements()) {
        eprintln!("[es-ledger] FAILED: {f}");
    }

    let mut out = String::from("{");
    report::flag(&mut out, "correct", runs.correct());
    report::num(&mut out, "attempted", runs.attempted() as f64);
    report::num(&mut out, "failed", runs.failures.len() as f64);
    report::key(&mut out, "metrics");
    out.push_str(&metrics_out);
    out.push('}');
    println!("{out}");
    // The verdict travels in `correct`; a printed result exits 0.
    Ok(true)
}
