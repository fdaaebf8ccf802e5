//! Vectorized-DSP benchmark with a tracked JSON baseline.
//!
//! Extends the PR3 baseline: the same `pipeline` group and the
//! `fleet_*` rows (via `es_bench::fleet_exp`, so `ES_BENCH_BASELINE`
//! can point at `BENCH_PR3.json` for cross-checks) plus a
//! `dsp_kernels` group measuring per-kernel samples/sec through the
//! batch primitives in `es_codec::dsp` and the zero-alloc OVL decode
//! they compose into. Writes `BENCH_PR6.json` at the repo root.
//!
//! Run: `cargo bench -p es-bench --bench dsp`
//! (`ES_BENCH_QUICK=1` shrinks the sweep for CI;
//! `ES_BENCH_BASELINE=<file>` compares against a saved report.)
//!
//! Baseline handling is stricter than the older benches: a >20%
//! regression in the `pipeline` group fails the process — the
//! end-to-end decode path is the number this PR series optimizes, and
//! a silent 20% giveback there is a bug, not a warning. The fleet
//! sweep's `fleet_*.t1_x_realtime_aggregate` rates are gated too but
//! stay warnings (labeled `FLEET`): the sweep is noisier on a loaded
//! host and its group set grows across PRs. Lower-is-better
//! `wall_seconds` keys are skipped inside `baseline_warnings` itself,
//! so no per-key carve-out is needed here. Micro-kernel groups stay
//! plain warnings.

use es_bench::{fleet_exp, perf};

fn main() {
    let mut report = fleet_exp::run();
    report.bench = "dsp".into();
    let iters: u32 = if report.quick { 40 } else { 400 };
    report
        .groups
        .push(("dsp_kernels".into(), perf::dsp_kernels_group(iters)));

    println!("== dsp: batch-kernel throughput + pipeline/fleet gates ==");
    if report.quick {
        println!("(quick mode: shortened sweep, numbers are smoke-test grade)");
    }
    let mut rows = Vec::new();
    for (group, metrics) in &report.groups {
        for (name, value) in metrics {
            rows.push(vec![group.clone(), name.clone(), format!("{value:.3}")]);
        }
    }
    println!(
        "{}",
        es_bench::report::table(&["group", "metric", "value"], &rows)
    );

    if let Err(bad) = report.validate() {
        eprintln!("dsp: invalid metric: {bad}");
        std::process::exit(1);
    }

    let doc = report.to_json();
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR6.json");
    if let Err(e) = std::fs::write(out_path, format!("{doc}\n")) {
        eprintln!("dsp: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    let written = std::fs::read_to_string(out_path).unwrap_or_default();
    match es_bench::perf::flatten_metrics(&written) {
        Ok(flat) if !flat.is_empty() => {
            println!("wrote {} metrics to {out_path}", flat.len());
        }
        Ok(_) => {
            eprintln!("dsp: {out_path} contains no metrics");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("dsp: {out_path} is malformed: {e}");
            std::process::exit(1);
        }
    }

    if let Ok(path) = std::env::var("ES_BENCH_BASELINE") {
        match std::fs::read_to_string(&path) {
            Ok(baseline) => match es_bench::perf::baseline_warnings(&doc, &baseline) {
                Ok(warnings) if warnings.is_empty() => {
                    println!("baseline {path}: no regressions > 20%");
                }
                Ok(warnings) => {
                    let mut fatal = false;
                    for w in &warnings {
                        let hard = w.starts_with("regression: pipeline.");
                        let tag = if hard {
                            "FATAL "
                        } else if w.starts_with("regression: fleet_") {
                            "FLEET "
                        } else {
                            ""
                        };
                        eprintln!("dsp: {tag}{w}");
                        fatal |= hard;
                    }
                    if fatal {
                        eprintln!("dsp: pipeline-group regression exceeds 20%; failing");
                        std::process::exit(1);
                    }
                }
                Err(e) => eprintln!("dsp: baseline {path} unusable: {e}"),
            },
            Err(e) => eprintln!("dsp: cannot read baseline {path}: {e}"),
        }
    }
}
