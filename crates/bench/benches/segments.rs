//! Relay fan-out scaling benchmark with a tracked JSON baseline.
//!
//! Runs the `seg_exp` sweep — {1k, 4k, 10k} speakers behind four
//! segment relays, plus the PR3 `pipeline` group — and writes
//! `BENCH_PR9.json` at the repo root.
//!
//! Run: `cargo bench -p es-bench --bench segments`
//! (`ES_BENCH_QUICK=1` shrinks the sweep for CI;
//! `ES_BENCH_BASELINE=<file>` compares against a saved report.)
//!
//! Baseline handling mirrors the dsp bench: a >20% regression in the
//! `pipeline` group fails the process — relays must not tax the
//! single-speaker path — while `segments_*` rate regressions stay
//! warnings (the big sweeps are noisier on a loaded host). Point
//! `ES_BENCH_BASELINE` at `BENCH_PR6.json` to cross-check the
//! pipeline numbers.

use es_bench::seg_exp;

fn main() {
    let report = seg_exp::run();

    println!("== segments: relay fan-out scaling ==");
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
        eprintln!("segments: invalid metric: {bad}");
        std::process::exit(1);
    }

    let doc = report.to_json();
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");
    if let Err(e) = std::fs::write(out_path, format!("{doc}\n")) {
        eprintln!("segments: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    let written = std::fs::read_to_string(out_path).unwrap_or_default();
    match es_bench::perf::flatten_metrics(&written) {
        Ok(flat) if !flat.is_empty() => {
            println!("wrote {} metrics to {out_path}", flat.len());
        }
        Ok(_) => {
            eprintln!("segments: {out_path} contains no metrics");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("segments: {out_path} is malformed: {e}");
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
                        let tag = if hard { "FATAL " } else { "" };
                        eprintln!("segments: {tag}{w}");
                        fatal |= hard;
                    }
                    if fatal {
                        eprintln!("segments: pipeline-group regression exceeds 20%; failing");
                        std::process::exit(1);
                    }
                }
                Err(e) => eprintln!("segments: baseline {path} unusable: {e}"),
            },
            Err(e) => eprintln!("segments: cannot read baseline {path}: {e}"),
        }
    }
}
