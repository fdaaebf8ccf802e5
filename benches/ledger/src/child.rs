//! The child process: one fresh address space per run, so no run ever
//! times a program another run has already aged (a second in-process
//! `fleet64-ovl` run takes ≈1.45× the first — see the README's
//! contamination note (b), and `--rerun` below, which measures it).

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::probes;
use crate::report::ChildReport;
use crate::run::{self, Measured};
use crate::trace::Tracer;
use crate::workload::{Conditions, Workload};

/// What kind of run the parent asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// Tracing off: the only kind end-to-end metrics are taken from.
    Plain,
    /// `Plain` without the skew correlation after the timed region
    /// (`skew_us_max` reads 0): for callers that publish wall and
    /// resource figures only and would rather fit another run in.
    WallOnly,
    /// Spans on, capture tap attached, replay probes afterwards; the
    /// span file goes to the given path.
    Traced(PathBuf),
    /// The workload twice in this one process (finding (b)).
    Rerun,
}

/// Runs the child's job and returns its report.
pub fn run(start: Instant, w: Workload, c: Conditions, kind: &Kind) -> ChildReport {
    let mut report = ChildReport {
        workload: w.name.to_string(),
        seed: c.seed,
        quick: c.quick,
        lanes: c.lanes,
        shards: c.shards,
        ..ChildReport::default()
    };
    match kind {
        Kind::Plain => {
            let mut off = Tracer::new(false);
            report.measured = run::measure(start, &mut off, false, || w.build(c, true)).0;
        }
        Kind::WallOnly => {
            let mut off = Tracer::new(false);
            let build = || {
                let mut built = w.build(c, true);
                built.skew_peers.clear();
                built
            };
            report.measured = run::measure(start, &mut off, false, build).0;
        }
        Kind::Rerun => {
            let mut off = Tracer::new(false);
            let first = run::measure(start, &mut off, false, || w.build(c, true)).0;
            let again = run::measure(Instant::now(), &mut off, false, || w.build(c, true)).0;
            report.timings.insert(
                "core.rerun_wall_ratio".into(),
                again.wall_timed_s / first.wall_timed_s.max(1e-9),
            );
            report.measured = first;
        }
        Kind::Traced(path) => {
            let mut tracer = Tracer::new(true);
            let (measured, captured) = run::measure(start, &mut tracer, true, || w.build(c, true));
            report.timings = span_timings(&tracer);
            report.timings.extend(probes::run_all(
                w,
                c,
                &captured,
                &measured.counts,
                &mut tracer,
            ));
            report.measured = measured;
            if let Err(e) = write_spans(path, &tracer.to_json(w.name)) {
                report
                    .measured
                    .violations
                    .push(format!("span file {}: {e}", path.display()));
            }
        }
    }
    flag_non_finite(&mut report);
    report
}

fn write_spans(path: &Path, doc: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

/// Timings read straight off the traced run's spans.
fn span_timings(tracer: &Tracer) -> std::collections::BTreeMap<String, f64> {
    let first_ms = |name: &str| {
        tracer
            .durations_of(name)
            .first()
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    };
    let mut out = std::collections::BTreeMap::new();
    out.insert("core.build_ms".into(), first_ms("core.build"));
    out.insert("core.warmup_ms".into(), first_ms("core.warmup"));
    out.insert(
        "telemetry.snapshot_ms".into(),
        first_ms("telemetry.snapshot"),
    );
    out.insert(
        "telemetry.json_lines_ms".into(),
        first_ms("telemetry.json_lines"),
    );
    // Per-second cost growth inside one run (finding (c)): mean wall
    // of the last tenth of the timed virtual seconds over the first
    // tenth. Slice 0 is the warm-up second and is left out.
    let slices: Vec<f64> = tracer
        .durations_of("run.slice")
        .iter()
        .skip(1)
        .map(|&ns| ns as f64)
        .collect();
    let tenth = (slices.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let growth = match slices.len() {
        0 => 1.0,
        n => mean(&slices[n - tenth..]) / mean(&slices[..tenth]).max(1.0),
    };
    out.insert("core.slice_growth_ratio".into(), growth);
    out
}

/// A NaN or infinity in a report would not survive JSON; turn it into
/// a gate violation instead of a parse error in the parent.
fn flag_non_finite(report: &mut ChildReport) {
    let Measured {
        e2e,
        counts,
        violations,
        ..
    } = &mut report.measured;
    for (k, v) in e2e
        .iter_mut()
        .chain(counts.iter_mut())
        .chain(report.timings.iter_mut())
    {
        if !v.is_finite() {
            violations.push(format!("{k} is not finite ({v})"));
            *v = 0.0;
        }
    }
}
