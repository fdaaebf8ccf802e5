//! The static-analysis gate, enforced from inside the test suite: the
//! live workspace must carry zero active es-analyze findings (lexical
//! rules and the workspace pass alike), every suppression must be
//! reasoned, and the analyzer must stay fast enough to run before
//! everything else in `scripts/check.sh`.

use std::path::Path;

use es_analyze::{analyze_workspace, passes, rules};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_has_zero_active_findings() {
    let report = analyze_workspace(workspace_root()).expect("walk workspace");
    let active: Vec<_> = report.active().collect();
    assert!(
        active.is_empty(),
        "es-analyze found invariant violations — fix them or add a reasoned \
         `// es-allow(rule): reason` pragma:\n{}",
        report.human(false)
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}); did the walker lose the workspace?",
        report.files_scanned
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = analyze_workspace(workspace_root()).expect("walk workspace");
    for f in &report.findings {
        if f.allowed {
            let reason = f.reason.as_deref().unwrap_or("");
            assert!(
                reason.len() >= 10,
                "{}:{}: pragma reason too thin to audit: {reason:?}",
                f.rel,
                f.line
            );
        }
    }
}

#[test]
fn registry_covers_the_advertised_rules() {
    let ids: Vec<&str> = rules::all().iter().map(|r| r.id).collect();
    for required in [
        "wall-clock",
        "unseeded-rng",
        "hash-iter-order",
        "telemetry-key",
        "unsafe-audit",
        "spec-builder-naming",
    ] {
        assert!(ids.contains(&required), "rule `{required}` missing");
    }
    assert!(ids.len() >= 5);
    // Exactly one check needs the whole workspace at once.
    let pass_ids: Vec<&str> = passes::all().iter().map(|p| p.id).collect();
    assert_eq!(pass_ids, ["telemetry-registry"]);
}

#[test]
fn analyzer_is_cheap_enough_for_the_gate() {
    #[allow(clippy::disallowed_methods)]
    // es-allow(wall-clock): measures the analyzer itself for the gate budget
    let start = std::time::Instant::now();
    let report = analyze_workspace(workspace_root()).expect("walk workspace");
    let elapsed = start.elapsed();
    assert!(report.files_scanned > 0);
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "es-analyze took {elapsed:?} on the workspace; the gate budget is 5s"
    );
}
