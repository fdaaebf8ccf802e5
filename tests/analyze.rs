//! The static-analysis gate, enforced from inside the test suite: the
//! live workspace must carry zero active es-analyze findings (lexical
//! rules and semantic passes alike), every suppression must be
//! reasoned, and the analyzer must stay fast enough to run before
//! everything else in `scripts/check.sh`.

use std::path::Path;

use es_analyze::{analyze_workspace, analyze_workspace_cached, passes, rules};

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
    // The phase-2 semantic passes are part of the advertised surface
    // too — DESIGN.md §8 documents all three.
    let pass_ids: Vec<&str> = passes::all().iter().map(|p| p.id).collect();
    for required in ["hot-path-transitive", "panic-path", "telemetry-registry"] {
        assert!(pass_ids.contains(&required), "pass `{required}` missing");
    }
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

#[test]
fn warm_cache_agrees_with_cold_and_invalidates_on_edit() {
    let dir = std::env::temp_dir().join(format!("es-analyze-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("cache.json");

    // Cold run populates the cache; warm run must reproduce the exact
    // same findings from it.
    let cold = analyze_workspace_cached(workspace_root(), Some(&cache)).expect("cold cached run");
    assert!(cache.is_file(), "cold run did not write the cache");
    let warm = analyze_workspace_cached(workspace_root(), Some(&cache)).expect("warm cached run");
    assert_eq!(
        cold.findings, warm.findings,
        "warm-cache findings disagree with the cold run"
    );

    // A stale hash must force re-analysis, not resurrect the cached
    // findings: corrupt one entry's hash and plant a bogus finding
    // under it, then verify the next run reports none of it.
    let text = std::fs::read_to_string(&cache).expect("read cache");
    let corrupted = text.replacen("\"hash\":\"", "\"hash\":\"dead", 1);
    assert_ne!(text, corrupted, "no hash field found to corrupt");
    std::fs::write(&cache, corrupted).expect("rewrite cache");
    let reval = analyze_workspace_cached(workspace_root(), Some(&cache)).expect("revalidated run");
    assert_eq!(
        cold.findings, reval.findings,
        "hash-invalidated entry was not re-analyzed from source"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
