//! Self-test: every registered rule *and the workspace pass* is
//! exercised by a positive and a negative fixture, both through the
//! library API and through the compiled CLI (exit codes, `--strict`,
//! `--json`).

use std::path::{Path, PathBuf};
use std::process::Command;

use es_analyze::{analyze_source, passes, rules, walker};

/// Every check id: the lexical rules plus the workspace pass. The
/// fixture convention is identical for both because `analyze_source`
/// runs the pass over a one-file workspace.
fn all_check_ids() -> Vec<String> {
    rules::all()
        .iter()
        .map(|r| r.id.to_string())
        .chain(passes::all().iter().map(|p| p.id.to_string()))
        .collect()
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// `wall-clock` → `wall_clock_pos.rs` / `wall_clock_neg.rs`.
fn fixture_path(rule: &str, positive: bool) -> PathBuf {
    let stem = rule.replace('-', "_");
    let suffix = if positive { "pos" } else { "neg" };
    fixtures_dir().join(format!("{stem}_{suffix}.rs"))
}

/// Analyzes a fixture as if it lived in a scoped, non-allowlisted
/// crate, so rules with path allowlists still apply.
fn analyze_fixture(path: &Path) -> Vec<es_analyze::Finding> {
    let rel = format!(
        "crates/net/src/{}",
        path.file_name().unwrap().to_string_lossy()
    );
    let file = walker::attribute(path.to_path_buf(), rel);
    let src = std::fs::read_to_string(path).expect("fixture readable");
    analyze_source(&file, &src)
}

#[test]
fn every_rule_has_both_fixtures() {
    for id in all_check_ids() {
        for positive in [true, false] {
            let p = fixture_path(&id, positive);
            assert!(
                p.is_file(),
                "rule `{id}` is missing fixture {}",
                p.display()
            );
        }
    }
}

#[test]
fn positive_fixtures_fire_their_rule() {
    for id in all_check_ids() {
        let findings = analyze_fixture(&fixture_path(&id, true));
        let active: Vec<_> = findings
            .iter()
            .filter(|f| !f.allowed && f.rule == id)
            .collect();
        assert!(
            !active.is_empty(),
            "positive fixture for `{id}` produced no active finding of that rule; got {findings:?}"
        );
    }
}

#[test]
fn negative_fixtures_are_clean() {
    for id in all_check_ids() {
        let findings = analyze_fixture(&fixture_path(&id, false));
        let active: Vec<_> = findings.iter().filter(|f| !f.allowed).collect();
        assert!(
            active.is_empty(),
            "negative fixture for `{id}` has active findings: {active:?}"
        );
    }
}

#[test]
fn pragma_fixture_counts_as_allowed() {
    let findings = analyze_fixture(&fixture_path("pragma", false));
    let allowed: Vec<_> = findings.iter().filter(|f| f.allowed).collect();
    assert_eq!(allowed.len(), 1, "expected one suppressed finding");
    assert_eq!(allowed[0].rule, "wall-clock");
    assert_eq!(
        allowed[0].reason.as_deref(),
        Some("fixture exercises a sanctioned suppression")
    );
}

#[test]
fn pragma_fixture_flags_the_typo_and_the_suppression_that_covers_nothing() {
    let findings = analyze_fixture(&fixture_path("pragma", true));
    let pragma: Vec<_> = findings.iter().filter(|f| f.rule == "pragma").collect();
    assert_eq!(pragma.len(), 2, "{findings:?}");
    assert!(pragma[0].message.contains("unknown rule `wallclock`"));
    assert!(pragma[1]
        .message
        .contains("pragma for `wall-clock` covers no finding"));
    assert!(pragma.iter().all(|f| !f.allowed));
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_es-analyze"))
        .args(args)
        .output()
        .expect("run es-analyze");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_exits_nonzero_on_each_positive_fixture_and_zero_on_negatives() {
    for id in all_check_ids() {
        let pos = fixture_path(&id, true);
        let (code, stdout, _) = run_cli(&["--as-crate", "net", pos.to_str().unwrap()]);
        assert_eq!(
            code,
            1,
            "expected exit 1 for {}; stdout:\n{stdout}",
            pos.display()
        );
        assert!(stdout.contains(&format!("[{id}]")));

        let neg = fixture_path(&id, false);
        let (code, stdout, _) = run_cli(&["--as-crate", "net", neg.to_str().unwrap()]);
        assert_eq!(
            code,
            0,
            "expected exit 0 for {}; stdout:\n{stdout}",
            neg.display()
        );
    }
}

#[test]
fn cli_strict_lists_suppressions_and_json_counts_them() {
    let neg = fixture_path("pragma", false);
    let neg = neg.to_str().unwrap();

    // Plain run: clean, quiet about the suppression.
    let (code, stdout, _) = run_cli(&[neg]);
    assert_eq!(code, 0);
    assert!(!stdout.contains("allowed:"));
    assert!(stdout.contains("0 finding(s), 1 allowed"));

    // Strict run: still exit 0, but the suppression is listed.
    let (code, stdout, _) = run_cli(&["--strict", neg]);
    assert_eq!(code, 0);
    assert!(stdout.contains("[wall-clock] allowed: fixture exercises a sanctioned suppression"));

    // JSON: suppressed findings are always present and counted.
    let (code, stdout, _) = run_cli(&["--json", neg]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"active\": 0"));
    assert!(stdout.contains("\"allowed\": 1"));
    assert!(stdout.contains("\"reason\": \"fixture exercises a sanctioned suppression\""));
}

#[test]
fn cli_list_rules_names_every_rule() {
    let (code, stdout, _) = run_cli(&["--list-rules"]);
    assert_eq!(code, 0);
    for id in all_check_ids() {
        assert!(stdout.contains(&id), "missing {id} in:\n{stdout}");
    }
}

#[test]
fn cli_usage_error_is_exit_two() {
    // A bare invocation is workspace mode now, not a usage error —
    // only malformed flags earn exit 2.
    let (code, _, stderr) = run_cli(&["--bogus-flag"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"));
}
