//! Docs ⇔ code: every `--bench <name>` the prose tells a reader to
//! run is a real target, every target is documented, nothing points at
//! the perf baselines the ledger replaced, and DESIGN.md §8 lists
//! exactly the checks es-analyze registers.

use std::collections::BTreeSet;
use std::path::Path;

/// Every file that hands a reader a command to run.
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "scripts/check.sh",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `name` of every `[[bench]]` table in `crates/bench/Cargo.toml`.
fn bench_targets() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_bench = false;
    for line in read("crates/bench/Cargo.toml").lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(name) = line.strip_prefix("name = ").filter(|_| in_bench) {
            out.insert(name.trim_matches('"').to_string());
        }
    }
    out
}

/// The word after each `--bench` in `text`, stripped of punctuation.
fn benches_mentioned(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut words = text.split_whitespace();
    while let Some(word) = words.next() {
        if word.ends_with("--bench") {
            let name = words.next().unwrap_or("");
            out.insert(
                name.trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
                    .to_string(),
            );
        }
    }
    out
}

#[test]
fn every_bench_the_docs_mention_is_a_target_with_a_file() {
    let targets = bench_targets();
    assert!(!targets.is_empty(), "no [[bench]] tables found");
    for name in &targets {
        let file = format!("crates/bench/benches/{name}.rs");
        assert!(root().join(&file).is_file(), "[[bench]] {name}: no {file}");
    }
    for doc in DOCS {
        for name in benches_mentioned(&read(doc)) {
            assert!(
                targets.contains(&name),
                "{doc} says `--bench {name}`, which is not a [[bench]] in crates/bench/Cargo.toml"
            );
        }
    }
}

#[test]
fn every_bench_target_is_documented_in_experiments_md() {
    let documented = benches_mentioned(&read("EXPERIMENTS.md"));
    for name in bench_targets() {
        assert!(
            documented.contains(&name),
            "EXPERIMENTS.md has no `--bench {name}` line"
        );
    }
}

#[test]
fn no_doc_points_at_the_deleted_perf_baselines() {
    for doc in DOCS {
        let text = read(doc);
        for needle in ["BENCH_PR", "ES_BENCH_BASELINE"] {
            assert!(!text.contains(needle), "{doc} still mentions {needle}");
        }
    }
}

#[test]
fn design_md_lists_exactly_the_checks_es_analyze_registers() {
    // Table rows of §8 open with the check id in backticks.
    let design = read("DESIGN.md");
    let section = design
        .split_once("\n## 8. ")
        .and_then(|(_, rest)| rest.split_once("\n## 9. "))
        .expect("DESIGN.md has a section 8 followed by a section 9")
        .0;
    let documented: BTreeSet<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once('`'))
        .map(|(id, _)| id)
        .collect();
    let registered: BTreeSet<&str> = es_analyze::rules::all()
        .iter()
        .map(|r| r.id)
        .chain(es_analyze::passes::all().iter().map(|p| p.id))
        .collect();
    assert_eq!(documented, registered, "DESIGN.md §8 tables vs registries");
    // The call-graph passes and the incremental cache are gone; no
    // doc may still send a reader to them.
    for doc in DOCS {
        let text = read(doc);
        for needle in [
            "panic-path",
            "hot-path-transitive",
            "--cache",
            "analyze-cache",
        ] {
            assert!(!text.contains(needle), "{doc} still mentions {needle}");
        }
    }
}
