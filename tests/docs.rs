//! Docs ⇔ code: every `--bench <name>` the prose tells a reader to
//! run is a real target, every target is documented, nothing points at
//! the perf baselines the ledger replaced or the relay re-stamping
//! that was deleted, DESIGN.md §8 lists exactly
//! the checks es-analyze registers, and §10 exactly the counters the
//! healing plane exports.

use std::collections::BTreeSet;
use std::path::Path;

use es_telemetry::Telemetry;

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
fn no_doc_describes_the_deleted_relay_restamping() {
    // A segment relay forwards the datagram it heard; the deadline
    // ledger, stale-parity count and timeline rewrite are gone.
    for doc in DOCS {
        let text = read(doc);
        for needle in ["DEADLINE_WINDOW", "parity_stale", "re-stamping contract"] {
            assert!(!text.contains(needle), "{doc} still mentions {needle}");
        }
    }
}

#[test]
fn no_doc_describes_the_deleted_segment_labels() {
    // Events carry no segment label; a relay's fleet is named by its
    // downstream group alone.
    for doc in ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let text = read(doc);
        for needle in ["set_segment", "current_segment", "schedule_at_segment"] {
            assert!(!text.contains(needle), "{doc} still mentions {needle}");
        }
    }
}

/// What a caller of a shim kept only so the frozen `benches/ledger`
/// builds writes.
const LEDGER_SHIM_CALLS: [&str; 9] = [
    ".fleet_threads(",
    ".sim_shards(",
    "::with_shards(",
    ".merge_scans(",
    "parity_stale",
    ".segment(",
    "ShardRouter",
    ".cross_segment_posts(",
    "::cross_segment_posts(",
];

/// How a shim's own definition opens (after indentation).
const LEDGER_SHIM_DEFINITIONS: [&str; 4] = [
    "pub struct ShardRouter",
    "impl ShardRouter",
    "pub use engine::ShardRouter",
    "pub parity_stale:",
];

/// Every `.rs` file under `dir`, build output aside.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_ledger_shims_have_no_callers_outside_the_ledger() {
    // The next `benchmark` PR deletes these together with the frozen
    // ledger's calls; a new caller here would block it.
    let this_file = root().join(file!());
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 100, "only {} .rs files found", files.len());
    let mut callers = Vec::new();
    for path in files.iter().filter(|p| **p != this_file) {
        let text = std::fs::read_to_string(path).expect("readable source");
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("").trim_start();
            if LEDGER_SHIM_DEFINITIONS.iter().any(|d| code.starts_with(d)) {
                continue;
            }
            if let Some(call) = LEDGER_SHIM_CALLS.iter().find(|c| code.contains(*c)) {
                let rel = path.strip_prefix(root()).unwrap_or(path);
                callers.push(format!("{}:{}: {call}", rel.display(), n + 1));
            }
        }
    }
    assert!(
        callers.is_empty(),
        "ledger-only shims called outside benches/ledger:\n{}",
        callers.join("\n")
    );
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

#[test]
fn design_md_lists_exactly_the_counters_heal_stats_records() {
    // §10 "Journal contract": "… export under `heal/heal0/*`: `a`,
    // `b`, … `z`." — the backticked words up to the full stop.
    let design = read("DESIGN.md");
    let list = design
        .split_once("\n### Journal contract")
        .and_then(|(_, rest)| rest.split_once("`heal/heal0/*`:"))
        .and_then(|(_, rest)| rest.split_once('.'))
        .expect("DESIGN.md §10 Journal contract lists the `heal/heal0/*` counters")
        .0;
    let documented: BTreeSet<&str> = list.split('`').skip(1).step_by(2).collect();
    let mut reg = es_telemetry::Registry::new();
    es_heal::HealStats::default().record(&mut reg);
    let snap = reg.snapshot();
    assert!(snap.iter().all(|m| m.key.component == "heal"));
    let recorded: BTreeSet<&str> = snap.iter().map(|m| m.key.name.as_str()).collect();
    assert_eq!(documented, recorded, "DESIGN.md §10 vs HealStats::record");
}
