//! # es-analyze — the workspace determinism-and-invariant linter
//!
//! The reproduction rests on invariants `rustc` cannot see: all
//! simulated components use *virtual* time (the paper's producer wall
//! clock is simulated, §3.2), every random draw flows from the
//! scenario seed, and iteration orders are the same in every
//! process. One stray `Instant::now()` or `HashMap` iteration
//! silently breaks replay and is only caught — maybe — by the chaos
//! fingerprint diff, after the fact. This crate checks those
//! invariants *statically*, so the build refuses the bug instead of
//! the chaos suite happening to catch it.
//!
//! The engine is dependency-free: a hand-rolled lexer
//! ([`lexer`]) distinguishes code from comments and strings, a
//! workspace walker ([`walker`]) attributes files to crates and
//! target roles, and a rule registry ([`rules`]) runs lexical checks
//! scoped by that attribution. Legitimate exceptions are written down
//! in-line as `// es-allow(rule): reason` pragmas ([`pragma`]); the
//! reason is mandatory and the pragma must name a registered rule.
//!
//! Run it as `cargo run -p es-analyze -- --workspace` (non-zero exit
//! on any unexcused finding) — `scripts/check.sh` does, before the
//! test suite, archiving the JSON report to `results/analyze.json`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod cache;
pub mod index;
pub mod jsonio;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walker;

use std::fs;
use std::io;
use std::path::Path;

pub use report::Report;
pub use walker::{Role, SourceFile};

/// One finding after pragma resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`wall-clock`, `unseeded-rng`, …).
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// 1-based line number.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// True if an `es-allow` pragma excuses it.
    pub allowed: bool,
    /// The pragma's reason, when allowed.
    pub reason: Option<String>,
}

/// Runs phase 1 on one file: lexical rules plus the parsed
/// [`parser::FileSummary`] the semantic passes consume. Findings
/// covered by a well-formed pragma come back `allowed` with the
/// pragma's reason attached.
fn phase1(file: &SourceFile, src: &str) -> (Vec<Finding>, parser::FileSummary) {
    let lexed = lexer::lex(src);
    let pragmas = pragma::parse(&lexed.comments);
    let ctx = rules::FileCtx {
        file,
        tokens: &lexed.tokens,
        comments: &lexed.comments,
        pragmas: &pragmas,
    };
    let mut out = Vec::new();
    for rule in rules::all() {
        for raw in rule.check(&ctx) {
            let covering = pragma::covering(&pragmas, rule.id, raw.line);
            out.push(Finding {
                rule: rule.id.to_string(),
                rel: file.rel.clone(),
                line: raw.line,
                message: raw.message,
                allowed: covering.is_some(),
                reason: covering.map(|p| p.reason.clone()),
            });
        }
    }
    let summary = parser::parse(&lexed.tokens, &lexed.comments);
    (out, summary)
}

/// Runs every phase-2 semantic pass over the indexed entries and
/// resolves each pass finding against its target file's pragmas.
fn run_passes(entries: &[index::FileEntry]) -> Vec<Finding> {
    let ix = index::Index::build(entries);
    let mut out = Vec::new();
    for pass in passes::all() {
        for pf in (pass.check)(&ix) {
            let covering = entries
                .iter()
                .find(|e| e.rel == pf.rel)
                .and_then(|e| pragma::covering(&e.summary.pragmas, pass.id, pf.line));
            out.push(Finding {
                rule: pass.id.to_string(),
                rel: pf.rel,
                line: pf.line,
                message: pf.message,
                allowed: covering.is_some(),
                reason: covering.map(|p| p.reason.clone()),
            });
        }
    }
    out
}

/// Analyzes one file's source text under the given attribution — both
/// the lexical rules and the semantic passes, the latter over a
/// one-file workspace (which is how the fixture tests exercise them;
/// cross-file resolution needs [`analyze_workspace`]).
pub fn analyze_source(file: &SourceFile, src: &str) -> Vec<Finding> {
    let (mut out, summary) = phase1(file, src);
    let entries = vec![index::FileEntry {
        rel: file.rel.clone(),
        krate: file.krate.clone(),
        role: file.role,
        summary,
    }];
    out.extend(run_passes(&entries));
    out.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    out
}

/// Analyzes one file from disk.
pub fn analyze_file(file: &SourceFile) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(&file.path)?;
    Ok(analyze_source(file, &src))
}

/// Analyzes every `.rs` file under `root` (skipping `target/`,
/// `results/`, dotdirs, and the analyzer's own rule-violation
/// fixtures). Findings are sorted by (path, line, rule).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    analyze_workspace_cached(root, None)
}

/// [`analyze_workspace`] with an optional incremental cache. When
/// `cache_path` is given, phase 1 (lex → parse → lexical rules) is
/// skipped for files whose byte hash matches the cached entry; phase 2
/// always re-runs over the (cached or fresh) summaries because its
/// findings are cross-file. The refreshed cache is written back
/// before returning.
pub fn analyze_workspace_cached(root: &Path, cache_path: Option<&Path>) -> io::Result<Report> {
    Ok(analyze_workspace_full(root, cache_path)?.0)
}

/// The full workspace sweep: the report plus the telemetry key
/// inventory (the source of `results/telemetry-keys.json`), extracted
/// from the same phase-1 summaries so a warm run pays for neither
/// twice.
pub fn analyze_workspace_full(
    root: &Path,
    cache_path: Option<&Path>,
) -> io::Result<(Report, Vec<passes::KeyEntry>)> {
    let files = walker::discover(root)?;
    let mut cached = cache_path.and_then(cache::Cache::load).unwrap_or_default();
    let mut findings = Vec::new();
    let mut entries = Vec::with_capacity(files.len());
    let mut next = cache::Cache::default();
    for file in &files {
        let bytes = fs::read(&file.path)?;
        let hash = cache::fnv1a64(&bytes);
        let entry = match cached.files.remove(&file.rel) {
            Some(e) if e.hash == hash => e,
            _ => {
                let src = String::from_utf8_lossy(&bytes);
                let (file_findings, summary) = phase1(file, &src);
                cache::Entry {
                    hash,
                    findings: file_findings,
                    summary,
                }
            }
        };
        findings.extend(entry.findings.iter().cloned());
        entries.push(index::FileEntry {
            rel: file.rel.clone(),
            krate: file.krate.clone(),
            role: file.role,
            summary: entry.summary.clone(),
        });
        next.files.insert(file.rel.clone(), entry);
    }
    findings.extend(run_passes(&entries));
    findings.sort_by(|a, b| {
        (a.rel.as_str(), a.line, a.rule.as_str()).cmp(&(b.rel.as_str(), b.line, b.rule.as_str()))
    });
    if let Some(path) = cache_path {
        // A cache that fails to write is a warm-start loss, not an
        // analysis failure.
        let _ = next.save(path);
    }
    let ix = index::Index::build(&entries);
    let inventory = passes::inventory(&ix);
    Ok((
        Report {
            // Every path in the report is relative to the workspace
            // root, so the tracked results/analyze.json must not carry
            // the absolute checkout path.
            root: ".".to_string(),
            files_scanned: files.len(),
            findings,
        },
        inventory,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str) -> SourceFile {
        walker::attribute(PathBuf::from(rel), rel.to_string())
    }

    #[test]
    fn pragma_downgrades_finding_to_allowed() {
        let src = "fn f() {\n    // es-allow(wall-clock): measures host jitter for a report\n    \
                   let t = Instant::now();\n}\n";
        let fs = analyze_source(&file("crates/net/src/lan.rs"), src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
        assert_eq!(
            fs[0].reason.as_deref(),
            Some("measures host jitter for a report")
        );
    }

    #[test]
    fn pragma_without_reason_does_not_suppress() {
        let src = "fn f() {\n    // es-allow(wall-clock):\n    let t = Instant::now();\n}\n";
        let fs = analyze_source(&file("crates/net/src/lan.rs"), src);
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].allowed);
    }

    #[test]
    fn pragma_for_other_rule_does_not_suppress() {
        let src = "fn f() {\n    // es-allow(unseeded-rng): wrong rule\n    \
                   let t = Instant::now();\n}\n";
        let fs = analyze_source(&file("crates/net/src/lan.rs"), src);
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].allowed);
    }
}
