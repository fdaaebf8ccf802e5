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
//! scoped by that attribution. One check needs every file at once —
//! a telemetry key must keep one kind workspace-wide — so a
//! telemetry-site extractor ([`parser`]) feeds a workspace pass
//! ([`passes`]). Legitimate exceptions are written down in-line as
//! `// es-allow(rule): reason` pragmas ([`pragma`]); the reason is
//! mandatory, and the pragma must name a registered check and cover a
//! finding.
//!
//! Run it as `cargo run -p es-analyze -- --workspace` (non-zero exit
//! on any unexcused finding) — `scripts/check.sh` does, before the
//! test suite, archiving the JSON report to `results/analyze.json`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

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

/// Resolves one raw finding against its file's pragmas: covered by a
/// well-formed pragma it comes back `allowed` with the pragma's reason
/// attached, and the pragma is marked used.
fn resolve(
    rule: &str,
    line: u32,
    message: String,
    entry: &passes::FileEntry,
    used: &mut [bool],
) -> Finding {
    let covering = pragma::covering(&entry.summary.pragmas, rule, line);
    if let Some(i) = covering {
        used[i] = true;
    }
    Finding {
        rule: rule.to_string(),
        rel: entry.rel.clone(),
        line,
        message,
        allowed: covering.is_some(),
        reason: covering.map(|i| entry.summary.pragmas[i].reason.clone()),
    }
}

/// Analyzes a set of files as one workspace: the lexical rules on each
/// file, the workspace pass over all of them, then pragma hygiene —
/// a pragma naming a registered check that covered no finding of
/// either kind is a `pragma` finding, which is why it is judged last.
/// Findings are sorted by (path, line, rule).
fn analyze_sources(sources: &[(&SourceFile, &str)]) -> (Vec<Finding>, Vec<passes::KeyEntry>) {
    let mut findings = Vec::new();
    let mut entries = Vec::with_capacity(sources.len());
    let mut used: Vec<Vec<bool>> = Vec::with_capacity(sources.len());
    for &(file, src) in sources {
        let lexed = lexer::lex(src);
        let entry = passes::FileEntry {
            rel: file.rel.clone(),
            summary: parser::parse(&lexed.tokens, &lexed.comments),
        };
        let mut file_used = vec![false; entry.summary.pragmas.len()];
        let ctx = rules::FileCtx {
            file,
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            pragmas: &entry.summary.pragmas,
        };
        for rule in rules::all() {
            for raw in rule.check(&ctx) {
                findings.push(resolve(
                    rule.id,
                    raw.line,
                    raw.message,
                    &entry,
                    &mut file_used,
                ));
            }
        }
        entries.push(entry);
        used.push(file_used);
    }
    for pass in passes::all() {
        for pf in (pass.check)(&entries) {
            if let Some(i) = entries.iter().position(|e| e.rel == pf.rel) {
                findings.push(resolve(
                    pass.id,
                    pf.line,
                    pf.message,
                    &entries[i],
                    &mut used[i],
                ));
            }
        }
    }
    for (entry, file_used) in entries.iter().zip(&used) {
        for (p, &was_used) in entry.summary.pragmas.iter().zip(file_used) {
            // An unknown rule id is already a finding: the lexical
            // half of the `pragma` rule.
            if was_used || !rules::is_registered(&p.rule) {
                continue;
            }
            findings.push(Finding {
                rule: "pragma".to_string(),
                rel: entry.rel.clone(),
                line: p.line,
                message: format!(
                    "pragma for `{}` covers no finding on its own line or the line below; \
                     delete it, or move it next to the code it excuses",
                    p.rule
                ),
                allowed: false,
                reason: None,
            });
        }
    }
    findings.sort_by(|a, b| {
        (a.rel.as_str(), a.line, a.rule.as_str()).cmp(&(b.rel.as_str(), b.line, b.rule.as_str()))
    });
    (findings, passes::inventory(&entries))
}

/// Analyzes one file's source text under the given attribution — the
/// lexical rules and the workspace pass, the latter over a one-file
/// workspace (which is how the fixture tests exercise it; cross-file
/// conflicts need [`analyze_workspace`]).
pub fn analyze_source(file: &SourceFile, src: &str) -> Vec<Finding> {
    analyze_sources(&[(file, src)]).0
}

/// Analyzes one file from disk.
pub fn analyze_file(file: &SourceFile) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(&file.path)?;
    Ok(analyze_source(file, &src))
}

/// Analyzes every `.rs` file under `root` (skipping `target/`,
/// `results/`, dotdirs, and the analyzer's own rule-violation
/// fixtures).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    Ok(analyze_workspace_full(root)?.0)
}

/// The full workspace sweep: the report plus the telemetry key
/// inventory (the source of `results/telemetry-keys.json`), extracted
/// from the same per-file summaries.
pub fn analyze_workspace_full(root: &Path) -> io::Result<(Report, Vec<passes::KeyEntry>)> {
    let files = walker::discover(root)?;
    let texts = files
        .iter()
        .map(|f| Ok(String::from_utf8_lossy(&fs::read(&f.path)?).into_owned()))
        .collect::<io::Result<Vec<String>>>()?;
    let sources: Vec<(&SourceFile, &str)> = files
        .iter()
        .zip(&texts)
        .map(|(f, t)| (f, t.as_str()))
        .collect();
    let (findings, inventory) = analyze_sources(&sources);
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
    fn pragma_for_other_rule_does_not_suppress_and_is_itself_flagged() {
        let src = "fn f() {\n    // es-allow(unseeded-rng): wrong rule\n    \
                   let t = Instant::now();\n}\n";
        let fs = analyze_source(&file("crates/net/src/lan.rs"), src);
        let got: Vec<(&str, u32, bool)> = fs
            .iter()
            .map(|f| (f.rule.as_str(), f.line, f.allowed))
            .collect();
        assert_eq!(got, vec![("pragma", 2, false), ("wall-clock", 3, false)]);
    }

    #[test]
    fn pass_findings_count_as_pragma_use() {
        let src = "fn a(r: &mut R) { r.component(\"net\").counter(\"k\", 1); }\n\
                   fn b(r: &mut R) { r.component(\"net\").counter(\"k\", 1); }\n\
                   // es-allow(telemetry-registry): fixture keeps a legacy gauge\n\
                   fn c(r: &mut R) { r.component(\"net\").gauge(\"k\", 1.0); }\n";
        let fs = analyze_source(&file("crates/net/src/lan.rs"), src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "telemetry-registry");
        assert!(fs[0].allowed);
    }
}
