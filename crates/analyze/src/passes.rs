//! The workspace pass: the one check that needs every file at once.
//!
//! The lexical rules in [`crate::rules`] see one file's token stream
//! at a time. Whether a telemetry key keeps one kind is a property of
//! the whole workspace — the counter and the gauge that disagree live
//! in different crates — so it runs after every file has been
//! summarized, over the per-file telemetry site lists. A pass produces
//! findings attributed to a file and line exactly like a rule, and
//! `// es-allow(<pass-id>): reason` pragmas in that file suppress them
//! the same way (see DESIGN.md §8).

use std::collections::BTreeMap;

use crate::parser::FileSummary;

/// One file as a pass sees it.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Its telemetry sites and pragmas.
    pub summary: FileSummary,
}

/// A pass finding before pragma resolution — the cross-file analogue
/// of [`crate::rules::RawFinding`], carrying the file it lands in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassFinding {
    /// Workspace-relative path of the file the finding anchors to.
    pub rel: String,
    /// 1-based line number.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// One workspace pass.
pub struct Pass {
    /// Stable id, used in pragmas and reports (`telemetry-registry`).
    pub id: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// The pass body.
    pub check: fn(&[FileEntry]) -> Vec<PassFinding>,
}

/// Every workspace pass, in documentation order.
pub fn all() -> Vec<Pass> {
    vec![Pass {
        id: "telemetry-registry",
        summary: "every component/name telemetry key has exactly one kind \
                  (counter|gauge|histogram) across the workspace",
        check: telemetry_registry,
    }]
}

/// True when a pass id is registered (pragma hygiene uses this).
pub fn is_registered(id: &str) -> bool {
    all().iter().any(|p| p.id == id)
}

/// `telemetry-registry`: a (component, name) key must keep one kind
/// workspace-wide — a `Scope` write of one kind replaces whatever the
/// key held as another, and the snapshot's kind-typed lookups
/// (`counter`, `counter_delta`, `sum_counters`) read nothing from a key
/// of the wrong kind. Findings anchor at the first site of each
/// conflicting kind beyond the majority one.
fn telemetry_registry(files: &[FileEntry]) -> Vec<PassFinding> {
    let inv = inventory(files);
    let mut out = Vec::new();
    for key in &inv {
        if key.kinds.len() <= 1 {
            continue;
        }
        // Majority kind wins the registry entry; every minority kind's
        // first site gets the finding. Ties break toward the kind seen
        // first, which keeps findings stable across runs.
        let majority = key
            .kinds
            .iter()
            .max_by_key(|(_, sites)| sites.len())
            .map(|(k, _)| k.clone())
            .unwrap_or_default();
        let all_kinds: Vec<&str> = key.kinds.iter().map(|(k, _)| k.as_str()).collect();
        for (kind, sites) in &key.kinds {
            if *kind == majority {
                continue;
            }
            let (rel, line) = sites[0].clone();
            let (mrel, mline) = &key.kinds.iter().find(|(k, _)| *k == majority).unwrap().1[0];
            out.push(PassFinding {
                rel,
                line,
                message: format!(
                    "telemetry key `{}/{}` is recorded as {} here but as {} at {}:{} — one \
                     key, one kind ({}): a write of one kind replaces the other's value, and \
                     counter/counter_delta lookups read nothing from a gauge",
                    key.component,
                    key.name,
                    kind,
                    majority,
                    mrel,
                    mline,
                    all_kinds.join(" vs ")
                ),
            });
        }
    }
    out.sort_by_key(|f| (f.rel.clone(), f.line));
    out
}

/// One key in the workspace telemetry inventory.
#[derive(Debug, Clone)]
pub struct KeyEntry {
    /// The `component` path segment.
    pub component: String,
    /// The metric name segment.
    pub name: String,
    /// kind → sites (`(rel, line)`), in first-seen order per kind.
    pub kinds: Vec<(String, Vec<(String, u32)>)>,
    /// Emission-site count.
    pub writers: usize,
    /// Lookup-site count.
    pub readers: usize,
}

impl KeyEntry {
    /// The registry kind: the (majority, first-seen) kind.
    pub fn kind(&self) -> &str {
        self.kinds
            .iter()
            .max_by_key(|(_, sites)| sites.len())
            .map(|(k, _)| k.as_str())
            .unwrap_or("")
    }
}

/// Extracts the complete workspace key inventory, sorted by
/// (component, name) — the source for `results/telemetry-keys.json`.
pub fn inventory(files: &[FileEntry]) -> Vec<KeyEntry> {
    let mut map: BTreeMap<(String, String), KeyEntry> = BTreeMap::new();
    for entry in files {
        for site in &entry.summary.telemetry {
            let Some(component) = &site.component else {
                continue;
            };
            let e = map
                .entry((component.clone(), site.name.clone()))
                .or_insert_with(|| KeyEntry {
                    component: component.clone(),
                    name: site.name.clone(),
                    kinds: Vec::new(),
                    writers: 0,
                    readers: 0,
                });
            if site.writer {
                e.writers += 1;
            } else {
                e.readers += 1;
            }
            match e.kinds.iter_mut().find(|(k, _)| *k == site.kind) {
                Some((_, sites)) => sites.push((entry.rel.clone(), site.line)),
                None => e
                    .kinds
                    .push((site.kind.clone(), vec![(entry.rel.clone(), site.line)])),
            }
        }
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    fn entry(rel: &str, src: &str) -> FileEntry {
        let lexed = lexer::lex(src);
        FileEntry {
            rel: rel.to_string(),
            summary: parser::parse(&lexed.tokens, &lexed.comments),
        }
    }

    #[test]
    fn telemetry_kind_conflict_is_flagged() {
        let files = vec![
            entry(
                "crates/net/src/a.rs",
                r#"fn r(&self, reg: &mut Registry) { reg.component("net").counter("fanout", 1); }"#,
            ),
            entry(
                "crates/net/src/b.rs",
                r#"fn r(&self, reg: &mut Registry) { reg.component("net").gauge("fanout", 2.0); }"#,
            ),
        ];
        let f = telemetry_registry(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("net/fanout"));
    }

    #[test]
    fn consistent_keys_are_inventoried_without_findings() {
        let files = vec![entry(
            "crates/net/src/a.rs",
            r#"fn r(&self, reg: &mut Registry) {
                reg.component("net").counter("frames_sent", 1);
            }
            fn probe(m: &M) { let x = m.counter("net/lan0/frames_sent"); }"#,
        )];
        assert!(telemetry_registry(&files).is_empty());
        let inv = inventory(&files);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].kind(), "counter");
        assert_eq!((inv[0].writers, inv[0].readers), (1, 1));
    }
}
