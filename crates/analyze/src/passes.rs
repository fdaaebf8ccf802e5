//! Phase-2 semantic passes over the workspace call graph.
//!
//! Unlike the lexical rules in [`crate::rules`], which see one file's
//! token stream at a time, passes run over the whole-workspace
//! [`Index`] and can follow a call from an `// es-hot-path` region in
//! `es-speaker` into an allocating helper two crates away. Each pass
//! produces findings attributed to a file and line exactly like a
//! rule, and `// es-allow(<pass-id>): reason` pragmas suppress them
//! the same way (see DESIGN.md §8 for each pass's contract and the
//! resolution approximations it inherits from the index).

use std::collections::{BTreeMap, BTreeSet};

use crate::index::{chain_names, in_regions, FileEntry, FnId, Index};
use crate::walker::Role;

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

/// One semantic pass.
pub struct Pass {
    /// Stable id, used in pragmas and reports (`hot-path-transitive`).
    pub id: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// The pass body.
    pub check: fn(&Index<'_>) -> Vec<PassFinding>,
}

/// Every semantic pass, in documentation order.
pub fn all() -> Vec<Pass> {
    vec![
        Pass {
            id: "hot-path-transitive",
            summary: "no allocation in callees reachable from es-hot-path regions \
                      (extends hot-path-alloc through the call graph)",
            check: hot_path_transitive,
        },
        Pass {
            id: "panic-path",
            summary: "no unwrap/expect/panic!/indexing in functions reachable from \
                      hot-path regions",
            check: panic_path,
        },
        Pass {
            id: "telemetry-registry",
            summary: "every component/name telemetry key has exactly one kind \
                      (counter|gauge|histogram) across the workspace",
            check: telemetry_registry,
        },
    ]
}

/// True when a pass id is registered (pragma hygiene uses this).
pub fn is_registered(id: &str) -> bool {
    all().iter().any(|p| p.id == id)
}

/// Call sites lexically inside hot regions of lib files, with their
/// file index — the roots every hot-path sweep starts from.
fn hot_region_calls<'a>(ix: &'a Index<'_>) -> Vec<(usize, &'a crate::parser::Call)> {
    let mut out = Vec::new();
    for (fi, entry) in ix.files.iter().enumerate() {
        if entry.role != Role::Lib || entry.summary.hot_regions.is_empty() {
            continue;
        }
        for def in &entry.summary.fns {
            for call in &def.calls {
                if in_regions(&entry.summary.hot_regions, call.line) {
                    out.push((fi, call));
                }
            }
        }
    }
    out
}

/// `hot-path-transitive`: for each call site inside a hot region,
/// walk the reachable callees; if any of them allocates (outside its
/// own file's hot regions — those sites are the direct rule's job),
/// flag the *root call site*, naming the shortest chain and the
/// allocation it reaches. One finding per root call site. An
/// `es-allow(hot-path-transitive)` pragma at the allocation site
/// sanctions that allocation for every path that reaches it (cold
/// setup helpers); a pragma at the call site excuses just that call.
fn hot_path_transitive(ix: &Index<'_>) -> Vec<PassFinding> {
    let mut out = Vec::new();
    for (fi, call) in hot_region_calls(ix) {
        let roots = ix.resolve(fi, call);
        if roots.is_empty() {
            continue;
        }
        let reach = ix.reach(&roots);
        // BFS order → the first offender yields a shortest chain.
        let mut hit = None;
        'scan: for &id in &reach.order {
            let (entry, def) = ix.def(id);
            for alloc in &def.allocs {
                if in_regions(&entry.summary.hot_regions, alloc.line) {
                    continue; // direct hot-path-alloc territory
                }
                if crate::pragma::covering(
                    &entry.summary.pragmas,
                    "hot-path-transitive",
                    alloc.line,
                )
                .is_some()
                {
                    continue; // sanctioned at the allocation site
                }
                hit = Some((id, alloc.clone(), entry.rel.clone()));
                break 'scan;
            }
        }
        if let Some((id, alloc, alloc_rel)) = hit {
            let chain = chain_names(ix, &reach.chain(id));
            out.push(PassFinding {
                rel: ix.files[fi].rel.clone(),
                line: call.line,
                message: format!(
                    "hot-path call `{}` reaches an allocation: {} at {}:{} via {} — keep \
                     steady-state decode allocation-free (reuse arenas/scratch buffers) or \
                     sanction the allocation site with es-allow(hot-path-transitive)",
                    call.name, alloc.kind, alloc_rel, alloc.line, chain
                ),
            });
        }
    }
    out.sort_by_key(|f| (f.rel.clone(), f.line));
    out.dedup();
    out
}

/// `panic-path`: functions reachable from hot-path regions must not
/// `unwrap`/`expect`/`panic!` or index slices. Findings are grouped
/// per (function, kind) and anchored at the first offending line, so
/// one reasoned pragma covers a function's audited sites of that
/// kind. For the functions *containing* a hot region only sites
/// inside the region count; for reachable callees the whole body
/// counts (we cannot see which lines the hot caller exercises).
fn panic_path(ix: &Index<'_>) -> Vec<PassFinding> {
    let mut out = Vec::new();
    // Region-resident sites: panic sites lexically inside hot regions,
    // grouped per (fn, kind).
    for entry in ix.files.iter() {
        if entry.role != Role::Lib || entry.summary.hot_regions.is_empty() {
            continue;
        }
        for def in &entry.summary.fns {
            let mut by_kind: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
            for site in &def.panics {
                if in_regions(&entry.summary.hot_regions, site.line)
                    && !in_regions(&entry.summary.test_regions, site.line)
                {
                    by_kind
                        .entry(site.kind.as_str())
                        .or_default()
                        .push(site.line);
                }
            }
            for (kind, lines) in by_kind {
                out.push(group_finding(
                    entry,
                    &def.name,
                    kind,
                    &lines,
                    "inside a hot-path region",
                ));
            }
        }
    }
    // Reachable callees: BFS from region call sites; every reached
    // fn's whole body is audited.
    let mut roots: Vec<FnId> = hot_region_calls(ix)
        .into_iter()
        .flat_map(|(fi, call)| ix.resolve(fi, call))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let reach = ix.reach(&roots);
    let mut emitted: BTreeSet<(String, String, String)> = BTreeSet::new();
    for &id in &reach.order {
        let (entry, def) = ix.def(id);
        let mut by_kind: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for site in &def.panics {
            if in_regions(&entry.summary.test_regions, site.line) {
                continue;
            }
            by_kind
                .entry(site.kind.as_str())
                .or_default()
                .push(site.line);
        }
        if by_kind.is_empty() {
            continue;
        }
        let chain = chain_names(ix, &reach.chain(id));
        for (kind, lines) in by_kind {
            if !emitted.insert((entry.rel.clone(), def.name.clone(), kind.to_string())) {
                continue;
            }
            out.push(group_finding(
                entry,
                &def.name,
                kind,
                &lines,
                &format!("reachable from a hot-path region via {chain}"),
            ));
        }
    }
    out.sort_by_key(|f| (f.rel.clone(), f.line));
    out.dedup();
    out
}

/// Builds one grouped panic-path finding anchored at the first site.
fn group_finding(
    entry: &FileEntry,
    fn_name: &str,
    kind: &str,
    lines: &[u32],
    why: &str,
) -> PassFinding {
    let first = *lines.iter().min().unwrap_or(&0);
    let shown: Vec<String> = lines.iter().map(u32::to_string).collect();
    let what = match kind {
        "index" => "slice/array indexing (panics out of bounds)".to_string(),
        "panic!" => "a panic! family macro".to_string(),
        other => format!("`.{other}()`"),
    };
    PassFinding {
        rel: entry.rel.clone(),
        line: first,
        message: format!(
            "fn `{fn_name}` is {why} and uses {what} at line(s) {}; hot-path code must not \
             be able to panic — return Result, use get()/split-checked access, or sanction \
             the audited sites with es-allow(panic-path)",
            shown.join(", ")
        ),
    }
}

/// `telemetry-registry`: a (component, name) key must keep one kind
/// workspace-wide — a gauge merged as a counter silently corrupts
/// `merge_shards`. Findings anchor at the first site of each
/// conflicting kind beyond the majority one.
fn telemetry_registry(ix: &Index<'_>) -> Vec<PassFinding> {
    let inv = inventory(ix);
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
                     key, one kind ({}): mixed kinds corrupt merge_shards aggregation",
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
pub fn inventory(ix: &Index<'_>) -> Vec<KeyEntry> {
    let mut map: BTreeMap<(String, String), KeyEntry> = BTreeMap::new();
    for entry in ix.files.iter() {
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

    fn entry(rel: &str, krate: &str, src: &str) -> FileEntry {
        let lexed = lexer::lex(src);
        FileEntry {
            rel: rel.to_string(),
            krate: krate.to_string(),
            role: Role::Lib,
            summary: parser::parse(&lexed.tokens, &lexed.comments),
        }
    }

    #[test]
    fn transitive_alloc_is_flagged_at_the_region_call() {
        let files = vec![
            entry(
                "crates/speaker/src/a.rs",
                "speaker",
                "fn decode() {\n// es-hot-path\nstep(1);\n// es-hot-path-end\n}\n",
            ),
            entry(
                "crates/speaker/src/b.rs",
                "speaker",
                "pub fn step(x: u8) { deeper(x); }\npub fn deeper(x: u8) { let v = Vec::new(); }\n",
            ),
        ];
        let ix = Index::build(&files);
        let f = hot_path_transitive(&ix);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rel, "crates/speaker/src/a.rs");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("step → deeper"), "{}", f[0].message);
    }

    #[test]
    fn alloc_site_pragma_sanctions_every_path() {
        let files = vec![
            entry(
                "crates/speaker/src/a.rs",
                "speaker",
                "fn decode() {\n// es-hot-path\nstep(1);\n// es-hot-path-end\n}\n",
            ),
            entry(
                "crates/speaker/src/b.rs",
                "speaker",
                "pub fn step(x: u8) {\n\
                 // es-allow(hot-path-transitive): cold-start scratch, reused afterwards\n\
                 let v = Vec::new();\n}\n",
            ),
        ];
        let ix = Index::build(&files);
        assert!(hot_path_transitive(&ix).is_empty());
    }

    #[test]
    fn panic_path_groups_per_fn_and_kind() {
        let files = vec![
            entry(
                "crates/speaker/src/a.rs",
                "speaker",
                "fn decode() {\n// es-hot-path\nstep(1);\n// es-hot-path-end\n}\n",
            ),
            entry(
                "crates/speaker/src/b.rs",
                "speaker",
                "pub fn step(x: u8) {\nlet a = y.unwrap();\nlet b = z.unwrap();\npanic!(\"no\");\n}\n",
            ),
        ];
        let ix = Index::build(&files);
        let f = panic_path(&ix);
        // Two groups: unwrap (2 sites, 1 finding) and panic!.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.message.contains("lines) 2, 3") || x.message.contains("line(s) 2, 3")));
    }

    #[test]
    fn region_resident_indexing_is_flagged_in_region_only() {
        let files = vec![entry(
            "crates/codec/src/a.rs",
            "codec",
            "fn f(xs: &[u8]) {\nlet cold = xs[0];\n// es-hot-path\nlet hot = xs[1];\n// es-hot-path-end\n}\n",
        )];
        let ix = Index::build(&files);
        let f = panic_path(&ix);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn telemetry_kind_conflict_is_flagged() {
        let files = vec![
            entry(
                "crates/net/src/a.rs",
                "net",
                r#"fn r(&self, reg: &mut Registry) { reg.component("net").counter("fanout", 1); }"#,
            ),
            entry(
                "crates/net/src/b.rs",
                "net",
                r#"fn r(&self, reg: &mut Registry) { reg.component("net").gauge("fanout", 2.0); }"#,
            ),
        ];
        let ix = Index::build(&files);
        let f = telemetry_registry(&ix);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("net/fanout"));
    }

    #[test]
    fn consistent_keys_are_inventoried_without_findings() {
        let files = vec![entry(
            "crates/net/src/a.rs",
            "net",
            r#"fn r(&self, reg: &mut Registry) {
                reg.component("net").counter("frames_sent", 1);
            }
            fn probe(m: &M) { let x = m.counter("net/lan0/frames_sent"); }"#,
        )];
        let ix = Index::build(&files);
        assert!(telemetry_registry(&ix).is_empty());
        let inv = inventory(&ix);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].kind(), "counter");
        assert_eq!((inv[0].writers, inv[0].readers), (1, 1));
    }
}
