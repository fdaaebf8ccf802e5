//! File-hash-keyed incremental cache.
//!
//! Phase 1 (lex → parse → lexical rules) dominates the analyzer's
//! runtime and is per-file pure: its output depends only on the file's
//! bytes and its workspace attribution. So the cache stores, per
//! relative path, the FNV-1a 64 hash of the file's bytes plus the two
//! phase-1 artifacts — the pragma-resolved lexical findings and the
//! parsed [`FileSummary`]. A warm run re-hashes every file (cheap, one
//! read it had to do anyway) and re-runs only phase 2, which operates
//! on summaries and takes milliseconds. Phase 2 is *never* cached: its
//! findings are cross-file, so any edit anywhere can change them.
//!
//! Robustness over cleverness: any load problem — missing file, parse
//! error, schema mismatch — yields an empty cache and a cold run. The
//! cache lives in `results/` (`results/analyze-cache.json`), which the
//! walker already skips.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::jsonio::{self, Value};
use crate::parser::{Call, FileSummary, FnDef, Site, TelemetrySite, UseDecl};
use crate::pragma::Pragma;
use crate::Finding;

/// Bump when the cached shape changes; a mismatch discards the cache.
pub const SCHEMA: u32 = 2;

/// One cached file.
#[derive(Debug, Clone)]
pub struct Entry {
    /// FNV-1a 64 of the file bytes, lowercase hex.
    pub hash: String,
    /// Phase-1 lexical findings, pragma-resolved.
    pub findings: Vec<Finding>,
    /// The parsed item tree phase 2 consumes.
    pub summary: FileSummary,
}

/// The cache: relative path → entry.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Entries keyed by workspace-relative path.
    pub files: BTreeMap<String, Entry>,
}

/// FNV-1a 64-bit hash of a byte string, as lowercase hex.
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl Cache {
    /// Loads a cache file; any problem at all yields `None` (cold
    /// run). Never errors: a corrupt cache is a performance event, not
    /// a correctness one.
    pub fn load(path: &Path) -> Option<Cache> {
        let text = fs::read_to_string(path).ok()?;
        let v = jsonio::parse(&text).ok()?;
        if v.get("schema")?.as_u32()? != SCHEMA {
            return None;
        }
        let mut files = BTreeMap::new();
        for (rel, entry) in v.get("files")?.as_obj()? {
            files.insert(rel.clone(), entry_from(entry)?);
        }
        Some(Cache { files })
    }

    /// Serializes and writes the cache.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let files = Value::Obj(
            self.files
                .iter()
                .map(|(rel, e)| (rel.clone(), entry_to(e)))
                .collect(),
        );
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Num(f64::from(SCHEMA))),
            ("files".into(), files),
        ]);
        fs::write(path, doc.to_json())
    }
}

fn num(n: u32) -> Value {
    Value::Num(f64::from(n))
}

fn str_or_null(s: &Option<String>) -> Value {
    match s {
        Some(s) => Value::Str(s.clone()),
        None => Value::Null,
    }
}

fn opt_str(v: &Value) -> Option<Option<String>> {
    match v {
        Value::Null => Some(None),
        Value::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

fn strings(items: &[String]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn strings_from(v: &Value) -> Option<Vec<String>> {
    v.as_arr()?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect()
}

fn spans(items: &[(u32, u32)]) -> Value {
    Value::Arr(
        items
            .iter()
            .map(|&(a, b)| Value::Arr(vec![num(a), num(b)]))
            .collect(),
    )
}

fn spans_from(v: &Value) -> Option<Vec<(u32, u32)>> {
    v.as_arr()?
        .iter()
        .map(|pair| {
            let p = pair.as_arr()?;
            Some((p.first()?.as_u32()?, p.get(1)?.as_u32()?))
        })
        .collect()
}

fn site_to(s: &Site) -> Value {
    Value::Obj(vec![
        ("kind".into(), Value::Str(s.kind.clone())),
        ("line".into(), num(s.line)),
    ])
}

fn site_from(v: &Value) -> Option<Site> {
    Some(Site {
        kind: v.get("kind")?.as_str()?.to_string(),
        line: v.get("line")?.as_u32()?,
    })
}

fn sites(items: &[Site]) -> Value {
    Value::Arr(items.iter().map(site_to).collect())
}

fn sites_from(v: &Value) -> Option<Vec<Site>> {
    v.as_arr()?.iter().map(site_from).collect()
}

fn call_to(c: &Call) -> Value {
    Value::Obj(vec![
        ("path".into(), strings(&c.path)),
        ("name".into(), Value::Str(c.name.clone())),
        ("arity".into(), num(c.arity)),
        ("line".into(), num(c.line)),
        ("method".into(), Value::Bool(c.method)),
    ])
}

fn call_from(v: &Value) -> Option<Call> {
    Some(Call {
        path: strings_from(v.get("path")?)?,
        name: v.get("name")?.as_str()?.to_string(),
        arity: v.get("arity")?.as_u32()?,
        line: v.get("line")?.as_u32()?,
        method: v.get("method")?.as_bool()?,
    })
}

fn calls(items: &[Call]) -> Value {
    Value::Arr(items.iter().map(call_to).collect())
}

fn calls_from(v: &Value) -> Option<Vec<Call>> {
    v.as_arr()?.iter().map(call_from).collect()
}

fn summary_to(s: &FileSummary) -> Value {
    let fns = Value::Arr(
        s.fns
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(f.name.clone())),
                    ("owner".into(), str_or_null(&f.owner)),
                    ("arity".into(), num(f.arity)),
                    ("self".into(), Value::Bool(f.has_self)),
                    ("start".into(), num(f.start_line)),
                    ("end".into(), num(f.end_line)),
                    ("calls".into(), calls(&f.calls)),
                    ("allocs".into(), sites(&f.allocs)),
                    ("panics".into(), sites(&f.panics)),
                ])
            })
            .collect(),
    );
    let uses = Value::Arr(
        s.uses
            .iter()
            .map(|u| {
                Value::Obj(vec![
                    ("alias".into(), Value::Str(u.alias.clone())),
                    ("path".into(), strings(&u.path)),
                ])
            })
            .collect(),
    );
    let telemetry = Value::Arr(
        s.telemetry
            .iter()
            .map(|t| {
                Value::Obj(vec![
                    ("component".into(), str_or_null(&t.component)),
                    ("name".into(), Value::Str(t.name.clone())),
                    ("kind".into(), Value::Str(t.kind.clone())),
                    ("writer".into(), Value::Bool(t.writer)),
                    ("line".into(), num(t.line)),
                ])
            })
            .collect(),
    );
    let pragmas = Value::Arr(
        s.pragmas
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("line".into(), num(p.line)),
                    ("rule".into(), Value::Str(p.rule.clone())),
                    ("reason".into(), Value::Str(p.reason.clone())),
                ])
            })
            .collect(),
    );
    Value::Obj(vec![
        ("fns".into(), fns),
        ("uses".into(), uses),
        ("hot".into(), spans(&s.hot_regions)),
        ("test".into(), spans(&s.test_regions)),
        ("telemetry".into(), telemetry),
        ("pragmas".into(), pragmas),
    ])
}

fn summary_from(v: &Value) -> Option<FileSummary> {
    let fns = v
        .get("fns")?
        .as_arr()?
        .iter()
        .map(|f| {
            Some(FnDef {
                name: f.get("name")?.as_str()?.to_string(),
                owner: opt_str(f.get("owner")?)?,
                arity: f.get("arity")?.as_u32()?,
                has_self: f.get("self")?.as_bool()?,
                start_line: f.get("start")?.as_u32()?,
                end_line: f.get("end")?.as_u32()?,
                calls: calls_from(f.get("calls")?)?,
                allocs: sites_from(f.get("allocs")?)?,
                panics: sites_from(f.get("panics")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let uses = v
        .get("uses")?
        .as_arr()?
        .iter()
        .map(|u| {
            Some(UseDecl {
                alias: u.get("alias")?.as_str()?.to_string(),
                path: strings_from(u.get("path")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let telemetry = v
        .get("telemetry")?
        .as_arr()?
        .iter()
        .map(|t| {
            Some(TelemetrySite {
                component: opt_str(t.get("component")?)?,
                name: t.get("name")?.as_str()?.to_string(),
                kind: t.get("kind")?.as_str()?.to_string(),
                writer: t.get("writer")?.as_bool()?,
                line: t.get("line")?.as_u32()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let pragmas = v
        .get("pragmas")?
        .as_arr()?
        .iter()
        .map(|p| {
            Some(Pragma {
                line: p.get("line")?.as_u32()?,
                rule: p.get("rule")?.as_str()?.to_string(),
                reason: p.get("reason")?.as_str()?.to_string(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FileSummary {
        fns,
        uses,
        hot_regions: spans_from(v.get("hot")?)?,
        test_regions: spans_from(v.get("test")?)?,
        telemetry,
        pragmas,
    })
}

fn finding_to(f: &Finding) -> Value {
    Value::Obj(vec![
        ("rule".into(), Value::Str(f.rule.clone())),
        ("rel".into(), Value::Str(f.rel.clone())),
        ("line".into(), num(f.line)),
        ("message".into(), Value::Str(f.message.clone())),
        ("allowed".into(), Value::Bool(f.allowed)),
        ("reason".into(), str_or_null(&f.reason)),
    ])
}

fn finding_from(v: &Value) -> Option<Finding> {
    Some(Finding {
        rule: v.get("rule")?.as_str()?.to_string(),
        rel: v.get("rel")?.as_str()?.to_string(),
        line: v.get("line")?.as_u32()?,
        message: v.get("message")?.as_str()?.to_string(),
        allowed: v.get("allowed")?.as_bool()?,
        reason: opt_str(v.get("reason")?)?,
    })
}

fn entry_to(e: &Entry) -> Value {
    Value::Obj(vec![
        ("hash".into(), Value::Str(e.hash.clone())),
        (
            "findings".into(),
            Value::Arr(e.findings.iter().map(finding_to).collect()),
        ),
        ("summary".into(), summary_to(&e.summary)),
    ])
}

fn entry_from(v: &Value) -> Option<Entry> {
    Some(Entry {
        hash: v.get("hash")?.as_str()?.to_string(),
        findings: v
            .get("findings")?
            .as_arr()?
            .iter()
            .map(finding_from)
            .collect::<Option<Vec<_>>>()?,
        summary: summary_from(v.get("summary")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), "cbf29ce484222325");
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn entries_round_trip_through_json() {
        let src = r#"
            // es-hot-path
            fn hot(xs: &[u8]) { helper(xs[0]); }
            // es-hot-path-end
            use es_codec::dsp;
            fn r(&self, reg: &mut Registry) { reg.component("net").counter("k", 1); }
            // es-allow(wall-clock): cache round-trip test pragma body
            fn f() { let t = Instant::now(); }
        "#;
        let lexed = lexer::lex(src);
        let summary = parser::parse(&lexed.tokens, &lexed.comments);
        let entry = Entry {
            hash: fnv1a64(src.as_bytes()),
            findings: vec![Finding {
                rule: "wall-clock".into(),
                rel: "crates/net/src/a.rs".into(),
                line: 3,
                message: "msg with \"quotes\"".into(),
                allowed: true,
                reason: Some("why".into()),
            }],
            summary: summary.clone(),
        };
        let back = entry_from(&entry_to(&entry)).expect("round trip");
        assert_eq!(back.hash, entry.hash);
        assert_eq!(back.findings, entry.findings);
        assert_eq!(back.summary, summary);
    }

    #[test]
    fn cache_survives_save_load_and_rejects_schema_drift() {
        let dir = std::env::temp_dir().join("es-analyze-cache-test");
        let path = dir.join("cache.json");
        let mut cache = Cache::default();
        cache.files.insert(
            "crates/net/src/a.rs".into(),
            Entry {
                hash: "00ff".into(),
                findings: Vec::new(),
                summary: FileSummary::default(),
            },
        );
        cache.save(&path).expect("save");
        let loaded = Cache::load(&path).expect("load");
        assert_eq!(loaded.files.len(), 1);
        assert!(loaded.files.contains_key("crates/net/src/a.rs"));
        // Corrupt schema → cold start, not an error.
        std::fs::write(&path, "{\"schema\":999,\"files\":{}}").unwrap();
        assert!(Cache::load(&path).is_none());
        std::fs::write(&path, "not json").unwrap();
        assert!(Cache::load(&path).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
