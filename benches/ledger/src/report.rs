//! The ledger's one schema: what a child process hands its parent,
//! and what the parent writes to `out/ledger.json`. Hand-rolled over
//! `es_telemetry::json` — the workspace builds offline, without serde.

use std::collections::BTreeMap;

use es_telemetry::json::{self, JsonValue};

use crate::run::Measured;

/// Bumped whenever a field changes meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// One child process's result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Workload name.
    pub workload: String,
    /// `SystemBuilder::new(seed)`.
    pub seed: u64,
    /// Shortened smoke sizes; never comparable with real results.
    pub quick: bool,
    /// Fleet decode lanes the run was pinned to.
    pub lanes: usize,
    /// Event-engine shards the run was pinned to.
    pub shards: usize,
    /// End-to-end metrics, counts, notes and gate violations.
    pub measured: Measured,
    /// Per-layer timings; only a traced child fills these.
    pub timings: BTreeMap<String, f64>,
}

/// Appends `"key":` to an object under construction.
pub fn key(out: &mut String, k: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    json::write_str(out, k);
    out.push(':');
}

/// Appends `"key":<number>`.
pub fn num(out: &mut String, k: &str, v: f64) {
    key(out, k);
    json::write_num(out, v);
}

/// Appends `"key":"string"`.
pub fn text(out: &mut String, k: &str, v: &str) {
    key(out, k);
    json::write_str(out, v);
}

/// Appends `"key":true|false`.
pub fn flag(out: &mut String, k: &str, v: bool) {
    key(out, k);
    out.push_str(if v { "true" } else { "false" });
}

/// Appends `"key":{"name":number,…}`.
pub fn map(out: &mut String, k: &str, m: &BTreeMap<String, f64>) {
    key(out, k);
    out.push('{');
    for (name, v) in m {
        num(out, name, *v);
    }
    out.push('}');
}

fn read_map(doc: &JsonValue, k: &str) -> Result<BTreeMap<String, f64>, String> {
    let Some(JsonValue::Obj(m)) = doc.get(k) else {
        return Err(format!("`{k}` missing or not an object"));
    };
    m.iter()
        .map(|(name, v)| {
            v.as_f64()
                .map(|n| (name.clone(), n))
                .ok_or_else(|| format!("`{k}.{name}` is not a number"))
        })
        .collect()
}

fn read_u64(doc: &JsonValue, k: &str) -> Result<u64, String> {
    doc.get(k)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("`{k}` missing or not a whole number"))
}

impl ChildReport {
    /// One line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        num(&mut out, "schema", SCHEMA_VERSION as f64);
        text(&mut out, "workload", &self.workload);
        num(&mut out, "seed", self.seed as f64);
        flag(&mut out, "quick", self.quick);
        num(&mut out, "lanes", self.lanes as f64);
        num(&mut out, "shards", self.shards as f64);
        num(&mut out, "wall_timed_s", self.measured.wall_timed_s);
        num(&mut out, "host_speed", self.measured.host_speed);
        map(&mut out, "e2e", &self.measured.e2e);
        map(&mut out, "counts", &self.measured.counts);
        map(&mut out, "notes", &self.measured.notes);
        map(&mut out, "timings", &self.timings);
        key(&mut out, "violations");
        out.push('[');
        for (i, v) in self.measured.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, v);
        }
        out.push_str("]}");
        out
    }

    /// Parses what [`ChildReport::to_json`] wrote.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let schema = read_u64(&doc, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema {schema}, this harness reads {SCHEMA_VERSION}"
            ));
        }
        let violations = doc
            .get("violations")
            .and_then(JsonValue::items)
            .ok_or("`violations` missing")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or("violation not a string")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChildReport {
            workload: doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or("`workload` missing")?
                .to_string(),
            seed: read_u64(&doc, "seed")?,
            quick: matches!(doc.get("quick"), Some(JsonValue::Bool(true))),
            lanes: read_u64(&doc, "lanes")? as usize,
            shards: read_u64(&doc, "shards")? as usize,
            measured: Measured {
                e2e: read_map(&doc, "e2e")?,
                counts: read_map(&doc, "counts")?,
                notes: read_map(&doc, "notes")?,
                violations,
                wall_timed_s: doc
                    .get("wall_timed_s")
                    .and_then(JsonValue::as_f64)
                    .ok_or("`wall_timed_s` missing")?,
                host_speed: doc
                    .get("host_speed")
                    .and_then(JsonValue::as_f64)
                    .ok_or("`host_speed` missing")?,
            },
            timings: read_map(&doc, "timings")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips_every_field() {
        let mut r = ChildReport {
            workload: "campus-impaired".into(),
            seed: 7,
            quick: true,
            lanes: 1,
            shards: 4,
            ..ChildReport::default()
        };
        r.measured.wall_timed_s = 3.700_000_000_1;
        r.measured.host_speed = 0.873_000_000_1;
        r.measured.e2e.insert("x_realtime".into(), 259.123_456_789);
        r.measured.e2e.insert("fail_fraction".into(), 0.0);
        r.measured.counts.insert("sim.events".into(), 1_234_567.0);
        r.measured
            .notes
            .insert("slack_tail_percentile".into(), 0.02);
        r.measured
            .violations
            .push("speaker 3 \"es3\" played nothing".into());
        r.timings
            .insert("codec.ovl_decode_ms_per_audio_s".into(), 1.04);
        let line = r.to_json();
        assert!(!line.contains('\n'), "child reports are one line");
        assert_eq!(ChildReport::from_json(&line), Ok(r));
    }

    #[test]
    fn foreign_schema_and_garbage_are_refused() {
        let line = ChildReport::default()
            .to_json()
            .replace("\"schema\":1", "\"schema\":2");
        assert!(ChildReport::from_json(&line)
            .unwrap_err()
            .contains("schema 2"));
        assert!(ChildReport::from_json("{}").is_err());
        assert!(ChildReport::from_json("not json").is_err());
    }
}
