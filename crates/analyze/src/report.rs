//! Human and JSON reporters.
//!
//! The JSON emitter is hand-rolled (the crate is dependency-free) and
//! deliberately tiny: objects, arrays, strings, integers, booleans.
//! Output is deterministic — findings arrive pre-sorted by path and
//! line — so `results/analyze.json` diffs cleanly between runs.

use crate::Finding;

/// Version of the JSON report shape. Bumped with PR 10's semantic
/// passes so archived `results/analyze.json` files are comparable
/// across PRs: consumers check `schema_version` before diffing.
pub const SCHEMA_VERSION: u32 = 2;

/// A completed analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// What the paths are relative to: `"."` (the workspace root) for a
    /// workspace run, empty for explicit paths. Display only.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, active and pragma-suppressed, sorted by
    /// (path, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not excused by a pragma; these fail the gate.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Number of active findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of pragma-suppressed findings.
    pub fn allowed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.allowed).count()
    }

    /// Renders the human-readable report. With `strict`, suppressed
    /// findings are listed too, tagged `allowed` with their reasons.
    pub fn human(&self, strict: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.allowed && !strict {
                continue;
            }
            if f.allowed {
                out.push_str(&format!(
                    "{}:{}: [{}] allowed: {} — {}\n",
                    f.rel,
                    f.line,
                    f.rule,
                    f.reason.as_deref().unwrap_or(""),
                    f.message
                ));
            } else {
                out.push_str(&format!(
                    "{}:{}: [{}] {}\n",
                    f.rel, f.line, f.rule, f.message
                ));
            }
        }
        out.push_str(&format!(
            "es-analyze: {} finding(s), {} allowed, {} file(s) scanned\n",
            self.active_count(),
            self.allowed_count(),
            self.files_scanned
        ));
        out
    }

    /// Renders the JSON report. Suppressed findings are always present
    /// in the `findings` array (tagged `"allowed": true`) so archived
    /// gate output records the full audit trail; `strict` only changes
    /// the human rendering.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"rules\": {},\n",
            crate::rules::all().len() + crate::passes::all().len()
        ));
        out.push_str(&format!("  \"root\": {},\n", json_str(&self.root)));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"active\": {},\n", self.active_count()));
        out.push_str(&format!("  \"allowed\": {},\n", self.allowed_count()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(&f.rule)));
            out.push_str(&format!("\"path\": {}, ", json_str(&f.rel)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"allowed\": {}, ", f.allowed));
            match &f.reason {
                Some(r) => out.push_str(&format!("\"reason\": {}, ", json_str(r))),
                None => out.push_str("\"reason\": null, "),
            }
            out.push_str(&format!("\"message\": {}", json_str(&f.message)));
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string for JSON output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            root: "/ws".to_string(),
            files_scanned: 2,
            findings: vec![
                Finding {
                    rule: "wall-clock".to_string(),
                    rel: "crates/net/src/lan.rs".to_string(),
                    line: 7,
                    message: "bad \"clock\"".to_string(),
                    allowed: false,
                    reason: None,
                },
                Finding {
                    rule: "wall-clock".to_string(),
                    rel: "crates/sim/src/fleet.rs".to_string(),
                    line: 9,
                    message: "timing".to_string(),
                    allowed: true,
                    reason: Some("perf observation only".to_string()),
                },
            ],
        }
    }

    #[test]
    fn human_hides_allowed_unless_strict() {
        let r = sample();
        let plain = r.human(false);
        assert!(plain.contains("lan.rs:7"));
        assert!(!plain.contains("fleet.rs"));
        assert!(plain.contains("1 finding(s), 1 allowed, 2 file(s) scanned"));
        let strict = r.human(true);
        assert!(strict.contains("fleet.rs:9: [wall-clock] allowed: perf observation only"));
    }

    #[test]
    fn json_always_counts_allowed_and_escapes() {
        let j = sample().json();
        assert!(j.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(j.contains(&format!(
            "\"rules\": {}",
            crate::rules::all().len() + crate::passes::all().len()
        )));
        assert!(j.contains("\"active\": 1"));
        assert!(j.contains("\"allowed\": 1"));
        assert!(j.contains("bad \\\"clock\\\""));
        assert!(j.contains("\"reason\": \"perf observation only\""));
    }
}
