//! Telemetry-site extractor: token stream → key emission and lookup
//! sites.
//!
//! The `telemetry-registry` pass and the key inventory (DESIGN.md §8)
//! need one fact per file that a flat token scan does not give: which
//! `component/name` keys it records or looks up, and as which kind.
//! This module recovers them from writer chains rooted at
//! `.component("x")` and from reader lookups by full path. It is *not*
//! a Rust parser: no items, no expressions, no types. On malformed
//! input it degrades to recording less, never to panicking.

use crate::lexer::{LineComment, Token};
use crate::pragma::Pragma;

/// One telemetry key emission or lookup site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySite {
    /// The `component` segment, when statically resolvable (from a
    /// `.component("x")` chain or a `let s = ….component("x")`
    /// binding in the same function); `None` when the scope arrived
    /// through a parameter.
    pub component: Option<String>,
    /// The metric name (bare segment, or the last segment of a full
    /// `component/instance/name` path at a lookup site).
    pub name: String,
    /// Metric kind as declared by the method: `counter`, `gauge`, or
    /// `histogram` (`observe`/`histogram` both record histograms).
    pub kind: String,
    /// True for emission sites (scope writer chains); false for
    /// snapshot lookups.
    pub writer: bool,
    /// 1-based source line.
    pub line: u32,
}

/// Everything the workspace pass needs to know about one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSummary {
    /// Telemetry key sites.
    pub telemetry: Vec<TelemetrySite>,
    /// Suppression pragmas, which pass findings landing in this file
    /// resolve against.
    pub pragmas: Vec<Pragma>,
}

fn ident_at(t: &[Token], i: usize) -> Option<(&str, u32)> {
    match t.get(i) {
        Some(Token::Ident { line, text }) => Some((text.as_str(), *line)),
        _ => None,
    }
}

fn punct_at(t: &[Token], i: usize, ch: char) -> bool {
    matches!(t.get(i), Some(Token::Punct { ch: c, .. }) if *c == ch)
}

/// Finds the index of the matching closing delimiter for the opener at
/// `open` (`(`/`[`/`{`), or `t.len()` when unbalanced.
fn matching(t: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < t.len() {
        if let Token::Punct { ch, .. } = &t[i] {
            if *ch == oc {
                depth += 1;
            } else if *ch == cc {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    t.len()
}

/// Parses one file's tokens and comments into a [`FileSummary`].
pub fn parse(tokens: &[Token], comments: &[LineComment]) -> FileSummary {
    let mut telemetry = Vec::new();
    collect_telemetry(tokens, &mut telemetry);
    FileSummary {
        telemetry,
        pragmas: crate::pragma::parse(comments),
    }
}

/// Telemetry writer methods and the kind each declares.
fn writer_kind(name: &str) -> Option<&'static str> {
    match name {
        "counter" => Some("counter"),
        "gauge" => Some("gauge"),
        "observe" | "histogram" => Some("histogram"),
        _ => None,
    }
}

/// Reader methods that look a key up by full path or component+name.
fn reader_kind(name: &str) -> Option<&'static str> {
    match name {
        "counter" | "counter_delta" | "sum_counters" | "counters_for" | "counter_deltas_for" => {
            Some("counter")
        }
        "gauge" => Some("gauge"),
        "histogram" => Some("histogram"),
        _ => None,
    }
}

/// Extracts telemetry key sites: writer chains rooted at
/// `.component("x")` (directly chained or `let`-bound to a local),
/// and reader lookups by full `component/instance/name` path.
fn collect_telemetry(t: &[Token], out: &mut Vec<TelemetrySite>) {
    use std::collections::BTreeMap;
    // `let s = ….component("net")` bindings, file-wide. Rebinding
    // overwrites; shadowing across fns is resolved by source order,
    // which is exact in practice for the `let mut s = registry
    // .component("x"); s.counter(…)` idiom.
    let mut scope_of: BTreeMap<String, String> = BTreeMap::new();
    // First pass: record bindings.
    for i in 0..t.len() {
        if !matches!(ident_at(t, i), Some(("component", _))) {
            continue;
        }
        if i == 0 || !matches!(t[i - 1], Token::Punct { ch: '.', .. }) || !punct_at(t, i + 1, '(') {
            continue;
        }
        let Some(Token::Str { text: comp, .. }) = t.get(i + 2) else {
            continue;
        };
        // Walk back past the receiver expression to see whether this
        // chain is the right-hand side of `let [mut] name = …`.
        let mut k = i - 1; // the `.`
        let mut depth = 0i64;
        while k > 0 {
            match &t[k - 1] {
                Token::Punct { ch: ')', .. } | Token::Punct { ch: ']', .. } => depth += 1,
                Token::Punct { ch: '(', .. } | Token::Punct { ch: '[', .. } => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                Token::Punct { ch: ';', .. }
                | Token::Punct { ch: '{', .. }
                | Token::Punct { ch: '}', .. }
                | Token::Punct { ch: ',', .. }
                    if depth == 0 =>
                {
                    break;
                }
                Token::Punct { ch: '=', .. } if depth == 0 => {
                    // `… = <receiver>.component("x")`; the ident two
                    // back (skipping `mut`) is the bound name.
                    let mut b = k - 1;
                    while b > 0 {
                        if let Some((name, _)) = ident_at(t, b - 1) {
                            if name == "mut" {
                                b -= 1;
                                continue;
                            }
                            scope_of.insert(name.to_string(), comp.clone());
                        }
                        break;
                    }
                    break;
                }
                _ => {}
            }
            k -= 1;
        }
    }
    // Second pass: writer chains and reader lookups.
    for i in 0..t.len() {
        let Some((name, _)) = ident_at(t, i) else {
            continue;
        };
        let method_pos = i > 0 && matches!(t[i - 1], Token::Punct { ch: '.', .. });
        if !method_pos || !punct_at(t, i + 1, '(') {
            continue;
        }
        // Writer chain rooted at `.component("x")`: follow
        // `.counter("n", …).gauge("m", …)` method links.
        if name == "component" {
            if let Some(Token::Str { text: comp, .. }) = t.get(i + 2) {
                let mut close = matching(t, i + 1, '(', ')');
                loop {
                    if !punct_at(t, close + 1, '.') {
                        break;
                    }
                    let Some((m, mline)) = ident_at(t, close + 2) else {
                        break;
                    };
                    if !punct_at(t, close + 3, '(') {
                        break;
                    }
                    if let Some(kind) = writer_kind(m) {
                        if let Some(Token::Str { text: key, .. }) = t.get(close + 4) {
                            if !key.contains('/') {
                                out.push(TelemetrySite {
                                    component: Some(comp.clone()),
                                    name: key.clone(),
                                    kind: kind.to_string(),
                                    writer: true,
                                    line: mline,
                                });
                            }
                        }
                    }
                    close = matching(t, close + 3, '(', ')');
                }
            }
            continue;
        }
        // Writer call on a `let`-bound scope: `s.counter("n", …)`.
        if let Some(kind) = writer_kind(name) {
            if let Some(Token::Str { text: key, line }) = t.get(i + 2) {
                if !key.contains('/') {
                    // Receiver ident directly before the dot.
                    let recv = if i >= 2 { ident_at(t, i - 2) } else { None };
                    if let Some((r, _)) = recv {
                        if let Some(comp) = scope_of.get(r) {
                            // Chain the rest of this statement too:
                            // `s.counter("a", x).counter("b", y)`.
                            out.push(TelemetrySite {
                                component: Some(comp.clone()),
                                name: key.clone(),
                                kind: kind.to_string(),
                                writer: true,
                                line: *line,
                            });
                            let mut close = matching(t, i + 1, '(', ')');
                            loop {
                                if !punct_at(t, close + 1, '.') {
                                    break;
                                }
                                let Some((m, mline)) = ident_at(t, close + 2) else {
                                    break;
                                };
                                if !punct_at(t, close + 3, '(') {
                                    break;
                                }
                                if let Some(k2) = writer_kind(m) {
                                    if let Some(Token::Str { text: key2, .. }) = t.get(close + 4) {
                                        if !key2.contains('/') {
                                            out.push(TelemetrySite {
                                                component: Some(comp.clone()),
                                                name: key2.clone(),
                                                kind: k2.to_string(),
                                                writer: true,
                                                line: mline,
                                            });
                                        }
                                    }
                                }
                                close = matching(t, close + 3, '(', ')');
                            }
                        }
                    }
                }
            }
        }
        // Reader lookups: any keyed method whose first string argument
        // is a full `component/instance/name` path, plus the
        // two-argument component+name readers.
        if let Some(kind) = reader_kind(name) {
            let close = matching(t, i + 1, '(', ')');
            let mut strs: Vec<(&String, u32)> = Vec::new();
            for tok in &t[i + 2..close.min(t.len())] {
                if let Token::Str { text, line } = tok {
                    strs.push((text, *line));
                }
            }
            match strs.as_slice() {
                [(key, line)] if key.contains('/') => {
                    let segs: Vec<&str> = key.split('/').collect();
                    if segs.len() == 3 {
                        out.push(TelemetrySite {
                            component: Some(segs[0].to_string()),
                            name: segs[2].to_string(),
                            kind: kind.to_string(),
                            writer: false,
                            line: *line,
                        });
                    }
                }
                [(comp, _), (key, line)]
                    if matches!(name, "sum_counters" | "counters_for" | "counter_deltas_for")
                        && !key.contains('/') =>
                {
                    out.push(TelemetrySite {
                        component: Some(comp.to_string()),
                        name: key.to_string(),
                        kind: kind.to_string(),
                        writer: false,
                        line: *line,
                    });
                }
                _ => {}
            }
        }
    }
    out.sort_by_key(|c| (c.line, c.name.clone()));
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> FileSummary {
        let lexed = lexer::lex(src);
        parse(&lexed.tokens, &lexed.comments)
    }

    #[test]
    fn telemetry_writer_chains_and_bindings_resolve_component() {
        let src = r#"fn record(&self, registry: &mut Registry) {
            let mut s = registry.component("net");
            s.counter("frames_sent", self.sent)
                .counter("frames_dropped", self.lost)
                .gauge("fanout", self.fanout());
            registry.component("speaker").observe("lead_us", v);
        }"#;
        let s = parse_src(src);
        let keys: Vec<(Option<&str>, &str, &str)> = s
            .telemetry
            .iter()
            .map(|t| (t.component.as_deref(), t.name.as_str(), t.kind.as_str()))
            .collect();
        assert!(keys.contains(&(Some("net"), "frames_sent", "counter")));
        assert!(keys.contains(&(Some("net"), "frames_dropped", "counter")));
        assert!(keys.contains(&(Some("net"), "fanout", "gauge")));
        assert!(keys.contains(&(Some("speaker"), "lead_us", "histogram")));
    }

    #[test]
    fn telemetry_readers_resolve_full_paths() {
        let src = r#"fn probe(m: &M) {
            let a = m.counter("net/lan0/frames_delivered");
            let b = m.gauge("speaker/s0/buffer_level");
            let c = m.sum_counters("speaker", "samples_played");
        }"#;
        let s = parse_src(src);
        let keys: Vec<(Option<&str>, &str, &str)> = s
            .telemetry
            .iter()
            .map(|t| (t.component.as_deref(), t.name.as_str(), t.kind.as_str()))
            .collect();
        assert!(keys.contains(&(Some("net"), "frames_delivered", "counter")));
        assert!(keys.contains(&(Some("speaker"), "buffer_level", "gauge")));
        assert!(keys.contains(&(Some("speaker"), "samples_played", "counter")));
    }
}
