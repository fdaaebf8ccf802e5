//! Phase-1 parser: token stream → lightweight item tree.
//!
//! The semantic passes (DESIGN.md §8) need more than a flat token
//! stream: they follow calls *across* files. This module parses each
//! file's tokens into just enough structure for that — function
//! definitions with line spans and body call sites, `use`
//! declarations for cross-crate name resolution, allocation and
//! panic-capable sites per function, and telemetry key emission sites
//! with their statically-resolvable component. It is *not* a Rust
//! parser: no expressions, no types, no precedence. Item boundaries
//! are recovered by brace matching, which is exact for well-formed
//! Rust; on malformed input the parser degrades to recording less,
//! never to panicking.
//!
//! Everything produced here is a plain-old-data [`FileSummary`] that
//! serializes into the incremental cache (see [`crate::cache`]), so a
//! warm run never re-parses an unchanged file.

use crate::lexer::{LineComment, Token};
use crate::pragma::Pragma;

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Path qualifiers before the called name, outermost first
    /// (`es_codec::dsp::quantize_band(` → `["es_codec", "dsp"]`;
    /// empty for bare `f(` and method `.f(` calls).
    pub path: Vec<String>,
    /// The called identifier.
    pub name: String,
    /// Number of arguments at the call site (receiver excluded).
    pub arity: u32,
    /// 1-based source line.
    pub line: u32,
    /// True for `.name(` method-call position.
    pub method: bool,
}

/// A line-tagged site of interest (an allocation or a panic source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// What was found (`Vec::new()`, `unwrap`, `index`, …).
    pub kind: String,
    /// 1-based source line.
    pub line: u32,
}

/// One `fn` item with its span and body facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type name (`OvlCodec` for methods), if any.
    pub owner: Option<String>,
    /// Parameter count, `self` excluded — comparable to call arity.
    pub arity: u32,
    /// True when the first parameter is a `self` receiver. Only such
    /// fns are candidates for `.name(…)` method-call resolution;
    /// associated fns (`Cache::load`) are never dispatched that way.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// Call sites inside the body, in source order.
    pub calls: Vec<Call>,
    /// Per-call allocation sites (`Vec::new()`, `vec![]`, `.to_vec()`,
    /// `.collect()`), matching the `hot-path-alloc` rule's detection.
    pub allocs: Vec<Site>,
    /// Panic-capable sites: `unwrap`, `expect`, `panic!`-family
    /// macros, and slice/array indexing.
    pub panics: Vec<Site>,
}

/// One name introduced by a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name visible in this file (after any `as` rename); `*` for
    /// glob imports.
    pub alias: String,
    /// The full imported path, outermost first, ending at the
    /// imported item (or the globbed module for `*`).
    pub path: Vec<String>,
}

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

/// Everything phase 2 needs to know about one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSummary {
    /// Function items, in source order.
    pub fns: Vec<FnDef>,
    /// `use` declarations (brace groups expanded, renames applied).
    pub uses: Vec<UseDecl>,
    /// `// es-hot-path` … `// es-hot-path-end` line ranges.
    pub hot_regions: Vec<(u32, u32)>,
    /// Line ranges of `#[cfg(test)]` items (`mod tests { … }` bodies
    /// and attributed fns). Functions inside them never become
    /// call-graph resolution targets: test helpers unwrap freely and
    /// are unreachable from production hot paths.
    pub test_regions: Vec<(u32, u32)>,
    /// Telemetry key sites.
    pub telemetry: Vec<TelemetrySite>,
    /// Suppression pragmas (cached so a warm run can resolve
    /// semantic findings without re-lexing).
    pub pragmas: Vec<Pragma>,
}

/// Collects `(start, end)` line ranges bounded by `// es-hot-path`
/// marker comments. A marker opens a region that runs to the matching
/// `// es-hot-path-end` (or end of file when there is none). Markers
/// are plain comments, not pragmas: they declare "steady-state code
/// here must not allocate", and the `hot-path-alloc` and
/// `hot-path-transitive` rules enforce it.
pub fn hot_path_regions(comments: &[LineComment]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut open: Option<u32> = None;
    for c in comments {
        match c.text.trim_start_matches(['/', '!']).trim() {
            "es-hot-path" => open = open.or(Some(c.line)),
            "es-hot-path-end" => {
                if let Some(start) = open.take() {
                    regions.push((start, c.line));
                }
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        regions.push((start, u32::MAX));
    }
    regions
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "move", "ref", "fn", "let",
    "mut", "pub", "impl", "where", "as", "dyn", "box", "await", "unsafe", "const", "static",
];

fn ident_at(t: &[Token], i: usize) -> Option<(&str, u32)> {
    match t.get(i) {
        Some(Token::Ident { line, text }) => Some((text.as_str(), *line)),
        _ => None,
    }
}

fn punct_at(t: &[Token], i: usize, ch: char) -> bool {
    matches!(t.get(i), Some(Token::Punct { ch: c, .. }) if *c == ch)
}

/// True when tokens `i, i+1` are `::`.
fn path_sep(t: &[Token], i: usize) -> bool {
    punct_at(t, i, ':') && punct_at(t, i + 1, ':')
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

/// Skips a generic-arguments group starting at `<` (index `i`),
/// returning the index after the matching `>`. The `>` of a `->`
/// arrow (Fn-trait sugar in bounds) is not a closer.
fn skip_generics(t: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < t.len() {
        match &t[j] {
            Token::Punct { ch: '<', .. } => depth += 1,
            Token::Punct { ch: '>', .. } => {
                let arrow = j > 0 && matches!(t[j - 1], Token::Punct { ch: '-', .. });
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    t.len()
}

/// Counts the arguments of a call whose opening paren sits at `open`.
/// Top-level commas delimit arguments; nested `()`/`[]`/`{}` groups
/// and closure parameter lists (`|a, b|`) are skipped. Returns the
/// count and the index of the closing paren.
fn count_args(t: &[Token], open: usize) -> (u32, usize) {
    let close = matching(t, open, '(', ')');
    let mut args = 0u32;
    let mut any = false;
    let mut depth = 0i64;
    let mut j = open + 1;
    while j < close {
        match &t[j] {
            Token::Punct { ch: '(', .. }
            | Token::Punct { ch: '[', .. }
            | Token::Punct { ch: '{', .. } => depth += 1,
            Token::Punct { ch: ')', .. }
            | Token::Punct { ch: ']', .. }
            | Token::Punct { ch: '}', .. } => depth -= 1,
            Token::Punct { ch: '|', .. } if depth == 0 => {
                // A closure parameter list in argument position:
                // `f(|a, b| …)` or `f(move |a| …)`. Its commas are not
                // argument separators; skip to the closing pipe.
                let opens_closure = j == open + 1
                    || matches!(&t[j - 1], Token::Punct { ch: ',', .. })
                    || matches!(&t[j - 1], Token::Ident { text, .. } if text == "move");
                if opens_closure {
                    any = true;
                    if punct_at(t, j + 1, '|') {
                        j += 2; // `||` — empty parameter list
                        continue;
                    }
                    let mut k = j + 1;
                    while k < close && !punct_at(t, k, '|') {
                        k += 1;
                    }
                    j = k + 1;
                    continue;
                }
            }
            Token::Punct { ch: ',', .. } if depth == 0 => {
                args += 1;
                any = true;
            }
            _ => any = true,
        }
        j += 1;
    }
    (if any { args + 1 } else { 0 }, close)
}

/// Parses one file's tokens and comments into a [`FileSummary`].
pub fn parse(tokens: &[Token], comments: &[LineComment]) -> FileSummary {
    let mut out = FileSummary {
        hot_regions: hot_path_regions(comments),
        pragmas: crate::pragma::parse(comments),
        ..FileSummary::default()
    };
    collect_test_regions(tokens, &mut out.test_regions);
    collect_uses(tokens, &mut out.uses);
    collect_fns(tokens, &mut out.fns);
    collect_telemetry(tokens, &mut out.telemetry);
    out
}

/// Records the line spans of `#[cfg(test)]` items. Handles the two
/// shapes the workspace uses: `#[cfg(test)] mod tests { … }` and a
/// `#[cfg(test)]`-attributed `fn`. `cfg(all(test, …))` and friends
/// count too — any `test` ident inside the `cfg(…)` group marks the
/// item.
fn collect_test_regions(t: &[Token], out: &mut Vec<(u32, u32)>) {
    let mut i = 0;
    while i + 3 < t.len() {
        // `# [ cfg ( … test … ) ]`
        let is_attr = punct_at(t, i, '#')
            && punct_at(t, i + 1, '[')
            && matches!(ident_at(t, i + 2), Some(("cfg", _)))
            && punct_at(t, i + 3, '(');
        if !is_attr {
            i += 1;
            continue;
        }
        let attr_close = matching(t, i + 1, '[', ']');
        let start_line = t[i].line();
        let mentions_test = t[i + 4..attr_close.min(t.len())]
            .iter()
            .any(|tok| matches!(tok, Token::Ident { text, .. } if text == "test"));
        if !mentions_test {
            i = attr_close + 1;
            continue;
        }
        // Skip any further attributes, then find the item's body brace
        // (stop at `;` — a bodyless item has no region).
        let mut j = attr_close + 1;
        let mut body_open = None;
        while j < t.len() {
            match &t[j] {
                Token::Punct { ch: '#', .. } if punct_at(t, j + 1, '[') => {
                    j = matching(t, j + 1, '[', ']') + 1;
                    continue;
                }
                Token::Punct { ch: '{', .. } => {
                    body_open = Some(j);
                    break;
                }
                Token::Punct { ch: ';', .. } => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = body_open {
            let close = matching(t, open, '{', '}');
            let end_line = t
                .get(close.min(t.len().saturating_sub(1)))
                .map(Token::line)
                .unwrap_or(start_line);
            out.push((start_line, end_line));
            i = close + 1;
            continue;
        }
        i = j + 1;
    }
}

/// Expands every `use` declaration (including brace groups and `as`
/// renames) into flat alias → path entries.
fn collect_uses(t: &[Token], out: &mut Vec<UseDecl>) {
    let mut i = 0;
    while i < t.len() {
        if let Some(("use", _)) = ident_at(t, i) {
            // Only a statement-position `use` (not `.use`-like; `use`
            // is a keyword so that cannot occur — but skip `use` inside
            // a path, which also cannot occur).
            let end = {
                // Find the terminating `;` at brace depth 0 relative
                // to here (brace groups inside use lists nest).
                let mut depth = 0i64;
                let mut j = i + 1;
                loop {
                    if j >= t.len() {
                        break j;
                    }
                    match &t[j] {
                        Token::Punct { ch: '{', .. } => depth += 1,
                        Token::Punct { ch: '}', .. } => depth -= 1,
                        Token::Punct { ch: ';', .. } if depth <= 0 => break j,
                        _ => {}
                    }
                    j += 1;
                }
            };
            expand_use(&t[i + 1..end], &mut Vec::new(), out);
            i = end + 1;
            continue;
        }
        i += 1;
    }
}

/// Recursively expands one use-tree token slice under `prefix`.
fn expand_use(t: &[Token], prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
    let mut i = 0;
    let depth_before = prefix.len();
    let mut last: Option<String> = None;
    while i < t.len() {
        match &t[i] {
            Token::Ident { text, .. } if text == "as" => {
                // `path as Alias`: the alias replaces the last segment
                // for visibility; the path keeps the real name.
                if let (Some((alias, _)), Some(real)) = (ident_at(t, i + 1), last.take()) {
                    let mut path = prefix.clone();
                    path.push(real);
                    out.push(UseDecl {
                        alias: alias.to_string(),
                        path,
                    });
                }
                i += 2;
                continue;
            }
            Token::Ident { text, .. } => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                last = Some(text.clone());
                i += 1;
                continue;
            }
            Token::Punct { ch: '{', .. } => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                // Split the group's top level on commas and recurse.
                let close = matching(t, i, '{', '}');
                let inner = &t[i + 1..close.min(t.len())];
                let mut start = 0usize;
                let mut depth = 0i64;
                for (j, tok) in inner.iter().enumerate() {
                    match tok {
                        Token::Punct { ch: '{', .. } => depth += 1,
                        Token::Punct { ch: '}', .. } => depth -= 1,
                        Token::Punct { ch: ',', .. } if depth == 0 => {
                            expand_use(&inner[start..j], prefix, out);
                            start = j + 1;
                        }
                        _ => {}
                    }
                }
                expand_use(&inner[start..], prefix, out);
                prefix.truncate(depth_before);
                // Anything after the brace group at this level is
                // malformed; stop.
                break;
            }
            Token::Punct { ch: '*', .. } => {
                let mut path = prefix.clone();
                if let Some(seg) = last.take() {
                    path.push(seg);
                }
                out.push(UseDecl {
                    alias: "*".to_string(),
                    path,
                });
                i += 1;
                continue;
            }
            _ => {
                i += 1;
                continue;
            }
        }
    }
    if let Some(seg) = last {
        let mut path = prefix.clone();
        path.push(seg.clone());
        out.push(UseDecl { alias: seg, path });
    }
    prefix.truncate(depth_before);
}

/// Walks the token stream and extracts every `fn` item with a body.
fn collect_fns(t: &[Token], out: &mut Vec<FnDef>) {
    // Track enclosing `impl` blocks (type name + closing depth) so
    // methods know their owner. Depth counting over `{`/`}` is exact
    // for well-formed Rust.
    let mut depth = 0i64;
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut i = 0;
    while i < t.len() {
        match &t[i] {
            Token::Punct { ch: '{', .. } => {
                depth += 1;
                i += 1;
            }
            Token::Punct { ch: '}', .. } => {
                depth -= 1;
                if let Some(&(_, d)) = impl_stack.last() {
                    if depth == d {
                        impl_stack.pop();
                    }
                }
                i += 1;
            }
            Token::Ident { text, .. } if text == "impl" => {
                // Scan the header up to `{`; the *last* plain ident
                // before the brace (skipping generic groups) is the
                // implemented-on type (`impl Trait for Type {`).
                let mut j = i + 1;
                let mut ty: Option<String> = None;
                while j < t.len() {
                    match &t[j] {
                        Token::Punct { ch: '{', .. } => break,
                        Token::Punct { ch: ';', .. } => break,
                        Token::Punct { ch: '<', .. } => {
                            j = skip_generics(t, j);
                            continue;
                        }
                        Token::Ident { text: n, .. }
                            if n != "for" && n != "where" && n != "dyn" && n != "mut" =>
                        {
                            ty = Some(n.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if punct_at(t, j, '{') {
                    if let Some(ty) = ty {
                        impl_stack.push((ty, depth));
                    }
                }
                i = j;
            }
            Token::Ident { text, .. } if text == "fn" => {
                let Some((name, start_line)) = ident_at(t, i + 1) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                // Skip optional generics between the name and `(`.
                let mut j = i + 2;
                if punct_at(t, j, '<') {
                    j = skip_generics(t, j);
                }
                if !punct_at(t, j, '(') {
                    i += 1;
                    continue;
                }
                let (raw_arity, params_close) = count_args(t, j);
                // `self` receivers (`self`, `&self`, `&mut self`,
                // `self: T`) occupy the first parameter slot but are
                // not call-site arguments.
                let has_self = {
                    let mut k = j + 1;
                    let mut found = false;
                    while k < params_close && k < j + 6 {
                        match &t[k] {
                            Token::Ident { text: s, .. } if s == "self" => {
                                found = true;
                                break;
                            }
                            Token::Ident { text: s, .. } if s == "mut" => {}
                            Token::Punct { ch: '&', .. } => {}
                            Token::Punct { ch: '\'', .. } => {}
                            _ => break,
                        }
                        k += 1;
                    }
                    found
                };
                let arity = raw_arity.saturating_sub(u32::from(has_self));
                // Find the body: the first `{` after the params and
                // before a `;` (a `;` first means a bodyless trait or
                // extern declaration).
                let mut k = params_close + 1;
                let mut body_open = None;
                while k < t.len() {
                    match &t[k] {
                        Token::Punct { ch: ';', .. } => break,
                        Token::Punct { ch: '{', .. } => {
                            body_open = Some(k);
                            break;
                        }
                        Token::Punct { ch: '<', .. } => {
                            // A where-clause bound's generics.
                            k = skip_generics(t, k);
                            continue;
                        }
                        Token::Punct { ch: '[', .. } => {
                            // An array type in the return position —
                            // its `;` is not the item terminator.
                            k = matching(t, k, '[', ']') + 1;
                            continue;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let Some(open) = body_open else {
                    i = k;
                    continue;
                };
                let close = matching(t, open, '{', '}');
                let end_line = t
                    .get(close.min(t.len().saturating_sub(1)))
                    .map(Token::line)
                    .unwrap_or(start_line);
                let body = &t[open..close.min(t.len())];
                let mut def = FnDef {
                    name,
                    owner: impl_stack.last().map(|(n, _)| n.clone()),
                    arity,
                    has_self,
                    start_line,
                    end_line,
                    calls: Vec::new(),
                    allocs: Vec::new(),
                    panics: Vec::new(),
                };
                collect_calls(body, &mut def.calls);
                collect_allocs(body, &mut def.allocs);
                collect_panics(body, &mut def.panics);
                out.push(def);
                // Continue *inside* the body: nested fns are items
                // too. The outer fn's facts already include the nested
                // ones (conservative: an inner fn's allocs land on the
                // outer fn as well, which over-approximates reachability
                // but never under-approximates it).
                i = open;
            }
            _ => i += 1,
        }
    }
}

/// Records call sites in `body` (a `{ … }` token slice).
fn collect_calls(body: &[Token], out: &mut Vec<Call>) {
    let t = body;
    for i in 0..t.len() {
        let Some((name, line)) = ident_at(t, i) else {
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // The called name is the *last* path segment: skip idents
        // followed by `::` (they are qualifiers, collected below).
        if path_sep(t, i + 1) {
            continue;
        }
        // Optional turbofish between the name and the paren.
        let mut j = i + 1;
        if path_sep(t, j) && punct_at(t, j + 2, '<') {
            j = skip_generics(t, j + 2);
        }
        if !punct_at(t, j, '(') {
            continue;
        }
        // A macro invocation `name!(…)` is not a fn call (panic!/vec!
        // are collected by the site scanners).
        if punct_at(t, i + 1, '!') {
            continue;
        }
        // A definition `fn name(` is not a call.
        if i > 0 && matches!(&t[i - 1], Token::Ident { text, .. } if text == "fn") {
            continue;
        }
        let method = i > 0 && matches!(t[i - 1], Token::Punct { ch: '.', .. });
        // Walk the qualifier chain backwards: `a::b::name(`.
        let mut path_rev: Vec<String> = Vec::new();
        if !method {
            let mut k = i;
            while k >= 2 && path_sep(t, k - 2) {
                // t[k-2..k] == `::`; the segment before it is at k-3.
                if k >= 3 {
                    if let Some((seg, _)) = ident_at(t, k - 3) {
                        path_rev.push(seg.to_string());
                        k -= 3;
                        continue;
                    }
                    // `<T as Trait>::name` or generic turbofish
                    // qualifier — give up on the deeper segments.
                }
                break;
            }
        }
        path_rev.reverse();
        let (arity, _) = count_args(t, j);
        out.push(Call {
            path: path_rev,
            name: name.to_string(),
            arity,
            line,
            method,
        });
    }
}

/// Records per-call allocation sites, mirroring the `hot-path-alloc`
/// rule's detection exactly (so direct and transitive findings agree
/// on what "allocates" means).
fn collect_allocs(body: &[Token], out: &mut Vec<Site>) {
    let t = body;
    for i in 0..t.len() {
        let Some((name, line)) = ident_at(t, i) else {
            continue;
        };
        let method_pos = i > 0 && matches!(t[i - 1], Token::Punct { ch: '.', .. });
        let kind = match name {
            "Vec" if path_sep(t, i + 1) && matches!(ident_at(t, i + 3), Some(("new", _))) => {
                "Vec::new()"
            }
            "vec" if punct_at(t, i + 1, '!') => "vec![]",
            "to_vec" if method_pos => ".to_vec()",
            "collect" if method_pos => ".collect()",
            _ => continue,
        };
        out.push(Site {
            kind: kind.to_string(),
            line,
        });
    }
}

/// Records panic-capable sites: `.unwrap()` / `.expect(…)`, the
/// `panic!` macro family, and slice/array indexing (`xs[i]`,
/// `&xs[a..b]` — both panic on out-of-bounds).
fn collect_panics(body: &[Token], out: &mut Vec<Site>) {
    let t = body;
    for i in 0..t.len() {
        match &t[i] {
            Token::Ident { line, text } => {
                let method_pos = i > 0 && matches!(t[i - 1], Token::Punct { ch: '.', .. });
                let kind = match text.as_str() {
                    "unwrap" | "expect" if method_pos => text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if punct_at(t, i + 1, '!') =>
                    {
                        "panic!"
                    }
                    _ => continue,
                };
                out.push(Site {
                    kind: kind.to_string(),
                    line: *line,
                });
            }
            Token::Punct { ch: '[', line } => {
                // Indexing: `[` directly after an ident, `)`, or `]`.
                // `#[attr]` (after `#`) and array literals/types (after
                // `=`, `(`, `,`, `:`, …) are not subscripts.
                let indexing = i > 0
                    && match &t[i - 1] {
                        Token::Ident { text, .. } => !NON_CALL_KEYWORDS.contains(&text.as_str()),
                        Token::Punct { ch: ')', .. } | Token::Punct { ch: ']', .. } => true,
                        _ => false,
                    };
                if indexing {
                    out.push(Site {
                        kind: "index".to_string(),
                        line: *line,
                    });
                }
            }
            _ => {}
        }
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
    fn fn_items_with_spans_owner_and_arity() {
        let src = "struct S;\n\
                   impl S {\n\
                   pub fn a(&self, x: u8, y: u8) -> u8 {\n\
                   x + y\n\
                   }\n\
                   }\n\
                   fn free<T: Clone>(v: T) -> T { v.clone() }\n";
        let s = parse_src(src);
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "a");
        assert_eq!(s.fns[0].owner.as_deref(), Some("S"));
        assert_eq!(s.fns[0].arity, 2);
        assert_eq!((s.fns[0].start_line, s.fns[0].end_line), (3, 5));
        assert_eq!(s.fns[1].name, "free");
        assert_eq!(s.fns[1].owner, None);
        assert_eq!(s.fns[1].arity, 1);
    }

    #[test]
    fn calls_record_path_arity_and_method_position() {
        let src = "fn f(xs: &[u8]) {\n\
                   helper(1, 2);\n\
                   es_codec::dsp::quantize_band(a, b, c, d);\n\
                   xs.decode_into(out);\n\
                   g(|a, b| a + b);\n\
                   }";
        let s = parse_src(src);
        let calls = &s.fns[0].calls;
        assert_eq!(calls[0].name, "helper");
        assert_eq!(calls[0].arity, 2);
        assert!(!calls[0].method);
        assert_eq!(calls[1].path, vec!["es_codec", "dsp"]);
        assert_eq!(calls[1].name, "quantize_band");
        assert_eq!(calls[1].arity, 4);
        assert_eq!(calls[2].name, "decode_into");
        assert!(calls[2].method);
        assert_eq!(calls[2].arity, 1);
        // The closure's internal comma is not an argument separator.
        let g = calls.iter().find(|c| c.name == "g").unwrap();
        assert_eq!(g.arity, 1);
    }

    #[test]
    fn allocs_and_panics_are_sited() {
        let src = "fn f(xs: &[u8], i: usize) -> u8 {\n\
                   let v: Vec<u8> = Vec::new();\n\
                   let w = xs.to_vec();\n\
                   let x = xs[i];\n\
                   let y = xs.first().unwrap();\n\
                   panic!(\"boom\");\n\
                   }";
        let s = parse_src(src);
        let f = &s.fns[0];
        let alloc_kinds: Vec<&str> = f.allocs.iter().map(|a| a.kind.as_str()).collect();
        assert_eq!(alloc_kinds, vec!["Vec::new()", ".to_vec()"]);
        let panic_kinds: Vec<&str> = f.panics.iter().map(|p| p.kind.as_str()).collect();
        assert_eq!(panic_kinds, vec!["index", "unwrap", "panic!"]);
    }

    #[test]
    fn attributes_and_array_types_are_not_indexing() {
        let src = "fn f() -> [u8; 4] {\n\
                   #[allow(dead_code)]\n\
                   let a: [u8; 4] = [0; 4];\n\
                   a\n\
                   }";
        let s = parse_src(src);
        assert!(s.fns[0].panics.is_empty(), "{:?}", s.fns[0].panics);
    }

    #[test]
    fn use_declarations_expand_groups_and_renames() {
        let src = "use es_telemetry::{Journal, Registry as Reg, shard::{ShardBuffer}};\n\
                   use es_codec::dsp;\n\
                   use std::collections::*;\n";
        let s = parse_src(src);
        let find = |alias: &str| s.uses.iter().find(|u| u.alias == alias).cloned();
        assert_eq!(
            find("Journal").unwrap().path,
            vec!["es_telemetry", "Journal"]
        );
        assert_eq!(find("Reg").unwrap().path, vec!["es_telemetry", "Registry"]);
        assert_eq!(
            find("ShardBuffer").unwrap().path,
            vec!["es_telemetry", "shard", "ShardBuffer"]
        );
        assert_eq!(find("dsp").unwrap().path, vec!["es_codec", "dsp"]);
        assert_eq!(find("*").unwrap().path, vec!["std", "collections"]);
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

    #[test]
    fn cfg_test_mods_are_test_regions() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn helper() { x.unwrap(); }\n\
                   }\n";
        let s = parse_src(src);
        assert_eq!(s.test_regions, vec![(2, 5)]);
    }

    #[test]
    fn hot_regions_come_from_markers() {
        let src = "// es-hot-path\nfn hot() {}\n// es-hot-path-end\nfn cold() {}\n";
        let s = parse_src(src);
        assert_eq!(s.hot_regions, vec![(1, 3)]);
    }
}
