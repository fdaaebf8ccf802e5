//! The rule registry: project-specific determinism and invariant
//! checks.
//!
//! Every rule is lexical — it sees one file's token stream plus its
//! crate/role attribution, and reports line-tagged findings. Rules err
//! on the side of firing: a legitimate exception is written down with
//! an `// es-allow(rule): reason` pragma, so the audit trail lives
//! next to the code it excuses.

use crate::lexer::{LineComment, Token};
use crate::pragma::Pragma;
use crate::walker::{Role, SourceFile};

/// A rule's raw output before pragma resolution.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// Human-readable defect description.
    pub message: String,
}

/// Everything a rule may consult about one file.
pub struct FileCtx<'a> {
    /// The file's path/crate/role attribution.
    pub file: &'a SourceFile,
    /// Lexed code tokens (comments and string contents excluded).
    pub tokens: &'a [Token],
    /// Line comments in source order — marker comments like
    /// `// es-hot-path` scope rules to regions of a file.
    pub comments: &'a [LineComment],
    /// Parsed suppression pragmas.
    pub pragmas: &'a [Pragma],
}

/// One registered rule.
pub struct Rule {
    /// Stable id, used in pragmas and reports (kebab-case).
    pub id: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
    check: fn(&FileCtx<'_>) -> Vec<RawFinding>,
}

impl Rule {
    /// Runs the rule on one file.
    pub fn check(&self, ctx: &FileCtx<'_>) -> Vec<RawFinding> {
        (self.check)(ctx)
    }
}

/// The full registry, in reporting order.
pub fn all() -> Vec<Rule> {
    vec![
        Rule {
            id: "wall-clock",
            summary: "Instant::now / SystemTime::now outside the live/bench allowlist",
            check: wall_clock,
        },
        Rule {
            id: "unseeded-rng",
            summary: "entropy-seeded RNG (thread_rng, OsRng, from_entropy) anywhere",
            check: unseeded_rng,
        },
        Rule {
            id: "hash-iter-order",
            summary: "HashMap/HashSet in replay-fingerprinted code; use BTree* instead",
            check: hash_iter_order,
        },
        Rule {
            id: "telemetry-key",
            summary: "metric-key literals must match component/instance/name",
            check: telemetry_key,
        },
        Rule {
            id: "unsafe-audit",
            summary: "unsafe blocks require an explicit audit pragma",
            check: unsafe_audit,
        },
        Rule {
            id: "spec-builder-naming",
            summary: "builder methods on *Spec types use bare field names, not with_*",
            check: spec_builder_naming,
        },
        Rule {
            id: "heal-event-fields",
            summary: "journal events on the heal component must carry action and target fields",
            check: heal_event_fields,
        },
        Rule {
            id: "hot-path-alloc",
            summary: "Vec::new / .to_vec / .collect inside an // es-hot-path region",
            check: hot_path_alloc,
        },
        Rule {
            id: "pragma",
            summary: "es-allow pragmas must name a registered rule and cover a finding",
            check: pragma_names_known_rule,
        },
    ]
}

/// True if `id` is a registered rule or pass. The `pragma` meta-rule
/// uses this so a typoed suppression fails instead of silently
/// suppressing nothing.
pub fn is_registered(id: &str) -> bool {
    all().iter().any(|r| r.id == id) || crate::passes::is_registered(id)
}

/// Files where reading the wall clock is the *point*: the live
/// producer paces real playback against it, and the bench harness
/// measures it. Everything else simulates time (paper §3.2) and must
/// not look at the host clock.
fn wall_clock_allowlisted(file: &SourceFile) -> bool {
    file.krate == "bench" || file.role == Role::Bench || file.rel == "crates/core/src/live.rs"
}

fn wall_clock(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    if wall_clock_allowlisted(ctx.file) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let t = ctx.tokens;
    for i in 0..t.len() {
        let Token::Ident { line, text } = &t[i] else {
            continue;
        };
        if text != "Instant" && text != "SystemTime" {
            continue;
        }
        if matches!(t.get(i + 1), Some(Token::Punct { ch: ':', .. }))
            && matches!(t.get(i + 2), Some(Token::Punct { ch: ':', .. }))
            && matches!(t.get(i + 3), Some(Token::Ident { text: m, .. }) if m == "now")
        {
            out.push(RawFinding {
                line: *line,
                message: format!(
                    "`{text}::now()` reads the host clock; simulated components must use \
                     virtual time (es-sim) so replays stay bit-identical"
                ),
            });
        }
    }
    out
}

fn unseeded_rng(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    const BANNED: &[&str] = &[
        "thread_rng",
        "ThreadRng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "getrandom",
    ];
    ctx.tokens
        .iter()
        .filter_map(|t| match t {
            Token::Ident { line, text } if BANNED.contains(&text.as_str()) => Some(RawFinding {
                line: *line,
                message: format!(
                    "`{text}` draws entropy from the host; all randomness must flow from the \
                     scenario seed (Sim::rng or a per-node stream derived from Sim::seed)"
                ),
            }),
            _ => None,
        })
        .collect()
}

fn hash_iter_order(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    ctx.tokens
        .iter()
        .filter_map(|t| match t {
            Token::Ident { line, text } if text == "HashMap" || text == "HashSet" => {
                Some(RawFinding {
                    line: *line,
                    message: format!(
                        "`{text}` iterates in hash order, which varies per process and breaks \
                         telemetry fingerprints; use BTreeMap/BTreeSet or sort before iterating"
                    ),
                })
            }
            _ => None,
        })
        .collect()
}

/// Telemetry accessor methods whose string arguments are metric keys.
const KEYED_METHODS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "observe",
    "counter_delta",
    "sum_counters",
    "component",
];

/// Charset for one key segment; `{`/`}` admit `format!` placeholders.
fn valid_segment(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '{' | '}'))
}

fn telemetry_key(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let t = ctx.tokens;
    for i in 0..t.len() {
        let Token::Ident { text, .. } = &t[i] else {
            continue;
        };
        if !KEYED_METHODS.contains(&text.as_str()) {
            continue;
        }
        // Only method-call position: `.counter(` — skips definitions
        // (`fn counter(`) and unrelated free functions.
        if i == 0 || !matches!(t[i - 1], Token::Punct { ch: '.', .. }) {
            continue;
        }
        if !matches!(t.get(i + 1), Some(Token::Punct { ch: '(', .. })) {
            continue;
        }
        let mut depth = 1u32;
        let mut j = i + 2;
        while j < t.len() && depth > 0 {
            match &t[j] {
                Token::Punct { ch: '(', .. } => depth += 1,
                Token::Punct { ch: ')', .. } => depth -= 1,
                Token::Str { line, text: lit } => {
                    let segs: Vec<&str> = lit.split('/').collect();
                    let ok = match segs.len() {
                        1 => valid_segment(segs[0]),
                        3 => segs.iter().all(|s| valid_segment(s)),
                        _ => false,
                    };
                    if !ok {
                        out.push(RawFinding {
                            line: *line,
                            message: format!(
                                "metric key {lit:?} does not follow the `component/instance/name` \
                                 convention (a bare name segment or a full three-segment path of \
                                 [A-Za-z0-9_.-]+)"
                            ),
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

fn unsafe_audit(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    ctx.tokens
        .iter()
        .filter_map(|t| match t {
            Token::Ident { line, text } if text == "unsafe" => Some(RawFinding {
                line: *line,
                message: "`unsafe` requires an audit trail; every library crate is \
                          #![forbid(unsafe_code)] — justify the exception with a pragma \
                          and drop the forbid deliberately"
                    .to_string(),
            }),
            _ => None,
        })
        .collect()
}

/// The public spec/builder convention: `ChannelSpec`, `SpeakerSpec`,
/// `SessionSpec` (and any future `*Spec`) name their builder methods
/// after the field they set — `epsilon(..)`, not `with_epsilon(..)`.
/// Any `with_*` method inside an `impl ...Spec` block is a finding.
/// The `#[deprecated]` compat-alias exception expired with the
/// one-release migration window; the aliases themselves are gone.
fn spec_builder_naming(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let t = ctx.tokens;
    let mut out = Vec::new();
    // Track `impl <Name>Spec` blocks by brace depth. Lexical, like
    // every rule here: depth counting is enough because `impl` items
    // are always at depth 0 of the module they appear in.
    let mut depth: i64 = 0;
    let mut spec_impl_close: Option<i64> = None;
    for i in 0..t.len() {
        match &t[i] {
            Token::Punct { ch: '{', .. } => depth += 1,
            Token::Punct { ch: '}', .. } => {
                depth -= 1;
                if spec_impl_close == Some(depth) {
                    spec_impl_close = None;
                }
            }
            Token::Ident { text, .. } if text == "impl" && spec_impl_close.is_none() => {
                // `impl XSpec {` or `impl Trait for XSpec {` — scan the
                // header (tokens until the opening brace) for a *Spec
                // ident.
                let mut j = i + 1;
                let mut is_spec = false;
                while j < t.len() {
                    match &t[j] {
                        Token::Punct { ch: '{', .. } => break,
                        Token::Ident { text: name, .. } if name.ends_with("Spec") => {
                            is_spec = true;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if is_spec {
                    spec_impl_close = Some(depth);
                }
            }
            Token::Ident { text, .. } if text == "fn" && spec_impl_close.is_some() => {
                let Some(Token::Ident { line, text: name }) = t.get(i + 1) else {
                    continue;
                };
                if !name.starts_with("with_") {
                    continue;
                }
                out.push(RawFinding {
                    line: *line,
                    message: format!(
                        "`{name}` on a *Spec type breaks the bare-field builder \
                         convention (`{}`); rename it — the deprecated-alias \
                         migration window has closed",
                        &name["with_".len()..]
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

/// Healing-plane journal contract: every event emitted under the
/// `heal` component names what was done (`action`) and to whom
/// (`target`), so the archived healing journals are machine-auditable.
/// Lexical, like every rule here: an `.emit(` call whose first string
/// literal is `"heal"` (the component argument — the stamp and
/// severity arguments carry no string literals) must also contain the
/// `"action"` and `"target"` field-key literals inside the call.
fn heal_event_fields(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let t = ctx.tokens;
    for i in 0..t.len() {
        let Token::Ident { text, .. } = &t[i] else {
            continue;
        };
        if text != "emit" {
            continue;
        }
        // Only method-call position: `.emit(`.
        if i == 0 || !matches!(t[i - 1], Token::Punct { ch: '.', .. }) {
            continue;
        }
        if !matches!(t.get(i + 1), Some(Token::Punct { ch: '(', .. })) {
            continue;
        }
        let mut depth = 1u32;
        let mut j = i + 2;
        let mut strs: Vec<(u32, &str)> = Vec::new();
        while j < t.len() && depth > 0 {
            match &t[j] {
                Token::Punct { ch: '(', .. } => depth += 1,
                Token::Punct { ch: ')', .. } => depth -= 1,
                Token::Str { line, text: lit } => strs.push((*line, lit)),
                _ => {}
            }
            j += 1;
        }
        let Some(&(line, component)) = strs.first() else {
            continue;
        };
        if component != "heal" {
            continue;
        }
        for field in ["action", "target"] {
            if !strs.iter().any(|(_, s)| *s == field) {
                out.push(RawFinding {
                    line,
                    message: format!(
                        "journal event on the `heal` component is missing the `{field}` \
                         field; every healing action must be journaled as \
                         (action, target, ...) so the archived healing journal is \
                         machine-auditable"
                    ),
                });
            }
        }
    }
    out
}

/// Collects `(start, end)` line ranges bounded by `// es-hot-path`
/// marker comments. A marker opens a region that runs to the matching
/// `// es-hot-path-end` (or end of file when there is none). Markers
/// are plain comments, not pragmas: they declare "steady-state code
/// here must not allocate", and the `hot-path-alloc` rule enforces it.
fn hot_path_regions(comments: &[LineComment]) -> Vec<(u32, u32)> {
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

/// Zero-allocation contract for decode hot paths: inside an
/// `// es-hot-path` region, per-call allocators are findings. The
/// region markers sit on the codec/speaker decode loops, where every
/// packet's buffers must come from the decode arena or a pooled
/// buffer — one stray `.to_vec()` reintroduces a per-packet
/// allocation that the perf ledger's `codec.ovl_decode_ms_per_audio_s`
/// and `speaker.rx_us_per_pkt` rows would only show after the fact.
fn hot_path_alloc(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let regions = hot_path_regions(ctx.comments);
    if regions.is_empty() {
        return Vec::new();
    }
    let in_region = |line: u32| regions.iter().any(|&(s, e)| s <= line && line <= e);
    let t = ctx.tokens;
    let mut out = Vec::new();
    for i in 0..t.len() {
        let Token::Ident { line, text } = &t[i] else {
            continue;
        };
        if !in_region(*line) {
            continue;
        }
        let method_pos = i > 0 && matches!(t[i - 1], Token::Punct { ch: '.', .. });
        let what = match text.as_str() {
            // `Vec::new(` — a fresh heap vector per call.
            "Vec"
                if matches!(t.get(i + 1), Some(Token::Punct { ch: ':', .. }))
                    && matches!(t.get(i + 2), Some(Token::Punct { ch: ':', .. }))
                    && matches!(t.get(i + 3), Some(Token::Ident { text: m, .. }) if m == "new") =>
            {
                "Vec::new()"
            }
            // `vec![...]` allocates exactly like Vec::new + pushes.
            "vec" if matches!(t.get(i + 1), Some(Token::Punct { ch: '!', .. })) => "vec![]",
            "to_vec" if method_pos => ".to_vec()",
            "collect" if method_pos => ".collect()",
            _ => continue,
        };
        out.push(RawFinding {
            line: *line,
            message: format!(
                "`{what}` allocates inside an `// es-hot-path` region; the decode hot \
                 path must stay allocation-free in steady state — reuse the decode \
                 arena or a pooled/caller-provided buffer (or move the one-time \
                 allocation out of the region)"
            ),
        });
    }
    out
}

/// The lexical half of the `pragma` rule. The other half — a pragma
/// that names a real check but covers no finding — can only be judged
/// once every rule and the workspace pass have run, so it lives in
/// `analyze_sources` (lib.rs) and reports under the same id.
fn pragma_names_known_rule(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    ctx.pragmas
        .iter()
        .filter(|p| !is_registered(&p.rule))
        .map(|p| RawFinding {
            line: p.line,
            message: format!(
                "es-allow names unknown rule `{}`; it would suppress nothing (registered: {})",
                p.rule,
                all().iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::pragma;
    use crate::walker::attribute;
    use std::path::PathBuf;

    fn run_on(rel: &str, src: &str) -> Vec<(String, u32)> {
        let file = attribute(PathBuf::from(rel), rel.to_string());
        let lexed = lexer::lex(src);
        let pragmas = pragma::parse(&lexed.comments);
        let ctx = FileCtx {
            file: &file,
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            pragmas: &pragmas,
        };
        let mut out = Vec::new();
        for rule in all() {
            for f in rule.check(&ctx) {
                out.push((rule.id.to_string(), f.line));
            }
        }
        out
    }

    #[test]
    fn wall_clock_fires_outside_allowlist_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            run_on("crates/net/src/lan.rs", src),
            vec![("wall-clock".to_string(), 1)]
        );
        assert!(run_on("crates/bench/src/calib.rs", src).is_empty());
        assert!(run_on("crates/core/src/live.rs", src).is_empty());
        assert!(run_on("crates/bench/benches/fig4_cpu_load.rs", src).is_empty());
    }

    #[test]
    fn instant_type_without_now_is_fine() {
        assert!(run_on("crates/net/src/lan.rs", "fn f(t: Instant) -> Instant { t }").is_empty());
    }

    #[test]
    fn rng_and_hash_fire_anywhere() {
        let hits = run_on(
            "examples/quickstart.rs",
            "fn f() { let r = thread_rng(); let m: HashMap<u8, u8> = HashMap::new(); }",
        );
        let rules: Vec<&str> = hits.iter().map(|(r, _)| r.as_str()).collect();
        assert_eq!(
            rules,
            vec!["unseeded-rng", "hash-iter-order", "hash-iter-order"]
        );
    }

    #[test]
    fn telemetry_key_validates_segments() {
        // Good: bare names and full three-segment paths.
        assert!(run_on(
            "crates/net/src/lan.rs",
            r#"fn f(s: &mut S) { s.counter("frames_sent", 1).gauge("multicast_fanout", 2.0); }"#
        )
        .is_empty());
        assert!(run_on(
            "tests/chaos.rs",
            r#"fn f(m: &M) { m.counter("net/lan0/frames_delivered"); }"#
        )
        .is_empty());
        // Bad: two segments, empty segment, illegal characters.
        for bad in [
            r#"fn f(m: &M) { m.counter("net/frames"); }"#,
            r#"fn f(m: &M) { m.counter("net//frames_sent"); }"#,
            r#"fn f(s: &mut S) { s.counter("frames sent", 1); }"#,
        ] {
            assert_eq!(
                run_on("tests/chaos.rs", bad),
                vec![("telemetry-key".to_string(), 1)],
                "expected a finding for {bad}"
            );
        }
        // Definitions and free functions named like accessors are not calls.
        assert!(run_on(
            "crates/telemetry/src/metrics.rs",
            r#"pub fn counter(name: &str) {} fn g() { counter("not a key!"); }"#
        )
        .is_empty());
    }

    #[test]
    fn unsafe_is_flagged() {
        assert_eq!(
            run_on("crates/sim/src/engine.rs", "fn f() { unsafe { work() } }"),
            vec![("unsafe-audit".to_string(), 1)]
        );
    }

    #[test]
    fn spec_builder_naming_enforces_bare_names() {
        // A with_* builder inside an impl of a Spec type fires.
        let bad = "impl SpeakerSpec { pub fn with_volume(mut self, v: f64) -> Self { self } }";
        assert_eq!(
            run_on("crates/core/src/builder.rs", bad),
            vec![("spec-builder-naming".to_string(), 1)]
        );
        // The deprecated-alias escape hatch has expired: an alias
        // still fires even with the attribute.
        let alias = "impl SpeakerSpec {\n\
                     #[deprecated(since = \"0.1.0\", note = \"renamed\")]\n\
                     pub fn with_volume(self, v: f64) -> Self { self.volume(v) }\n\
                     }";
        assert_eq!(
            run_on("crates/core/src/builder.rs", alias),
            vec![("spec-builder-naming".to_string(), 3)]
        );
        // Bare-name builders are the convention.
        let good = "impl ChannelSpec { pub fn volume(mut self, v: f64) -> Self { self } }";
        assert!(run_on("crates/core/src/builder.rs", good).is_empty());
        // with_* on non-Spec types is out of scope for this rule.
        let other = "impl BootImage { pub fn with_file(mut self, p: &str) -> Self { self } }";
        assert!(run_on("crates/boot/src/image.rs", other).is_empty());
        // ...even when a Spec impl appears elsewhere in the same file.
        let mixed = "impl SessionSpec { pub fn setup_retry(self) -> Self { self } }\n\
                     impl LiveConfig { pub fn with_journal(self) -> Self { self } }";
        assert!(run_on("crates/core/src/builder.rs", mixed).is_empty());
    }

    #[test]
    fn heal_event_fields_requires_action_and_target() {
        // Missing target: one finding.
        let missing_target = r#"fn f(j: &J) {
            j.emit(s, sev, "heal", "fec ladder raised", &[("action", a)]);
        }"#;
        assert_eq!(
            run_on("crates/core/src/heal_ctl.rs", missing_target),
            vec![("heal-event-fields".to_string(), 2)]
        );
        // Missing both: two findings on the same call.
        let missing_both = r#"fn f(j: &J) { j.emit(s, sev, "heal", "oops", &[]); }"#;
        assert_eq!(
            run_on("crates/core/src/heal_ctl.rs", missing_both),
            vec![
                ("heal-event-fields".to_string(), 1),
                ("heal-event-fields".to_string(), 1)
            ]
        );
        // Complete heal event: clean.
        let good = r#"fn f(j: &J) {
            j.emit(s, sev, "heal", "standby promoted",
                   &[("action", a), ("target", t), ("extra", x)]);
        }"#;
        assert!(run_on("crates/core/src/heal_ctl.rs", good).is_empty());
        // Other components are out of scope.
        let other = r#"fn f(j: &J) {
            j.emit(s, sev, "net", "receiver degraded", &[("node", n)]);
        }"#;
        assert!(run_on("crates/net/src/lan.rs", other).is_empty());
        // `emit` not in method position is not a journal call.
        let free = r#"fn emit(a: &str) {} fn g() { emit("heal"); }"#;
        assert!(run_on("crates/core/src/heal_ctl.rs", free).is_empty());
    }

    #[test]
    fn hot_path_alloc_scopes_to_marked_regions() {
        // No marker: allocations are fine anywhere.
        assert!(run_on(
            "crates/codec/src/ovl.rs",
            "fn f() -> Vec<u8> { let v = Vec::new(); v }"
        )
        .is_empty());
        // Inside a region: Vec::new, vec!, .to_vec and .collect all fire.
        let marked = "// es-hot-path\n\
                      fn f(xs: &[u8]) {\n\
                      let a: Vec<u8> = Vec::new();\n\
                      let b = vec![0u8; 4];\n\
                      let c = xs.to_vec();\n\
                      let d: Vec<u8> = xs.iter().copied().collect();\n\
                      }";
        assert_eq!(
            run_on("crates/codec/src/ovl.rs", marked),
            vec![
                ("hot-path-alloc".to_string(), 3),
                ("hot-path-alloc".to_string(), 4),
                ("hot-path-alloc".to_string(), 5),
                ("hot-path-alloc".to_string(), 6),
            ]
        );
        // es-hot-path-end closes the region.
        let bounded = "// es-hot-path\n\
                       fn hot(out: &mut Vec<u8>) { out.clear(); }\n\
                       // es-hot-path-end\n\
                       fn cold(xs: &[u8]) -> Vec<u8> { xs.to_vec() }";
        assert!(run_on("crates/codec/src/ovl.rs", bounded).is_empty());
        // Non-allocating idioms inside a region are clean.
        let clean = "// es-hot-path\n\
                     fn f(out: &mut Vec<i16>, xs: &[i16]) {\n\
                     out.clear();\n\
                     out.extend_from_slice(xs);\n\
                     out.resize(xs.len() * 2, 0);\n\
                     }";
        assert!(run_on("crates/codec/src/ovl.rs", clean).is_empty());
        // `collect` not in method position (a local fn) is out of scope.
        let free = "// es-hot-path\nfn collect() {} fn g() { collect(); }";
        assert!(run_on("crates/codec/src/ovl.rs", free).is_empty());
    }

    #[test]
    fn unknown_pragma_rule_is_a_finding() {
        let hits = run_on(
            "crates/net/src/lan.rs",
            "// es-allow(wallclock): typo\nfn f() {}",
        );
        assert_eq!(hits, vec![("pragma".to_string(), 1)]);
    }
}
