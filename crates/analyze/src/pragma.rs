//! `// es-allow(rule): reason` suppression pragmas.
//!
//! A pragma must name the rule it suppresses and give a non-empty
//! reason — `// es-allow(wall-clock): live path paces real playback`.
//! It applies to findings on its own line (trailing comment) and on
//! the line immediately below (comment-above style). A pragma with a
//! missing or empty reason is *not* honoured, so the finding it meant
//! to suppress still fails the gate: the reason is the audit trail.
//! A well-formed pragma that ends up covering no finding is itself a
//! finding (the `pragma` rule): a suppression that suppresses nothing
//! is a stale claim about the code below it.

use crate::lexer::LineComment;

/// One parsed suppression pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// The rule id it suppresses (e.g. `wall-clock`).
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// Extracts well-formed pragmas from a file's line comments.
pub fn parse(comments: &[LineComment]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        let text = c.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = text.strip_prefix("es-allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim();
        let tail = rest[close + 1..].trim();
        let Some(reason) = tail.strip_prefix(':') else {
            continue;
        };
        let reason = reason.trim();
        if rule.is_empty() || reason.is_empty() {
            continue;
        }
        out.push(Pragma {
            line: c.line,
            rule: rule.to_string(),
            reason: reason.to_string(),
        });
    }
    out
}

/// Returns the index of the pragma (if any) that suppresses `rule` at
/// `line`: one on the same line, or one on the line directly above.
pub fn covering(pragmas: &[Pragma], rule: &str, line: u32) -> Option<usize> {
    pragmas
        .iter()
        .position(|p| p.rule == rule && (p.line == line || p.line + 1 == line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    #[test]
    fn parses_rule_and_reason() {
        let lexed = lexer::lex("// es-allow(wall-clock): bench timing only\nfn f() {}\n");
        let pragmas = parse(&lexed.comments);
        assert_eq!(pragmas.len(), 1);
        assert_eq!(pragmas[0].rule, "wall-clock");
        assert_eq!(pragmas[0].reason, "bench timing only");
        assert!(covering(&pragmas, "wall-clock", 2).is_some());
        assert!(covering(&pragmas, "wall-clock", 3).is_none());
        assert!(covering(&pragmas, "unseeded-rng", 2).is_none());
    }

    #[test]
    fn reason_is_mandatory() {
        let lexed = lexer::lex("// es-allow(wall-clock)\n// es-allow(wall-clock):\n");
        assert!(parse(&lexed.comments).is_empty());
    }

    #[test]
    fn trailing_comment_covers_its_own_line() {
        let lexed = lexer::lex("let t = now(); // es-allow(wall-clock): pacing\n");
        let pragmas = parse(&lexed.comments);
        assert!(covering(&pragmas, "wall-clock", 1).is_some());
    }
}
