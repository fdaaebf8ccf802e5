//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness's own files, around the calls
//! into each layer (`{name, start_ns, end_ns, parent}`); nothing inside
//! the measured program is instrumented. A disabled tracer records
//! nothing, so the untraced runs that produce the end-to-end numbers
//! never pay for it.

use std::time::Instant;

use es_telemetry::json;

/// Handle to a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder. All spans live in memory until [`Tracer::to_json`].
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id.0) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    fn record(&mut self, name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: parent.map(|p| p.0),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// A span's self time: its duration minus the part of that
    /// interval its direct children cover. Overlapping children are
    /// counted once, and a child reaching outside its parent is
    /// clipped to it.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let Some(span) = self.spans.get(id.0) else {
            return 0;
        };
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// The span file: one object per span with its self time.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\":");
        json::write_str(&mut out, workload);
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"id\":");
            json::write_num(&mut out, i as f64);
            out.push_str(",\"name\":");
            json::write_str(&mut out, &s.name);
            out.push_str(",\"workload\":");
            json::write_str(&mut out, workload);
            out.push_str(",\"start_ns\":");
            json::write_num(&mut out, s.start_ns as f64);
            out.push_str(",\"end_ns\":");
            json::write_num(&mut out, s.end_ns as f64);
            out.push_str(",\"self_ns\":");
            json::write_num(&mut out, self.self_ns(SpanId(i)) as f64);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => json::write_num(&mut out, p as f64),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, start, end, parent) in spans {
            t.record(name, parent.map(SpanId), start, end);
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // run [0,100] > a [10,40] > a1 [15,20]; run > b [50,70].
        let t = fixed(&[
            ("run", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("a1", 15, 20, Some(1)),
            ("b", 50, 70, Some(0)),
        ]);
        // Grandchildren do not count against the grandparent twice.
        assert_eq!(t.self_ns(SpanId(0)), 100 - 30 - 20);
        assert_eq!(t.self_ns(SpanId(1)), 30 - 5);
        assert_eq!(t.self_ns(SpanId(2)), 5);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        // Children [10,50] and [30,70] overlap; [90,130] overhangs.
        let t = fixed(&[
            ("run", 0, 100, None),
            ("x", 10, 50, Some(0)),
            ("y", 30, 70, Some(0)),
            ("z", 90, 130, Some(0)),
        ]);
        assert_eq!(t.self_ns(SpanId(0)), 100 - 60 - 10);
        // A child identical to its parent leaves no self time.
        let t = fixed(&[("run", 5, 9, None), ("all", 5, 9, Some(0))]);
        assert_eq!(t.self_ns(SpanId(0)), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("run", None);
        t.end(id);
        assert_eq!(t.scope("x", Some(id), || 3), 3);
        assert!(t.durations_of("run").is_empty());
    }

    #[test]
    fn span_file_round_trips_through_the_json_parser() {
        let t = fixed(&[("run", 0, 100, None), ("core.build", 10, 40, Some(0))]);
        let doc = json::parse(&t.to_json("solo")).expect("valid JSON");
        let spans = doc
            .get("spans")
            .and_then(|s| s.items())
            .expect("span array");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("name").and_then(|n| n.as_str()),
            Some("core.build")
        );
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(spans[0].get("self_ns").and_then(|p| p.as_u64()), Some(70));
        assert_eq!(doc.get("workload").and_then(|w| w.as_str()), Some("solo"));
    }
}
