//! The structured event journal.
//!
//! Components log notable moments — a late packet discarded, a config
//! change, a link joining a group — as [`Event`]s: severity, explicit
//! timestamp, component, message, and `key=value` fields. The journal
//! buffers a bounded window in memory (oldest events drop first) and
//! fans every event out to pluggable [`JournalSink`]s, so a live
//! deployment can stream JSON lines to a collector while tests inspect
//! the ring directly.
//!
//! The journal never reads a clock: callers stamp events with
//! [`Stamp::virtual_ns`] (simulator time) or [`Stamp::wall_now`]
//! (machine time), which keeps the same instrumentation valid in both
//! worlds and is what makes event ordering reproducible in tests.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::json::{self, JsonValue};

/// How urgent an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Developer detail.
    Debug,
    /// Normal operational milestones.
    Info,
    /// Degradation the system survived.
    Warn,
    /// Something was lost or refused.
    Error,
}

impl Severity {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses [`Self::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which clock a timestamp came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeDomain {
    /// The discrete-event simulator's clock.
    Virtual,
    /// The machine's wall clock (nanoseconds since the Unix epoch).
    Wall,
}

impl TimeDomain {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            TimeDomain::Virtual => "virtual",
            TimeDomain::Wall => "wall",
        }
    }

    /// Parses [`Self::as_str`] output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "virtual" => Some(TimeDomain::Virtual),
            "wall" => Some(TimeDomain::Wall),
            _ => None,
        }
    }
}

impl fmt::Display for TimeDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An explicit timestamp: nanoseconds in a named [`TimeDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp {
    /// The clock the nanoseconds belong to.
    pub domain: TimeDomain,
    /// Nanoseconds since that clock's zero.
    pub nanos: u64,
}

impl Stamp {
    /// A simulator-time stamp.
    pub fn virtual_ns(nanos: u64) -> Self {
        Stamp {
            domain: TimeDomain::Virtual,
            nanos,
        }
    }

    /// A wall-clock stamp with explicit nanoseconds since the epoch.
    pub fn wall_ns(nanos: u64) -> Self {
        Stamp {
            domain: TimeDomain::Wall,
            nanos,
        }
    }

    /// A wall-clock stamp read from the system clock now — the only
    /// clock access in the crate, and only on the live path.
    pub fn wall_now() -> Self {
        #[allow(clippy::disallowed_methods)]
        // es-allow(wall-clock): the one sanctioned wall read — live-path stamps only
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Stamp::wall_ns(nanos)
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number assigned by the journal; total order
    /// even when timestamps tie.
    pub seq: u64,
    /// When it happened, and on which clock.
    pub stamp: Stamp,
    /// How urgent it is.
    pub severity: Severity,
    /// The component that emitted it.
    pub component: String,
    /// Human-readable one-liner.
    pub message: String,
    /// Structured context.
    pub fields: BTreeMap<String, String>,
}

impl Event {
    /// Serializes as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"seq\":{},\"domain\":\"{}\",\"ts_ns\":{},\"severity\":\"{}\",\"component\":",
            self.seq, self.stamp.domain, self.stamp.nanos, self.severity
        ));
        json::write_str(&mut out, &self.component);
        out.push_str(",\"message\":");
        json::write_str(&mut out, &self.message);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            json::write_str(&mut out, v);
        }
        out.push_str("}}");
        out
    }

    /// Parses [`Self::to_json_line`] output.
    pub fn from_json_line(line: &str) -> Result<Self, crate::JsonError> {
        let v = json::parse(line)?;
        let bad = |message: &str| crate::JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let fields = match v.get("fields") {
            Some(JsonValue::Obj(m)) => m
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| bad("field values must be strings"))
                })
                .collect::<Result<_, _>>()?,
            None => BTreeMap::new(),
            _ => return Err(bad("fields must be an object")),
        };
        Ok(Event {
            seq: v
                .get("seq")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("missing seq"))?,
            stamp: Stamp {
                domain: v
                    .get("domain")
                    .and_then(JsonValue::as_str)
                    .and_then(TimeDomain::parse)
                    .ok_or_else(|| bad("missing domain"))?,
                nanos: v
                    .get("ts_ns")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("missing ts_ns"))?,
            },
            severity: v
                .get("severity")
                .and_then(JsonValue::as_str)
                .and_then(Severity::parse)
                .ok_or_else(|| bad("missing severity"))?,
            component: v
                .get("component")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("missing component"))?
                .to_string(),
            message: v
                .get("message")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("missing message"))?
                .to_string(),
            fields,
        })
    }
}

/// A destination events are fanned out to as they are recorded.
pub trait JournalSink: Send {
    /// Receives one event (already sequence-stamped).
    fn emit(&mut self, event: &Event);
}

struct Inner {
    events: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    sinks: Vec<Box<dyn JournalSink>>,
}

/// The shared journal handle. Cloning is cheap and every clone feeds
/// the same buffer, so one journal can thread through a whole system —
/// single-threaded simulator or multi-threaded live deployment alike.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// A journal retaining the last 4096 events.
    pub fn new() -> Self {
        Journal::with_capacity(4096)
    }

    /// A journal retaining the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            inner: Arc::new(Mutex::new(Inner {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
                sinks: Vec::new(),
            })),
        }
    }

    /// Adds a sink that will see every subsequent event.
    pub fn add_sink(&self, sink: Box<dyn JournalSink>) {
        self.inner.lock().unwrap().sinks.push(sink);
    }

    /// Records an event with structured fields.
    pub fn emit(
        &self,
        stamp: Stamp,
        severity: Severity,
        component: &str,
        message: &str,
        fields: &[(&str, String)],
    ) {
        let mut inner = self.inner.lock().unwrap();
        let event = Event {
            seq: inner.next_seq,
            stamp,
            severity,
            component: component.to_string(),
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        inner.next_seq += 1;
        for sink in &mut inner.sinks {
            sink.emit(&event);
        }
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Records a debug event without fields.
    pub fn debug(&self, stamp: Stamp, component: &str, message: &str) {
        self.emit(stamp, Severity::Debug, component, message, &[]);
    }

    /// Records an info event without fields.
    pub fn info(&self, stamp: Stamp, component: &str, message: &str) {
        self.emit(stamp, Severity::Info, component, message, &[]);
    }

    /// Records a warning without fields.
    pub fn warn(&self, stamp: Stamp, component: &str, message: &str) {
        self.emit(stamp, Severity::Warn, component, message, &[]);
    }

    /// Records an error without fields.
    pub fn error(&self, stamp: Stamp, component: &str, message: &str) {
        self.emit(stamp, Severity::Error, component, message, &[]);
    }

    /// A copy of the buffered events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the bounded buffer so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Clears the buffer (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner.lock().unwrap().events.clear();
    }

    /// Serializes the buffered events as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for e in &inner.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Journal")
            .field("len", &inner.events.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_under_virtual_time() {
        let j = Journal::new();
        // Three events at the same virtual instant, one earlier.
        j.info(Stamp::virtual_ns(500), "net", "b");
        j.info(Stamp::virtual_ns(500), "vad", "c");
        j.warn(Stamp::virtual_ns(100), "speaker", "a");
        j.info(Stamp::virtual_ns(500), "net", "d");
        let evs = j.events();
        // Record order is preserved and seq is strictly increasing,
        // even though timestamps tie or go backwards.
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let msgs: Vec<&str> = evs.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["b", "c", "a", "d"]);
        assert!(evs.iter().all(|e| e.stamp.domain == TimeDomain::Virtual));
    }

    #[test]
    fn bounded_buffer_drops_oldest() {
        let j = Journal::with_capacity(2);
        j.info(Stamp::virtual_ns(1), "x", "one");
        j.info(Stamp::virtual_ns(2), "x", "two");
        j.info(Stamp::virtual_ns(3), "x", "three");
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 1);
        let msgs: Vec<String> = j.events().into_iter().map(|e| e.message).collect();
        assert_eq!(msgs, vec!["two", "three"]);
    }

    #[test]
    fn sinks_see_every_event_including_evicted() {
        struct Collect(std::sync::mpsc::Sender<String>);
        impl JournalSink for Collect {
            fn emit(&mut self, event: &Event) {
                self.0.send(event.message.clone()).unwrap();
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let j = Journal::with_capacity(1);
        j.add_sink(Box::new(Collect(tx)));
        j.info(Stamp::wall_ns(1), "x", "a");
        j.info(Stamp::wall_ns(2), "x", "b");
        let got: Vec<String> = rx.try_iter().collect();
        assert_eq!(got, vec!["a", "b"]);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn event_json_roundtrip() {
        let j = Journal::new();
        j.emit(
            Stamp::virtual_ns(1_500_000),
            Severity::Warn,
            "speaker",
            "packet discarded: \"late\"",
            &[("late_by_us", "120".to_string()), ("seq", "7".to_string())],
        );
        let original = &j.events()[0];
        let line = original.to_json_line();
        let back = Event::from_json_line(&line).unwrap();
        assert_eq!(&back, original);
        assert!(Event::from_json_line("{}").is_err());
    }

    #[test]
    fn clones_share_one_buffer() {
        let j = Journal::new();
        let j2 = j.clone();
        j2.info(Stamp::wall_now(), "live", "hello");
        assert_eq!(j.len(), 1);
        assert_eq!(j.events()[0].stamp.domain, TimeDomain::Wall);
    }
}
