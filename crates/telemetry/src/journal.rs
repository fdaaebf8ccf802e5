//! The structured event journal.
//!
//! Components log notable moments — a late packet discarded, a config
//! change, a link joining a group — as [`Event`]s: severity, explicit
//! timestamp, component, message, and `key=value` fields. The journal
//! buffers a bounded window in memory (oldest events drop first);
//! readers take [`Journal::events`] or [`Journal::to_json_lines`].
//!
//! The journal never reads a clock: callers stamp events with
//! [`Stamp::virtual_ns`] (simulator time) or [`Stamp::wall_now`]
//! (machine time), which keeps the same instrumentation valid in both
//! worlds and is what makes event ordering reproducible in tests.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::json;
use crate::Label;

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
        #[expect(
            clippy::disallowed_methods,
            reason = "the one sanctioned wall read — live-path stamps only (DESIGN.md §8)"
        )]
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
}

/// One retained event. The texts are indices into the journal's
/// [`Texts`]; the sequence number is implied by the entry's position.
struct Entry {
    nanos: u64,
    component: u32,
    message: u32,
    /// Every field in emit order, each `varint(key index)
    /// varint(value length) value bytes`; empty (no allocation) for an
    /// event without fields.
    fields: Box<[u8]>,
    domain: TimeDomain,
    severity: Severity,
}

/// The journal's text table: each distinct component, message and
/// field key held once as a [`Label`], numbered in first-seen order.
/// Emitters pass fixed texts, so the table stays as small as the set of
/// distinct event shapes.
#[derive(Default)]
struct Texts {
    by_index: Vec<Label>,
    index: BTreeMap<Label, u32>,
}

impl Texts {
    /// The index of `text`, added if new.
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&i) = self.index.get(text) {
            return i;
        }
        let i = self.by_index.len() as u32;
        let label = Label::new(text);
        self.by_index.push(label.clone());
        self.index.insert(label, i);
        i
    }

    fn get(&self, i: u32) -> &str {
        &self.by_index[i as usize]
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn take_varint(bytes: &mut &[u8]) -> usize {
    let mut v = 0;
    for (i, &b) in bytes.iter().enumerate() {
        v |= ((b & 0x7f) as usize) << (7 * i);
        if b < 0x80 {
            *bytes = &bytes[i + 1..];
            return v;
        }
    }
    *bytes = &[];
    v
}

/// The `(key index, value)` pairs of an entry's packed fields.
fn unpack(mut packed: &[u8]) -> impl Iterator<Item = (u32, &str)> {
    std::iter::from_fn(move || {
        if packed.is_empty() {
            return None;
        }
        let key = take_varint(&mut packed) as u32;
        let len = take_varint(&mut packed).min(packed.len());
        let (value, rest) = packed.split_at(len);
        packed = rest;
        // Packed from a `String`, so always valid UTF-8.
        Some((key, std::str::from_utf8(value).unwrap_or_default()))
    })
}

struct Inner {
    entries: VecDeque<Entry>,
    texts: Texts,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl Inner {
    /// The retained entry at `i` (0 = oldest) as the public read type.
    fn event(&self, i: usize) -> Event {
        let e = &self.entries[i];
        Event {
            seq: self.next_seq - self.entries.len() as u64 + i as u64,
            stamp: Stamp {
                domain: e.domain,
                nanos: e.nanos,
            },
            severity: e.severity,
            component: self.texts.get(e.component).to_string(),
            message: self.texts.get(e.message).to_string(),
            fields: unpack(&e.fields)
                .map(|(k, v)| (self.texts.get(k).to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// The shared journal handle. Cloning is cheap and every clone feeds
/// the same buffer, so one journal can thread through a whole system —
/// single-threaded simulator or multi-threaded live deployment alike.
///
/// The buffer stores events compactly — texts interned once per
/// journal, field values packed into one byte slice, sequence numbers
/// implied by position — and builds [`Event`]s only when they are read.
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
                entries: VecDeque::new(),
                texts: Texts::default(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
            })),
        }
    }

    /// Records an event with structured fields. A key given twice keeps
    /// its last value.
    pub fn emit(
        &self,
        stamp: Stamp,
        severity: Severity,
        component: &str,
        message: &str,
        fields: &[(&str, String)],
    ) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let component = inner.texts.intern(component);
        let message = inner.texts.intern(message);
        // Exact whenever key indices and value lengths are below 128;
        // nothing is allocated for an event without fields.
        let mut packed = Vec::with_capacity(fields.iter().map(|(_, v)| 2 + v.len()).sum());
        for (k, v) in fields {
            put_varint(&mut packed, inner.texts.intern(k) as usize);
            put_varint(&mut packed, v.len());
            packed.extend_from_slice(v.as_bytes());
        }
        if inner.entries.len() == inner.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(Entry {
            nanos: stamp.nanos,
            component,
            message,
            fields: packed.into_boxed_slice(),
            domain: stamp.domain,
            severity,
        });
        inner.next_seq += 1;
    }

    /// A copy of the buffered events, in record order.
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock().unwrap();
        (0..inner.entries.len()).map(|i| inner.event(i)).collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the buffered events as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for i in 0..inner.entries.len() {
            out.push_str(&inner.event(i).to_json_line());
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Journal")
            .field("len", &inner.entries.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn ordering_is_total_under_virtual_time() {
        let j = Journal::new();
        // Three events at the same virtual instant, one earlier.
        j.emit(Stamp::virtual_ns(500), Severity::Info, "net", "b", &[]);
        j.emit(Stamp::virtual_ns(500), Severity::Info, "vad", "c", &[]);
        j.emit(Stamp::virtual_ns(100), Severity::Warn, "speaker", "a", &[]);
        j.emit(Stamp::virtual_ns(500), Severity::Info, "net", "d", &[]);
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
        j.emit(Stamp::virtual_ns(1), Severity::Info, "x", "one", &[]);
        j.emit(Stamp::virtual_ns(2), Severity::Info, "x", "two", &[]);
        j.emit(Stamp::virtual_ns(3), Severity::Info, "x", "three", &[]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.inner.lock().unwrap().dropped, 1);
        let msgs: Vec<String> = j.events().into_iter().map(|e| e.message).collect();
        assert_eq!(msgs, vec!["two", "three"]);
    }

    #[test]
    fn event_json_line_carries_every_field() {
        let j = Journal::new();
        j.emit(
            Stamp::virtual_ns(1_500_000),
            Severity::Warn,
            "speaker",
            "packet discarded: \"late\"",
            &[("late_by_us", "120".to_string()), ("seq", "7".to_string())],
        );
        let v = json::parse(&j.events()[0].to_json_line()).unwrap();
        let text = |k: &str| v.get(k).and_then(JsonValue::as_str);
        assert_eq!(v.get("seq").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(text("domain"), Some("virtual"));
        assert_eq!(v.get("ts_ns").and_then(JsonValue::as_u64), Some(1_500_000));
        assert_eq!(text("severity"), Some("warn"));
        assert_eq!(text("component"), Some("speaker"));
        assert_eq!(text("message"), Some("packet discarded: \"late\""));
        let fields = v.get("fields").unwrap();
        assert_eq!(
            fields.get("late_by_us").and_then(JsonValue::as_str),
            Some("120")
        );
        assert_eq!(fields.get("seq").and_then(JsonValue::as_str), Some("7"));
    }

    #[test]
    fn clones_share_one_buffer() {
        let j = Journal::new();
        let j2 = j.clone();
        j2.emit(Stamp::wall_now(), Severity::Info, "live", "hello", &[]);
        assert_eq!(j.len(), 1);
        assert_eq!(j.events()[0].stamp.domain, TimeDomain::Wall);
    }

    #[test]
    fn wall_stamps_are_written_exactly() {
        // Above 2^53: a write or a parse through f64 reads this as …768.
        let stamp = Stamp::wall_ns(1_760_000_000_123_456_789);
        let j = Journal::new();
        j.emit(stamp, Severity::Info, "live", "hello", &[]);
        let v = json::parse(j.to_json_lines().trim_end()).unwrap();
        assert_eq!(v.get("domain").and_then(JsonValue::as_str), Some("wall"));
        assert_eq!(
            v.get("ts_ns").and_then(JsonValue::as_u64),
            Some(stamp.nanos)
        );
    }

    /// The retained layout: an entry fits in 40 bytes, each distinct
    /// text is held once however many events repeat it, and an event
    /// without fields packs nothing.
    #[test]
    fn retained_layout_is_compact() {
        assert!(std::mem::size_of::<Entry>() <= 40);
        let j = Journal::new();
        for i in 0..10_000u64 {
            let stamp = Stamp::virtual_ns(i);
            match i % 3 {
                0 => j.emit(
                    stamp,
                    Severity::Warn,
                    "net",
                    "datagram lost in transit",
                    &[
                        ("from", "producer".into()),
                        ("receivers_lost", (i % 7).to_string()),
                        ("bytes", "1200".into()),
                    ],
                ),
                1 => j.emit(
                    stamp,
                    Severity::Debug,
                    "speaker",
                    "late packet discarded",
                    &[
                        ("speaker", format!("es{}", i % 16)),
                        ("late_us", i.to_string()),
                    ],
                ),
                _ => j.emit(stamp, Severity::Info, "heal", "receiver recovered", &[]),
            }
        }
        let inner = j.inner.lock().unwrap();
        let texts: Vec<&str> = inner.texts.by_index.iter().map(|l| l.as_str()).collect();
        // `speaker` is a component and a key, and is held once.
        assert_eq!(
            texts,
            [
                "net",
                "datagram lost in transit",
                "from",
                "receivers_lost",
                "bytes",
                "speaker",
                "late packet discarded",
                "late_us",
                "heal",
                "receiver recovered",
            ]
        );
        assert_eq!(inner.texts.index.len(), texts.len());
        let heal = inner.texts.index["heal"];
        let fieldless: Vec<&Entry> = inner
            .entries
            .iter()
            .filter(|e| e.component == heal)
            .collect();
        assert!(!fieldless.is_empty());
        assert!(fieldless.iter().all(|e| e.fields.is_empty()));
    }

    /// The journal as it stored events before the compact layout: each
    /// retained event owns its texts, a `BTreeMap` of fields and its
    /// `seq`.
    struct Oracle {
        events: VecDeque<Event>,
        capacity: usize,
        next_seq: u64,
        dropped: u64,
    }

    impl Oracle {
        fn emit(
            &mut self,
            stamp: Stamp,
            severity: Severity,
            component: &str,
            message: &str,
            fields: &[(&str, String)],
        ) {
            let event = Event {
                seq: self.next_seq,
                stamp,
                severity,
                component: component.to_string(),
                message: message.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            };
            self.next_seq += 1;
            if self.events.len() == self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(event);
        }

        fn to_json_lines(&self) -> String {
            self.events
                .iter()
                .map(|e| e.to_json_line() + "\n")
                .collect()
        }
    }

    /// A value drawn from `r`: empty, or up to 150 characters (so its
    /// length varint may take two bytes) from a pool holding every
    /// ASCII control byte, JSON's escapes, separators and multi-byte
    /// UTF-8.
    fn value(mut r: u64) -> String {
        const POOL: [char; 12] = [
            '=', ',', ':', '"', '\\', '\u{7f}', 'é', '→', '😀', 'x', ' ', '}',
        ];
        let len = (r % 151) as usize;
        r /= 151;
        (0..len)
            .map(|i| {
                let pick = (r.rotate_left(i as u32 * 5) as usize + i) % (POOL.len() + 32);
                POOL.get(pick)
                    .copied()
                    .unwrap_or_else(|| char::from((pick - POOL.len()) as u8))
            })
            .collect()
    }

    proptest::proptest! {
        /// The compact journal reads exactly like the old one:
        /// `events()` and `to_json_lines()`, under eviction at capacities 1–8.
        #[test]
        fn compact_journal_matches_the_oracle(
            capacity in 1usize..9,
            warm in proptest::bool::ANY,
            ops in proptest::collection::vec(
                (proptest::num::u64::ANY, proptest::num::u64::ANY),
                0..64,
            ),
        ) {
            let j = Journal::with_capacity(capacity);
            let mut oracle = Oracle {
                events: VecDeque::new(),
                capacity,
                next_seq: 0,
                dropped: 0,
            };
            // Half the cases start with 130 texts interned, so every key
            // index takes two varint bytes.
            for i in 0..if warm { 130 } else { 0 } {
                let message = format!("warm{i}");
                j.emit(Stamp::virtual_ns(i), Severity::Info, "warm", &message, &[]);
                oracle.emit(Stamp::virtual_ns(i), Severity::Info, "warm", &message, &[]);
            }
            for (a, b) in ops {
                let stamp = match a & 1 {
                    0 => Stamp::virtual_ns(b),
                    _ => Stamp::wall_ns(b),
                };
                let severity = [Severity::Debug, Severity::Info, Severity::Warn, Severity::Error]
                    [(a >> 1) as usize % 4];
                let component = ["net", "speaker", "heal", ""][(a >> 3) as usize % 4];
                let message = format!("m{}", (a >> 5) % 5);
                // Keys from a small pool (duplicates are common) and,
                // now and then, from 300 names: indices past 127.
                let keys: Vec<String> = (0..(a >> 8) % 5)
                    .map(|i| match (a >> (12 + i * 10)) % 8 {
                        0 => format!("k{}", (b >> (i * 8)) % 300),
                        k => ["speaker", "seq", "late_us", "", "é", "a b", "from"][k as usize - 1]
                            .to_string(),
                    })
                    .collect();
                let fields: Vec<(&str, String)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| (k.as_str(), value(b.rotate_left(i as u32 * 13) ^ a)))
                    .collect();
                j.emit(stamp, severity, component, &message, &fields);
                oracle.emit(stamp, severity, component, &message, &fields);
                let events = j.events();
                proptest::prop_assert_eq!(&events, &Vec::from(oracle.events.clone()));
                proptest::prop_assert_eq!(j.to_json_lines(), oracle.to_json_lines());
                proptest::prop_assert_eq!(j.len(), oracle.events.len());
                proptest::prop_assert_eq!(j.inner.lock().unwrap().dropped, oracle.dropped);
            }
        }
    }
}
