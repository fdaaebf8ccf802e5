//! The metrics registry: counters, gauges, log-scale histograms.
//!
//! Every metric is keyed `component/instance/name` — the component is
//! fixed by the code that owns the number (`"net"`, `"speaker"`, …),
//! the instance distinguishes replicas (which speaker, which link) and
//! is chosen by whoever walks the system, and the name is the quantity.
//! Snapshots export as JSON lines, one metric per line; nothing in the
//! system reads them back, they are diffed as text.
//!
//! A 1 000-speaker fleet's snapshot holds ≈ 31k metrics, so it is one
//! compact buffer: a registry interns each distinct key part once as a
//! [`Label`] (every key of one instance shares one allocation of its
//! text), a [`Histogram`] stores buckets only up to its highest
//! non-empty one, and a [`Registry`] records into an append-only log
//! of 64-byte entries, the size of a [`Metric`], that
//! [`Registry::snapshot`] sorts once and turns into the snapshot in
//! place. The `BTreeMap` the log replaced cost ≈ 110 B per key and was
//! still live when the snapshot's 64 B per key were allocated: 178 B
//! per key at the peak of a 1k fleet's walk, where the log peaks at
//! 75 B (its entries, the `Vec`'s growth slack, histograms and labels).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::json;

/// A fixed log-scale (power-of-two bucket) histogram of `u64` samples.
///
/// Only the buckets up to the highest non-empty one are stored, so a
/// histogram of microsecond latencies holds about 20 of the 65. Two
/// histograms are equal when they hold the same samples per bucket.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    /// Empty, or ending in a non-zero count.
    buckets: Box<[u64]>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let i = Self::bucket_index(value);
        self.widen(i + 1);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[i] += 1;
    }

    /// Makes room for the first `len` buckets.
    fn widen(&mut self, len: usize) {
        if self.buckets.len() < len {
            let mut wider = vec![0; len];
            wider[..self.buckets.len()].copy_from_slice(&self.buckets);
            self.buckets = wider.into_boxed_slice();
        }
    }

    /// The bucket a value falls into: bucket `i > 0` holds values whose
    /// base-2 magnitude is `i` (upper bound `2^i - 1`), bucket 0 holds
    /// exact zeros, and 65 buckets cover the full `u64` domain.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The largest value bucket `i` can hold (`0`, then `2^i - 1`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`q` in `[0, 1]`), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// `(bucket_index, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.widen(other.buckets.len());
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// One part of a [`MetricKey`]: shared, immutable text.
///
/// A [`Registry`] interns each distinct part once, so every key of one
/// instance (and every key with one name) points at one allocation.
/// Labels compare, order and hash by their text — two labels from
/// different registries, or parsed back from JSON, behave exactly like
/// the strings they hold — and compare equal to `&str`.
#[derive(Clone)]
pub struct Label(Arc<str>);

impl Label {
    /// A label holding `text` in an allocation of its own.
    pub fn new(text: &str) -> Self {
        Label(Arc::from(text))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if both labels share one allocation (one registry interned
    /// them as one).
    fn is(&self, other: &Label) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::new("")
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        self.is(other) || self.0 == other.0
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Label) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Label) -> Ordering {
        if self.is(other) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The one shared [`Label`] for `text` in `labels`, added if new.
fn intern(labels: &mut BTreeSet<Label>, text: &str) -> Label {
    if let Some(label) = labels.get(text) {
        return label.clone();
    }
    let label = Label::new(text);
    labels.insert(label.clone());
    label
}

/// The full identity of a metric: `component/instance/name`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// The subsystem that owns the number (`"net"`, `"speaker"`, …).
    pub component: Label,
    /// Which replica of the component (speaker name, link id, …).
    pub instance: Label,
    /// The quantity itself (`"samples_played"`, …).
    pub name: Label,
}

/// `component/instance/name` in three parts (the name may itself
/// contain slashes).
fn split_path(path: &str) -> Option<(&str, &str, &str)> {
    let mut it = path.splitn(3, '/');
    Some((it.next()?, it.next()?, it.next()?))
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.component, self.instance, self.name)
    }
}

/// A metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulating count.
    Counter(u64),
    /// A point-in-time measurement; last write wins.
    Gauge(f64),
    /// A log-scale distribution of samples, boxed so that counters and
    /// gauges do not pay for its size.
    Histogram(Box<Histogram>),
}

impl MetricValue {
    /// The `type` tag used in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// The mutable collection point instrumented code records into.
///
/// Recording appends to a log of 64-byte entries, one per key a scope
/// recorded: a [`Scope`] folds a name it already recorded into its own
/// earlier entry, and [`Registry::snapshot`] folds the rest once, after
/// one sort. A walk records each key once, so the log holds one entry
/// per key and becomes the snapshot in place.
#[derive(Debug, Default)]
pub struct Registry {
    /// Every key part recorded so far, each held once.
    labels: BTreeSet<Label>,
    instance: Label,
    /// Everything recorded, in recording order.
    log: Vec<Entry>,
    /// Where the current scope's entries start in `log`. A scope
    /// reopened on the same component and instance continues them.
    scope_start: usize,
}

/// One log entry: a key, and what one scope recorded under it since the
/// key last changed kind there.
#[derive(Debug)]
struct Entry {
    key: MetricKey,
    op: Op,
}

/// What an entry does to the value recorded before it under its key: a
/// counter adds, a gauge overwrites, a histogram merges, and an entry
/// of another kind replaces the value. `order` is the entry's position
/// in the log, so that an unstable sort keeps a key's entries in
/// recording order.
#[derive(Debug)]
enum Op {
    Counter { order: u32, delta: u64 },
    Gauge { order: u32, value: f64 },
    Histogram { order: u32, hist: Box<Histogram> },
}

impl Op {
    fn order(&self) -> u32 {
        match *self {
            Op::Counter { order, .. } | Op::Gauge { order, .. } | Op::Histogram { order, .. } => {
                order
            }
        }
    }

    /// Applies `later`, recorded after `self` under the same key.
    fn then(&mut self, later: &mut Op) {
        match (self, later) {
            (Op::Counter { delta, .. }, Op::Counter { delta: more, .. }) => *delta += *more,
            (Op::Histogram { hist, .. }, Op::Histogram { hist: more, .. }) => hist.merge(more),
            (earlier, later) => std::mem::swap(earlier, later),
        }
    }
}

impl Entry {
    fn into_metric(self) -> Metric {
        let value = match self.op {
            Op::Counter { delta, .. } => MetricValue::Counter(delta),
            Op::Gauge { value, .. } => MetricValue::Gauge(value),
            Op::Histogram { hist, .. } => MetricValue::Histogram(hist),
        };
        Metric {
            key: self.key,
            value,
        }
    }
}

impl Registry {
    /// An empty registry with the default instance label `"0"`.
    pub fn new() -> Self {
        let mut labels = BTreeSet::new();
        let instance = intern(&mut labels, "0");
        Registry {
            labels,
            instance,
            log: Vec::new(),
            scope_start: 0,
        }
    }

    /// Sets the instance label applied to subsequently recorded
    /// metrics. The caller that walks the system knows which replica
    /// it is visiting; the component code does not.
    pub fn set_instance(&mut self, instance: &str) {
        self.instance = intern(&mut self.labels, instance);
    }

    /// Opens a recording scope for one component under the current
    /// instance label.
    pub fn component<'a>(&'a mut self, component: &str) -> Scope<'a> {
        let component = intern(&mut self.labels, component);
        let continues = self
            .log
            .get(self.scope_start)
            .is_some_and(|e| e.key.component.is(&component) && e.key.instance.is(&self.instance));
        if !continues {
            self.scope_start = self.log.len();
        }
        Scope {
            registry: self,
            component,
        }
    }

    /// Freezes the contents into an immutable snapshot: sorts the log
    /// by key, folds each key's entries in recording order, and turns
    /// the log into the snapshot's `Vec` in place. The log's buffer is
    /// the only one: 64 B per key, where the map it replaced held
    /// ≈ 110 B per key while the snapshot's 64 B were allocated.
    pub fn snapshot(self) -> MetricsSnapshot {
        let mut log = self.log;
        log.sort_unstable_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| a.op.order().cmp(&b.op.order()))
        });
        log.dedup_by(|later, earlier| {
            let same = later.key == earlier.key;
            if same {
                earlier.op.then(&mut later.op);
            }
            same
        });
        MetricsSnapshot {
            metrics: log.into_iter().map(Entry::into_metric).collect(),
        }
    }
}

/// A recording scope: one component, one instance.
pub struct Scope<'a> {
    registry: &'a mut Registry,
    component: Label,
}

impl Scope<'_> {
    /// Folds into this scope's latest entry under `name` if `fold`
    /// accepts it (the entry is of its kind), else appends `op`.
    fn record(
        &mut self,
        name: &str,
        fold: impl FnOnce(&mut Op) -> bool,
        op: impl FnOnce(u32) -> Op,
    ) {
        let Registry {
            labels,
            instance,
            log,
            scope_start,
        } = &mut *self.registry;
        let name = match labels.get(name) {
            Some(label) => {
                let latest = log[*scope_start..]
                    .iter_mut()
                    .rev()
                    .find(|e| e.key.name.is(label));
                if latest.is_some_and(|e| fold(&mut e.op)) {
                    return;
                }
                label.clone()
            }
            None => intern(labels, name),
        };
        let order = u32::try_from(log.len()).expect("a registry holds under 2^32 entries");
        log.push(Entry {
            key: MetricKey {
                component: self.component.clone(),
                instance: instance.clone(),
                name,
            },
            op: op(order),
        });
    }

    /// Adds to a counter (creating it at zero).
    pub fn counter(&mut self, name: &str, delta: u64) -> &mut Self {
        self.record(
            name,
            |op| match op {
                Op::Counter { delta: c, .. } => {
                    *c += delta;
                    true
                }
                _ => false,
            },
            |order| Op::Counter { order, delta },
        );
        self
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        self.record(
            name,
            |op| match op {
                Op::Gauge { value: g, .. } => {
                    *g = value;
                    true
                }
                _ => false,
            },
            |order| Op::Gauge { order, value },
        );
        self
    }

    /// Merges an externally maintained histogram under `name`.
    pub fn histogram(&mut self, name: &str, hist: &Histogram) -> &mut Self {
        self.record(
            name,
            |op| match op {
                Op::Histogram { hist: h, .. } => {
                    h.merge(hist);
                    true
                }
                _ => false,
            },
            |order| Op::Histogram {
                order,
                hist: Box::new(hist.clone()),
            },
        );
        self
    }
}

/// One exported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its identity.
    pub key: MetricKey,
    /// Its value.
    pub value: MetricValue,
}

/// An immutable, sorted set of metrics from one walk of the system.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All metrics, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// The metrics of one component: a contiguous run, since the
    /// snapshot is key-sorted.
    fn for_component(&self, component: &str) -> &[Metric] {
        let start = self
            .metrics
            .partition_point(|m| m.key.component.as_str() < component);
        let len = self.metrics[start..].partition_point(|m| m.key.component == component);
        &self.metrics[start..start + len]
    }

    /// The metrics of one component instance, in name order.
    fn for_instance(&self, component: &str, instance: &str) -> &[Metric] {
        let metrics = self.for_component(component);
        let start = metrics.partition_point(|m| m.key.instance.as_str() < instance);
        let len = metrics[start..].partition_point(|m| m.key.instance == instance);
        &metrics[start..start + len]
    }

    /// Looks up a metric by `component/instance/name` path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        let (component, instance, name) = split_path(path)?;
        find(self.for_instance(component, instance), name)
    }

    /// A counter's value by path.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.get(path)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// A gauge's value by path.
    pub fn gauge(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// A histogram by path.
    pub fn histogram(&self, path: &str) -> Option<&Histogram> {
        match self.get(path)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// How much a counter grew since an earlier snapshot — `None` if it
    /// is absent from either side. The chaos suite's "`frames_dropped`
    /// stops growing after the network heals" invariants are this with
    /// an expected delta of zero.
    pub fn counter_delta(&self, earlier: &MetricsSnapshot, path: &str) -> Option<u64> {
        Some(self.counter(path)?.saturating_sub(earlier.counter(path)?))
    }

    /// Sums a counter across every instance of a component — the
    /// fleet-wide total an NMS console would chart.
    pub fn sum_counters(&self, component: &str, name: &str) -> u64 {
        self.for_component(component)
            .iter()
            .filter(|m| m.key.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Serializes to JSON lines, one metric per line, sorted by key.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let mut path = String::new();
        for m in &self.metrics {
            path.clear();
            let _ = write!(path, "{}", m.key);
            out.push_str("{\"key\":");
            json::write_str(&mut out, &path);
            out.push_str(",\"type\":\"");
            out.push_str(m.value.kind());
            out.push('"');
            match &m.value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, ",\"value\":{c}");
                }
                MetricValue::Gauge(g) => {
                    out.push_str(",\"value\":");
                    json::write_num(&mut out, *g);
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(out, ",\"count\":{},\"sum\":{}", h.count(), h.sum());
                    out.push_str(",\"buckets\":[");
                    for (n, (i, c)) in h.nonzero_buckets().enumerate() {
                        if n > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{i},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// The value named `name` among one instance's name-sorted metrics.
fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a MetricValue> {
    metrics
        .binary_search_by(|m| m.key.name.as_str().cmp(name))
        .ok()
        .map(|i| &metrics[i].value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A histogram holding the one sample `value`: what a scope merges
    /// to record one sample.
    fn sample(value: u64) -> Histogram {
        let mut h = Histogram::new();
        h.observe(value);
        h
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..63 {
            // Every bucket's upper bound maps back into that bucket.
            assert_eq!(Histogram::bucket_index(Histogram::bucket_upper_bound(i)), i);
            assert_eq!(
                Histogram::bucket_index(Histogram::bucket_upper_bound(i) + 1),
                i + 1
            );
        }
    }

    #[test]
    fn histogram_count_sum_quantile() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 5, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1107);
        assert_eq!(h.quantile(0.0), 0);
        // The third of six samples is a 1 (bucket 1, bound 1).
        assert_eq!(h.quantile(0.5), 1);
        // Five of six samples are <= 100 (bucket 7, bound 127).
        assert_eq!(h.quantile(0.8), 127);
        assert_eq!(h.quantile(1.0), Histogram::bucket_upper_bound(10));
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        a.observe(3);
        let mut b = Histogram::new();
        b.observe(3);
        b.observe(900);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 906);
        assert_eq!(a.nonzero_buckets().count(), 2);
    }

    #[test]
    fn histogram_stores_buckets_up_to_its_highest_sample() {
        let mut h = Histogram::new();
        assert!(h.buckets.is_empty());
        h.observe(5);
        assert_eq!(h.buckets.len(), 4);
        h.observe(1);
        assert_eq!(h.buckets.len(), 4);
        h.observe(u64::MAX);
        assert_eq!(h.buckets.len(), 65);
    }

    #[test]
    fn counter_accumulates_gauge_overwrites() {
        let mut r = Registry::new();
        r.set_instance("spk-a");
        {
            let mut s = r.component("speaker");
            s.counter("samples_played", 10);
            s.counter("samples_played", 5);
            s.gauge("sync_offset_us", 250.0);
            s.gauge("sync_offset_us", -40.0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("speaker/spk-a/samples_played"), Some(15));
        assert_eq!(snap.gauge("speaker/spk-a/sync_offset_us"), Some(-40.0));
        assert_eq!(snap.counter("speaker/spk-a/nope"), None);
    }

    #[test]
    fn instances_are_distinct() {
        let mut r = Registry::new();
        r.set_instance("a");
        r.component("net").counter("frames_delivered", 1);
        r.set_instance("b");
        r.component("net").counter("frames_delivered", 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("net/a/frames_delivered"), Some(1));
        assert_eq!(snap.counter("net/b/frames_delivered"), Some(2));
        assert_eq!(snap.sum_counters("net", "frames_delivered"), 3);
    }

    #[test]
    fn counter_delta_between_snapshots() {
        let snap = |v: u64| {
            let mut r = Registry::new();
            r.set_instance("lan0");
            r.component("net").counter("frames_dropped", v);
            r.snapshot()
        };
        let (early, late) = (snap(10), snap(17));
        assert_eq!(
            late.counter_delta(&early, "net/lan0/frames_dropped"),
            Some(7)
        );
        assert_eq!(
            late.counter_delta(&late, "net/lan0/frames_dropped"),
            Some(0)
        );
        // Saturates rather than panicking on a counter that went down
        // (a restarted component).
        assert_eq!(
            early.counter_delta(&late, "net/lan0/frames_dropped"),
            Some(0)
        );
        assert_eq!(late.counter_delta(&early, "net/lan0/nope"), None);
    }

    #[test]
    fn lookups_agree_with_a_linear_scan() {
        // Components, instances and names that share prefixes, so a
        // range boundary off by one shows.
        let mut r = Registry::new();
        for instance in ["a", "a0", "b", "ab"] {
            r.set_instance(instance);
            for component in ["net", "ne", "speaker"] {
                r.component(component)
                    .counter("x", 1)
                    .counter("xy", 2)
                    .gauge("x0", 3.0);
            }
        }
        let snap = r.snapshot();
        for m in snap.iter() {
            assert_eq!(snap.get(&m.key.to_string()), Some(&m.value));
        }
        for path in ["net/a/x/", "net/a", "n/a/x", "net/a0/y", "speaker/c/x"] {
            assert_eq!(snap.get(path), None, "{path}");
        }
        for component in ["n", "ne", "net", "nett", "speaker"] {
            let scan: Vec<_> = snap
                .iter()
                .filter(|m| m.key.component == component)
                .collect();
            let run: Vec<_> = snap.for_component(component).iter().collect();
            assert_eq!(run, scan, "{component}");
        }
        // `ne` sorts before `net`: a run that ran on would read 5.
        assert_eq!(snap.sum_counters("ne", "x"), 4);
    }

    #[test]
    fn snapshot_json_lines_format() {
        let mut r = Registry::new();
        r.set_instance("lan0");
        {
            let mut s = r.component("net");
            s.counter("frames_delivered", 123);
            s.gauge("utilization", 0.375);
            for v in [0u64, 9, 17, 300_000] {
                s.histogram("queue_delay_us", &sample(v));
            }
        }
        assert_eq!(
            r.snapshot().to_json_lines(),
            "{\"key\":\"net/lan0/frames_delivered\",\"type\":\"counter\",\"value\":123}\n\
             {\"key\":\"net/lan0/queue_delay_us\",\"type\":\"histogram\",\"count\":4,\"sum\":300026,\"buckets\":[[0,1],[4,1],[5,1],[19,1]]}\n\
             {\"key\":\"net/lan0/utilization\",\"type\":\"gauge\",\"value\":0.375}\n"
        );
    }

    #[test]
    fn counters_above_2_pow_53_are_written_exactly() {
        // 2^53 + 1, which a write through f64 turns into 2^53.
        let n = (1u64 << 53) + 1;
        let mut r = Registry::new();
        r.set_instance("lan0");
        {
            let mut s = r.component("net");
            s.counter("frames_delivered", n);
            s.histogram("queue_delay_us", &sample(n));
        }
        assert_eq!(
            r.snapshot().to_json_lines(),
            "{\"key\":\"net/lan0/frames_delivered\",\"type\":\"counter\",\"value\":9007199254740993}\n\
             {\"key\":\"net/lan0/queue_delay_us\",\"type\":\"histogram\",\"count\":1,\"sum\":9007199254740993,\"buckets\":[[54,1]]}\n"
        );
    }

    /// The ledger probe's pattern: four counters, 250 times each.
    fn probe_pattern(s: &mut Scope<'_>) {
        let names = [
            "data_packets",
            "datagrams",
            "samples_played",
            "control_packets",
        ];
        for _ in 0..250 {
            for name in names {
                s.counter(name, 1);
            }
        }
    }

    #[test]
    fn a_scope_keeps_one_entry_per_name() {
        let mut r = Registry::new();
        r.set_instance("probe");
        probe_pattern(&mut r.component("speaker"));
        assert_eq!(r.log.len(), 4);
        // Reopened on the same component and instance, a scope folds
        // into the entries before it.
        for _ in 0..10 {
            probe_pattern(&mut r.component("speaker"));
        }
        assert_eq!(r.log.len(), 4);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.iter().all(|m| m.value == MetricValue::Counter(2_750)));
    }

    #[test]
    fn the_snapshot_is_the_log() {
        assert_eq!(std::mem::size_of::<Entry>(), std::mem::size_of::<Metric>());
        assert_eq!(std::mem::size_of::<Metric>(), 64);
        let (sent, delay, level) = ("sent", "delay_us", "level");
        let mut r = Registry::new();
        for instance in ["b", "a", "b"] {
            r.set_instance(instance);
            r.component("net")
                .counter(sent, 1)
                .histogram(delay, &sample(9));
            r.component("speaker").gauge(level, 0.5);
        }
        let log = r.log.as_ptr();
        let snap = r.snapshot();
        assert_eq!(snap.metrics.as_ptr(), log.cast::<Metric>());
        assert_eq!(snap.len(), 6);
        assert_eq!(snap.sum_counters("net", sent), 3);
    }

    /// The registry as it recorded before the log: one `BTreeMap` entry
    /// per key, updated in place by every recording.
    #[derive(Default)]
    struct MapRegistry {
        instance: String,
        metrics: BTreeMap<MetricKey, MetricValue>,
    }

    impl MapRegistry {
        fn slot(
            &mut self,
            component: &str,
            name: &str,
            init: impl FnOnce() -> MetricValue,
        ) -> &mut MetricValue {
            let key = MetricKey {
                component: Label::new(component),
                instance: Label::new(&self.instance),
                name: Label::new(name),
            };
            self.metrics.entry(key).or_insert_with(init)
        }

        fn counter(&mut self, component: &str, name: &str, delta: u64) {
            match self.slot(component, name, || MetricValue::Counter(0)) {
                MetricValue::Counter(c) => *c += delta,
                other => *other = MetricValue::Counter(delta),
            }
        }

        fn gauge(&mut self, component: &str, name: &str, value: f64) {
            *self.slot(component, name, || MetricValue::Gauge(value)) = MetricValue::Gauge(value);
        }

        fn observe(&mut self, component: &str, name: &str, value: u64) {
            match self.slot(component, name, || MetricValue::Histogram(Box::default())) {
                MetricValue::Histogram(h) => h.observe(value),
                other => {
                    let mut h = Histogram::new();
                    h.observe(value);
                    *other = MetricValue::Histogram(Box::new(h));
                }
            }
        }

        fn histogram(&mut self, component: &str, name: &str, hist: &Histogram) {
            match self.slot(component, name, || MetricValue::Histogram(Box::default())) {
                MetricValue::Histogram(h) => h.merge(hist),
                other => *other = MetricValue::Histogram(Box::new(hist.clone())),
            }
        }

        fn snapshot(self) -> MetricsSnapshot {
            MetricsSnapshot {
                metrics: self
                    .metrics
                    .into_iter()
                    .map(|(key, value)| Metric { key, value })
                    .collect(),
            }
        }
    }

    proptest::proptest! {
        /// The log registry snapshots exactly like the map it replaced:
        /// kinds mixed under one key, instances switched back and
        /// forth, names repeated within a scope and across scopes,
        /// empty histograms.
        #[test]
        fn log_registry_matches_the_map_oracle(
            scopes in proptest::collection::vec(
                (
                    0u8..5,
                    0u8..3,
                    proptest::collection::vec((0u8..4, 0u8..4, proptest::num::u64::ANY), 0..12),
                ),
                0..16,
            ),
        ) {
            let mut log = Registry::new();
            let mut map = MapRegistry {
                instance: "0".to_string(),
                ..MapRegistry::default()
            };
            for (instance, component, ops) in scopes {
                // 3 and 4 keep the instance, so a scope may continue the
                // entries of the scope before it.
                if let Some(instance) = ["a", "b", "0"].get(usize::from(instance)) {
                    log.set_instance(instance);
                    map.instance = instance.to_string();
                }
                let component = ["net", "speaker", "ne"][usize::from(component)];
                let mut scope = log.component(component);
                for (kind, name, v) in ops {
                    let name = ["x", "y", "xy", "x/0"][usize::from(name)];
                    match kind {
                        0 => {
                            scope.counter(name, v % 1_000);
                            map.counter(component, name, v % 1_000);
                        }
                        1 => {
                            let value = (v % 4_001) as f64 / 8.0 - 250.0;
                            scope.gauge(name, value);
                            map.gauge(component, name, value);
                        }
                        2 => {
                            let value = v >> (v % 64);
                            scope.histogram(name, &sample(value));
                            map.observe(component, name, value);
                        }
                        _ => {
                            // Empty for a quarter of the draws.
                            let mut hist = Histogram::new();
                            for i in 0..v % 4 {
                                hist.observe(v.rotate_left(i as u32 * 17) >> (v % 61));
                            }
                            scope.histogram(name, &hist);
                            map.histogram(component, name, &hist);
                        }
                    }
                }
            }
            let (got, want) = (log.snapshot(), map.snapshot());
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(got.to_json_lines(), want.to_json_lines());
        }
    }
}
