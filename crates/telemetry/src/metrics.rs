//! The metrics registry: counters, gauges, log-scale histograms.
//!
//! Every metric is keyed `component/instance/name` — the component is
//! fixed by the code that owns the number (`"net"`, `"speaker"`, …),
//! the instance distinguishes replicas (which speaker, which link) and
//! is chosen by whoever walks the system, and the name is the quantity.
//! Snapshots export as JSON lines, one metric per line, and parse back
//! for round-trip tests and offline analysis.
//!
//! A 1 000-speaker fleet's snapshot holds ≈ 33k metrics, so it is one
//! compact copy: a registry interns each distinct key part once as a
//! [`Label`] (every key of one instance shares one allocation of its
//! text), a [`Histogram`] stores buckets only up to its highest
//! non-empty one, and [`Registry::snapshot`] moves the recorded map
//! into the snapshot instead of copying it.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::json::{self, JsonValue};

/// Number of histogram buckets. Bucket `i > 0` holds values whose
/// base-2 magnitude is `i` (upper bound `2^i - 1`); bucket 0 holds
/// exact zeros. 64 buckets cover the full `u64` domain.
pub const HISTOGRAM_BUCKETS: usize = 65;

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

    /// The bucket a value falls into.
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

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
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
        if Arc::ptr_eq(&self.0, &other.0) {
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

impl MetricKey {
    /// Builds a key from its three parts.
    pub fn new(component: &str, instance: &str, name: &str) -> Self {
        MetricKey {
            component: Label::new(component),
            instance: Label::new(instance),
            name: Label::new(name),
        }
    }

    /// Parses `component/instance/name` (the name may itself contain
    /// slashes).
    pub fn from_path(path: &str) -> Option<Self> {
        let (component, instance, name) = split_path(path)?;
        Some(MetricKey::new(component, instance, name))
    }
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
#[derive(Debug, Default)]
pub struct Registry {
    /// Every key part recorded so far, each held once.
    labels: BTreeSet<Label>,
    instance: Label,
    metrics: BTreeMap<MetricKey, MetricValue>,
}

impl Registry {
    /// An empty registry with the default instance label `"0"`.
    pub fn new() -> Self {
        let mut labels = BTreeSet::new();
        let instance = intern(&mut labels, "0");
        Registry {
            labels,
            instance,
            metrics: BTreeMap::new(),
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
        Scope {
            registry: self,
            component,
        }
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Freezes the contents into an immutable snapshot. The recorded
    /// map moves into it; nothing is copied.
    pub fn snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .into_iter()
                .map(|(key, value)| Metric { key, value })
                .collect(),
        }
    }
}

/// A recording scope: one component, one instance.
pub struct Scope<'a> {
    registry: &'a mut Registry,
    component: Label,
}

impl Scope<'_> {
    /// The value stored under `name`, created by `init` if absent.
    fn slot(&mut self, name: &str, init: impl FnOnce() -> MetricValue) -> &mut MetricValue {
        let registry = &mut *self.registry;
        let key = MetricKey {
            component: self.component.clone(),
            instance: registry.instance.clone(),
            name: intern(&mut registry.labels, name),
        };
        registry.metrics.entry(key).or_insert_with(init)
    }

    /// Adds to a counter (creating it at zero).
    pub fn counter(&mut self, name: &str, delta: u64) -> &mut Self {
        match self.slot(name, || MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += delta,
            other => *other = MetricValue::Counter(delta),
        }
        self
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        *self.slot(name, || MetricValue::Gauge(value)) = MetricValue::Gauge(value);
        self
    }

    /// Records one sample into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) -> &mut Self {
        match self.slot(name, || MetricValue::Histogram(Box::default())) {
            MetricValue::Histogram(h) => h.observe(value),
            other => {
                let mut h = Histogram::new();
                h.observe(value);
                *other = MetricValue::Histogram(Box::new(h));
            }
        }
        self
    }

    /// Merges an externally maintained histogram under `name`.
    pub fn histogram(&mut self, name: &str, hist: &Histogram) -> &mut Self {
        match self.slot(name, || MetricValue::Histogram(Box::default())) {
            MetricValue::Histogram(h) => h.merge(hist),
            other => *other = MetricValue::Histogram(Box::new(hist.clone())),
        }
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

    /// The distinct instance labels recorded under one component, in
    /// sorted order — the monitor loop's roster of replicas to examine
    /// each epoch.
    pub fn instances(&self, component: &str) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for m in self.for_component(component) {
            if out.last() != Some(&m.key.instance.as_str()) {
                out.push(&m.key.instance);
            }
        }
        out
    }

    /// Every counter of one component instance as `(name, value)`
    /// pairs, in name order (the snapshot is key-sorted).
    pub fn counters_for<'a>(
        &'a self,
        component: &'a str,
        instance: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.for_instance(component, instance)
            .iter()
            .filter_map(|m| match &m.value {
                MetricValue::Counter(c) => Some((m.key.name.as_str(), *c)),
                _ => None,
            })
    }

    /// Per-counter growth for one component instance since `earlier`,
    /// as `(name, delta)` pairs in name order. Counters absent from
    /// `earlier` (born this epoch) report their full current value;
    /// shrunken counters saturate to zero like
    /// [`counter_delta`](Self::counter_delta).
    pub fn counter_deltas_for<'s>(
        &'s self,
        earlier: &MetricsSnapshot,
        component: &str,
        instance: &str,
    ) -> Vec<(&'s str, u64)> {
        let before = earlier.for_instance(component, instance);
        self.for_instance(component, instance)
            .iter()
            .filter_map(|m| match &m.value {
                MetricValue::Counter(now) => {
                    let then = match find(before, &m.key.name) {
                        Some(MetricValue::Counter(c)) => *c,
                        _ => 0,
                    };
                    Some((m.key.name.as_str(), now.saturating_sub(then)))
                }
                _ => None,
            })
            .collect()
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
                    out.push_str(",\"value\":");
                    json::write_num(&mut out, *c as f64);
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

    /// Parses the output of [`Self::to_json_lines`]. A histogram whose
    /// buckets repeat an index, or do not add up to its count, is
    /// rejected.
    pub fn from_json_lines(input: &str) -> Result<Self, crate::JsonError> {
        let mut labels = BTreeSet::new();
        let mut metrics = Vec::new();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line)?;
            let bad = |message: &str| crate::JsonError {
                message: message.to_string(),
                offset: 0,
            };
            let (component, instance, name) = v
                .get("key")
                .and_then(JsonValue::as_str)
                .and_then(split_path)
                .ok_or_else(|| bad("missing or malformed key"))?;
            let key = MetricKey {
                component: intern(&mut labels, component),
                instance: intern(&mut labels, instance),
                name: intern(&mut labels, name),
            };
            let value = match v.get("type").and_then(JsonValue::as_str) {
                Some("counter") => MetricValue::Counter(
                    v.get("value")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| bad("counter needs an integer value"))?,
                ),
                Some("gauge") => MetricValue::Gauge(
                    v.get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| bad("gauge needs a numeric value"))?,
                ),
                Some("histogram") => {
                    let count = v
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| bad("histogram needs a count"))?;
                    let sum = v
                        .get("sum")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| bad("histogram needs a sum"))?;
                    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                    let mut seen = 0u128;
                    let mut total = 0u64;
                    for pair in v
                        .get("buckets")
                        .and_then(JsonValue::items)
                        .ok_or_else(|| bad("histogram needs buckets"))?
                    {
                        let (i, c) = match pair.items() {
                            Some([i, c]) => (
                                i.as_u64().ok_or_else(|| bad("bad bucket index"))?,
                                c.as_u64().ok_or_else(|| bad("bad bucket count"))?,
                            ),
                            _ => return Err(bad("bucket must be [index, count]")),
                        };
                        if i as usize >= HISTOGRAM_BUCKETS {
                            return Err(bad("bucket index out of range"));
                        }
                        if seen & (1 << i) != 0 {
                            return Err(bad("bucket index repeated"));
                        }
                        seen |= 1 << i;
                        buckets[i as usize] = c;
                        total = total
                            .checked_add(c)
                            .ok_or_else(|| bad("bucket counts overflow"))?;
                    }
                    if total != count {
                        return Err(bad("bucket counts do not sum to the count"));
                    }
                    let len = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
                    MetricValue::Histogram(Box::new(Histogram {
                        count,
                        sum,
                        buckets: buckets[..len].into(),
                    }))
                }
                _ => return Err(bad("unknown metric type")),
            };
            metrics.push(Metric { key, value });
        }
        metrics.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(MetricsSnapshot { metrics })
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
        assert!((h.mean() - 1107.0 / 6.0).abs() < 1e-9);
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
        assert_eq!(h.buckets.len(), HISTOGRAM_BUCKETS);
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
    fn delta_iteration_helpers() {
        let snap = |played: u64, missed: u64| {
            let mut r = Registry::new();
            r.set_instance("es0");
            {
                let mut s = r.component("speaker");
                s.counter("samples_played", played);
                s.counter("deadline_misses", missed);
                s.gauge("sync_offset_us", 12.0);
            }
            r.set_instance("es1");
            r.component("speaker").counter("samples_played", 5);
            r.set_instance("lan0");
            r.component("net").counter("frames_sent", 9);
            r.snapshot()
        };
        let (early, late) = (snap(100, 2), snap(180, 3));
        assert_eq!(late.instances("speaker"), vec!["es0", "es1"]);
        assert_eq!(late.instances("net"), vec!["lan0"]);
        assert!(late.instances("heal").is_empty());
        // Gauges are excluded from counter iteration.
        let counters: Vec<_> = late.counters_for("speaker", "es0").collect();
        assert_eq!(
            counters,
            vec![("deadline_misses", 3u64), ("samples_played", 180)]
        );
        assert_eq!(
            late.counter_deltas_for(&early, "speaker", "es0"),
            vec![("deadline_misses", 1u64), ("samples_played", 80)]
        );
        // A counter born after `earlier` reports its full value.
        assert_eq!(
            late.counter_deltas_for(&MetricsSnapshot::default(), "speaker", "es1"),
            vec![("samples_played", 5u64)]
        );
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
        assert_eq!(snap.instances("ne"), vec!["a", "a0", "ab", "b"]);
    }

    #[test]
    fn snapshot_json_lines_roundtrip() {
        let mut r = Registry::new();
        r.set_instance("lan0");
        {
            let mut s = r.component("net");
            s.counter("frames_delivered", 123);
            s.gauge("utilization", 0.375);
            for v in [0u64, 9, 17, 300_000] {
                s.observe("queue_delay_us", v);
            }
        }
        let snap = r.snapshot();
        let lines = snap.to_json_lines();
        assert_eq!(lines.lines().count(), 3);
        let back = MetricsSnapshot::from_json_lines(&lines).unwrap();
        assert_eq!(back, snap);
        // And a second generation survives too (stable format).
        assert_eq!(back.to_json_lines(), lines);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(MetricsSnapshot::from_json_lines("{\"key\":\"x\"}").is_err());
        assert!(MetricsSnapshot::from_json_lines("not json").is_err());
        let ok = MetricsSnapshot::from_json_lines("").unwrap();
        assert!(ok.is_empty());
    }

    fn histogram_line(count: u64, buckets: &str) -> String {
        format!(
            "{{\"key\":\"net/lan0/queue_delay_us\",\"type\":\"histogram\",\
             \"count\":{count},\"sum\":20,\"buckets\":[{buckets}]}}"
        )
    }

    #[test]
    fn a_repeated_bucket_index_is_rejected() {
        let ok = MetricsSnapshot::from_json_lines(&histogram_line(3, "[2,1],[4,2]")).unwrap();
        let Some(MetricValue::Histogram(h)) = ok.iter().next().map(|m| &m.value) else {
            panic!("no histogram in {ok:?}");
        };
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), [(2, 1), (4, 2)]);
        // The second `[4, _]` used to overwrite the first silently.
        let err = MetricsSnapshot::from_json_lines(&histogram_line(3, "[4,1],[4,2]")).unwrap_err();
        assert!(err.message.contains("repeated"), "{err:?}");
    }

    #[test]
    fn bucket_counts_that_miss_the_count_are_rejected() {
        // This used to parse, and `quantile(1.0)` then read `u64::MAX`.
        for count in [1, 5] {
            let err = MetricsSnapshot::from_json_lines(&histogram_line(count, "[2,1],[4,2]"))
                .unwrap_err();
            assert!(err.message.contains("sum"), "{err:?}");
        }
        let err =
            MetricsSnapshot::from_json_lines(&histogram_line(0, "[1,18446744073709551615],[2,1]"))
                .unwrap_err();
        assert!(err.message.contains("overflow"), "{err:?}");
    }
}
