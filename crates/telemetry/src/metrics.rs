//! The metrics registry: counters, gauges, log-scale histograms.
//!
//! Every metric is keyed `component/instance/name` — the component is
//! fixed by the code that owns the number (`"net"`, `"speaker"`, …),
//! the instance distinguishes replicas (which speaker, which link) and
//! is chosen by whoever walks the system, and the name is the quantity.
//! Snapshots export as JSON lines, one metric per line, and parse back
//! for round-trip tests and offline analysis.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, JsonValue};

/// Number of histogram buckets. Bucket `i > 0` holds values whose
/// base-2 magnitude is `i` (upper bound `2^i - 1`); bucket 0 holds
/// exact zeros. 64 buckets cover the full `u64` domain.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed log-scale (power-of-two bucket) histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
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
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (i, c) in other.nonzero_buckets() {
            self.buckets[i] += c;
        }
    }
}

/// The full identity of a metric: `component/instance/name`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// The subsystem that owns the number (`"net"`, `"speaker"`, …).
    pub component: String,
    /// Which replica of the component (speaker name, link id, …).
    pub instance: String,
    /// The quantity itself (`"samples_played"`, …).
    pub name: String,
}

impl MetricKey {
    /// Builds a key from its three parts.
    pub fn new(component: &str, instance: &str, name: &str) -> Self {
        MetricKey {
            component: component.to_string(),
            instance: instance.to_string(),
            name: name.to_string(),
        }
    }

    /// Parses `component/instance/name` (the name may itself contain
    /// slashes).
    pub fn from_path(path: &str) -> Option<Self> {
        let mut it = path.splitn(3, '/');
        Some(MetricKey::new(it.next()?, it.next()?, it.next()?))
    }
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
    /// A log-scale distribution of samples.
    Histogram(Histogram),
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
    instance: String,
    metrics: BTreeMap<MetricKey, MetricValue>,
}

impl Registry {
    /// An empty registry with the default instance label `"0"`.
    pub fn new() -> Self {
        Registry {
            instance: "0".to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Sets the instance label applied to subsequently recorded
    /// metrics. The caller that walks the system knows which replica
    /// it is visiting; the component code does not.
    pub fn set_instance(&mut self, instance: &str) {
        self.instance = instance.to_string();
    }

    /// Opens a recording scope for one component under the current
    /// instance label.
    pub fn component<'a>(&'a mut self, component: &str) -> Scope<'a> {
        Scope {
            registry: self,
            component: component.to_string(),
        }
    }

    fn key(&self, component: &str, name: &str) -> MetricKey {
        MetricKey::new(component, &self.instance, name)
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Freezes the current contents into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .iter()
                .map(|(k, v)| Metric {
                    key: k.clone(),
                    value: v.clone(),
                })
                .collect(),
        }
    }
}

/// A recording scope: one component, one instance.
pub struct Scope<'a> {
    registry: &'a mut Registry,
    component: String,
}

impl Scope<'_> {
    /// Adds to a counter (creating it at zero).
    pub fn counter(&mut self, name: &str, delta: u64) -> &mut Self {
        let key = self.registry.key(&self.component, name);
        match self
            .registry
            .metrics
            .entry(key)
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(c) => *c += delta,
            other => *other = MetricValue::Counter(delta),
        }
        self
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        let key = self.registry.key(&self.component, name);
        self.registry.metrics.insert(key, MetricValue::Gauge(value));
        self
    }

    /// Records one sample into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) -> &mut Self {
        let key = self.registry.key(&self.component, name);
        match self
            .registry
            .metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => {
                let mut h = Histogram::new();
                h.observe(value);
                *other = MetricValue::Histogram(h);
            }
        }
        self
    }

    /// Merges an externally maintained histogram under `name`.
    pub fn histogram(&mut self, name: &str, hist: &Histogram) -> &mut Self {
        let key = self.registry.key(&self.component, name);
        match self
            .registry
            .metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            MetricValue::Histogram(h) => h.merge(hist),
            other => *other = MetricValue::Histogram(hist.clone()),
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

    /// Looks up a metric by `component/instance/name` path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        let key = MetricKey::from_path(path)?;
        self.metrics
            .binary_search_by(|m| m.key.cmp(&key))
            .ok()
            .map(|i| &self.metrics[i].value)
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
        self.metrics
            .iter()
            .filter(|m| m.key.component == component && m.key.name == name)
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
        for m in &self.metrics {
            if m.key.component == component && out.last() != Some(&m.key.instance.as_str()) {
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
        self.metrics.iter().filter_map(move |m| {
            if m.key.component != component || m.key.instance != instance {
                return None;
            }
            match &m.value {
                MetricValue::Counter(c) => Some((m.key.name.as_str(), *c)),
                _ => None,
            }
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
        self.metrics
            .iter()
            .filter(|m| m.key.component == component && m.key.instance == instance)
            .filter_map(|m| match &m.value {
                MetricValue::Counter(now) => {
                    let before = earlier
                        .counter(&format!("{component}/{instance}/{}", m.key.name))
                        .unwrap_or(0);
                    Some((m.key.name.as_str(), now.saturating_sub(before)))
                }
                _ => None,
            })
            .collect()
    }

    /// Serializes to JSON lines, one metric per line, sorted by key.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str("{\"key\":");
            json::write_str(&mut out, &m.key.to_string());
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
                    out.push_str(&format!(",\"count\":{},\"sum\":{}", h.count(), h.sum()));
                    out.push_str(",\"buckets\":[");
                    for (n, (i, c)) in h.nonzero_buckets().enumerate() {
                        if n > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{i},{c}]"));
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parses the output of [`Self::to_json_lines`].
    pub fn from_json_lines(input: &str) -> Result<Self, crate::JsonError> {
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
            let key = v
                .get("key")
                .and_then(JsonValue::as_str)
                .and_then(MetricKey::from_path)
                .ok_or_else(|| bad("missing or malformed key"))?;
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
                    let mut h = Histogram::new();
                    h.count = v
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| bad("histogram needs a count"))?;
                    h.sum = v
                        .get("sum")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| bad("histogram needs a sum"))?;
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
                        h.buckets[i as usize] = c;
                    }
                    MetricValue::Histogram(h)
                }
                _ => return Err(bad("unknown metric type")),
            };
            metrics.push(Metric { key, value });
        }
        metrics.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(MetricsSnapshot { metrics })
    }
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
}
