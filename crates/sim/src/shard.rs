//! Engine sharding: configuration, the deterministic cross-shard
//! channel, and per-segment accounting.
//!
//! The sharded [`Sim`](crate::Sim) partitions its event queue into N
//! physical shards, keyed by each event's logical *segment* (a fixed
//! topology label, e.g. "the speakers behind relay 2"). Segments map
//! onto shards by `segment % num_shards`, so the same scenario can run
//! at any shard count. Determinism is by construction: a single global
//! sequence counter totally orders simultaneous events across shards,
//! and the engine always executes the globally smallest `(time, seq)`
//! key — `ES_SIM_SHARDS=1` and `=4` therefore produce bit-identical
//! telemetry fingerprints.
//!
//! Cross-shard traffic must flow through [`ShardRouter`], the
//! deterministic channel facade. Scheduling into a foreign segment
//! with `Sim::schedule_at_segment` directly is flagged by the
//! `shard-channel` es-analyze rule outside this crate; the router is
//! the sanctioned API, and it maintains the conservative-lookahead
//! horizon the engine's burst fast-path relies on.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::engine::{EventId, Sim};
use crate::time::SimTime;

/// `set_shards` override; 0 = unset (fall back to env / default 1).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The effective shard count for newly created simulators: a
/// [`set_shards`] override wins, then the `ES_SIM_SHARDS` environment
/// variable, then 1 (the classic single-queue engine).
pub fn shards() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    if let Ok(v) = std::env::var("ES_SIM_SHARDS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    1
}

/// Pins the shard count for simulators created after this call,
/// overriding the environment. `set_shards(0)` clears the override.
/// Sharding only changes how the event queue is partitioned — every
/// fingerprint and metric is identical at any shard count.
pub fn set_shards(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Per-segment busy time collected while
/// [`Sim::enable_shard_timing`](crate::Sim::enable_shard_timing) is on
/// (the segments bench uses it; the simulation itself never reads
/// clocks).
///
/// Keyed by *logical segment*, not physical shard, so one single-shard
/// measurement can project the cost of running the same scenario at
/// any shard count: [`span_ns`](Self::span_ns) folds segments onto
/// `n` shards with the engine's own `segment % n` rule and returns the
/// busiest shard's total (the critical path). Collect on a one-shard
/// run — an oversubscribed host preempts nothing there, so the
/// per-segment times are the only trustworthy source.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Busy nanoseconds per logical segment.
    pub busy_ns: BTreeMap<u32, u64>,
}

impl ShardTiming {
    /// Adds `ns` of handler execution to `segment`'s busy time.
    pub fn record(&mut self, segment: u32, ns: u64) {
        *self.busy_ns.entry(segment).or_insert(0) += ns;
    }

    /// Total busy time across all segments (the serial work).
    pub fn work_ns(&self) -> u64 {
        self.busy_ns.values().sum()
    }

    /// The critical-path busy time when segments are folded onto
    /// `shards` shards by the engine's `segment % shards` rule: the
    /// busiest shard's total. `work_ns == span_ns(1)`.
    pub fn span_ns(&self, shards: usize) -> u64 {
        let shards = shards.max(1);
        let mut lanes = vec![0u64; shards];
        for (&seg, &ns) in &self.busy_ns {
            lanes[seg as usize % shards] += ns;
        }
        lanes.into_iter().max().unwrap_or(0)
    }
}

/// The deterministic cross-shard channel.
///
/// A router is a cheap cloneable handle; components that deliver work
/// into other segments (the LAN fabric, segment relays) hold one and
/// call [`post`](Self::post) instead of scheduling directly. Posts
/// into the executing event's own segment are plain local schedules;
/// posts into a foreign segment are counted and handed to the engine's
/// cross-shard path, which lowers the conservative-lookahead horizon
/// so the receiving shard never runs past an undelivered message.
///
/// Delivery order is the engine's global `(time, seq)` order, so the
/// observable execution sequence is independent of the shard count.
#[derive(Clone, Default)]
pub struct ShardRouter {
    cross_posts: Rc<Cell<u64>>,
}

impl ShardRouter {
    /// Creates a router with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `f` at `at` in `segment`, which may differ from the
    /// executing event's segment. Returns the event's cancel handle.
    pub fn post(
        &self,
        sim: &mut Sim,
        segment: u32,
        at: SimTime,
        f: impl FnOnce(&mut Sim) + 'static,
    ) -> EventId {
        if segment != sim.current_segment() {
            self.cross_posts.set(self.cross_posts.get() + 1);
        }
        sim.schedule_at_segment(segment, at, f)
    }

    /// Number of posts that crossed a segment boundary. Segments are
    /// topology, not partitioning, so this count is identical at any
    /// shard count.
    pub fn cross_posts(&self) -> u64 {
        self.cross_posts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn shard_timing_folds_segments_onto_shards() {
        let mut t = ShardTiming::default();
        t.record(0, 100);
        t.record(1, 50);
        t.record(2, 30);
        t.record(5, 20); // 5 % 4 == 1
        assert_eq!(t.work_ns(), 200);
        assert_eq!(t.span_ns(1), 200);
        // 4 shards: lane0=100, lane1=50+20, lane2=30.
        assert_eq!(t.span_ns(4), 100);
        // 2 shards: lane0=100+30, lane1=50+20.
        assert_eq!(t.span_ns(2), 130);
        assert_eq!(ShardTiming::default().span_ns(3), 0);
    }

    #[test]
    fn router_counts_only_cross_segment_posts() {
        let mut sim = Sim::with_shards(1, 4);
        let router = ShardRouter::new();
        let r2 = router.clone();
        router.post(&mut sim, 2, SimTime::from_millis(1), move |sim| {
            // Executing in segment 2: a same-segment post is local.
            r2.post(sim, 2, SimTime::from_millis(2), |_| {});
            r2.post(sim, 0, SimTime::from_millis(2), |_| {});
        });
        sim.run();
        // The t=0 post crossed (current segment 0 -> 2), the inner
        // same-segment post did not, the inner post back to 0 did.
        assert_eq!(router.cross_posts(), 2);
    }

    #[test]
    fn set_shards_overrides_new_sims() {
        set_shards(3);
        let mut sim = Sim::new(1);
        assert_eq!(sim.num_shards(), 3);
        set_shards(0);
        // Sharding is invisible to event semantics: a quick sanity run.
        let fired = crate::shared(0u32);
        let f = fired.clone();
        sim.schedule_in(SimDuration::from_millis(1), move |_| *f.borrow_mut() += 1);
        sim.run();
        assert_eq!(*fired.borrow(), 1);
    }
}
