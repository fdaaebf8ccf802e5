//! Segment routing: the one way to schedule work under another
//! segment's label.
//!
//! Every [`Sim`] event carries a logical *segment* — a fixed topology
//! label, e.g. "the speakers behind relay 2" — which handlers inherit
//! and which plays no part in execution order. Components that deliver
//! work into other segments (the LAN fabric, segment relays) hold a
//! [`ShardRouter`] and post through it, so the cross-segment traffic
//! of a topology is counted in one place.

use std::cell::Cell;
use std::rc::Rc;

use crate::engine::Sim;
use crate::time::SimTime;

/// The cross-segment channel.
///
/// A router is a cheap cloneable handle. Posts into the executing
/// event's own segment are plain local schedules; posts into a foreign
/// segment are counted. Delivery order is the engine's `(time, seq)`
/// order either way.
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
    /// executing event's segment.
    pub fn post(
        &self,
        sim: &mut Sim,
        segment: u32,
        at: SimTime,
        f: impl FnOnce(&mut Sim) + 'static,
    ) {
        if segment != sim.current_segment() {
            self.cross_posts.set(self.cross_posts.get() + 1);
        }
        sim.schedule_at_segment(segment, at, f)
    }

    /// Number of posts that crossed a segment boundary.
    pub fn cross_posts(&self) -> u64 {
        self.cross_posts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_counts_only_cross_segment_posts() {
        let mut sim = Sim::new(1);
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
}
