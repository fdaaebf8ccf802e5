//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a virtual clock and a priority queue of events. An
//! event is a boxed `FnOnce(&mut Sim)`; components hold their state in
//! `Rc<RefCell<...>>` cells, capture clones in the closures they
//! schedule, and re-schedule themselves from inside the handler. The
//! engine is single-threaded and deterministic: events at the same
//! instant fire in scheduling order (FIFO ties), and all randomness
//! flows from one seeded RNG.
//!
//! # Segments
//!
//! Every event carries a logical *segment* label — a topology tag such
//! as "the speakers behind relay 2" — inherited from the event that
//! scheduled it, or set explicitly by a
//! [`ShardRouter`](crate::shard::ShardRouter) post. The label never
//! influences execution order: there is one queue, popped in
//! `(time, seq)` order, where `seq` is the scheduling counter.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{SimDuration, SimTime};

type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Queued {
    at: SimTime,
    seq: u64,
    segment: u32,
    f: EventFn,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulator: virtual clock, event queue, seeded RNG.
///
/// # Examples
///
/// ```
/// use es_sim::{Sim, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(42);
/// let fired = Rc::new(Cell::new(false));
/// let f = fired.clone();
/// sim.schedule_in(SimDuration::from_millis(10), move |_sim| f.set(true));
/// sim.run();
/// assert!(fired.get());
/// assert_eq!(sim.now(), SimTime::from_millis(10));
/// ```
pub struct Sim {
    now: SimTime,
    queue: BinaryHeap<Queued>,
    /// Scheduling counter: total order for same-instant events.
    next_seq: u64,
    rng: StdRng,
    seed: u64,
    processed: u64,
    /// Segment of the event currently executing (0 outside handlers);
    /// plain `schedule_at` inherits it.
    current_segment: u32,
}

impl Sim {
    /// Creates a simulator at time zero with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            rng: StdRng::seed_from_u64(seed),
            seed,
            processed: 0,
            current_segment: 0,
        }
    }

    // Shim owed to the next `benchmark` PR: the frozen `benches/ledger`
    // still builds its probe sims with a shard count. There is one
    // queue; the count is ignored.
    #[doc(hidden)]
    pub fn with_shards(seed: u64, _shards: usize) -> Self {
        Self::new(seed)
    }

    // Shim owed to the next `benchmark` PR: the frozen `benches/ledger`
    // reports `sim.merge_scans`. One queue has no heads to merge.
    #[doc(hidden)]
    pub fn merge_scans(&self) -> u64 {
        0
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seed this simulator was created with. Components that keep
    /// their own derived RNG streams (e.g. per-node network
    /// impairments) mix this with a stable component index so their
    /// draws are independent of global event interleaving.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seeded RNG; all simulated randomness must come from here.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events scheduled and not yet fired.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// The segment of the currently executing event (0 outside event
    /// handlers). Plain [`Sim::schedule_at`] inherits this label.
    pub fn current_segment(&self) -> u32 {
        self.current_segment
    }

    /// Schedules `f` to run at absolute time `at`, in the segment of
    /// the currently executing event.
    ///
    /// Scheduling in the past is clamped to "now" (the event fires
    /// before the clock advances further), which keeps handlers that
    /// compute deadlines from stale state safe.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at_segment(self.current_segment, at, f)
    }

    /// Schedules `f` at absolute time `at` under an explicit segment
    /// label. Crate-private: everything outside `es-sim` posts through
    /// [`ShardRouter`](crate::shard::ShardRouter), which keeps the
    /// cross-segment accounting in one place.
    pub(crate) fn schedule_at_segment(
        &mut self,
        segment: u32,
        at: SimTime,
        f: impl FnOnce(&mut Sim) + 'static,
    ) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued {
            at,
            seq,
            segment,
            f: Box::new(f),
        });
    }

    /// Schedules `f` to run after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now.saturating_add(delay), f)
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.current_segment = ev.segment;
        self.processed += 1;
        (ev.f)(self);
        true
    }

    /// Runs events until the queue is empty. Returns the number of
    /// events processed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.processed;
        while self.step() {}
        self.processed - before
    }

    /// Runs events with timestamps `<= t`, then advances the clock to
    /// exactly `t` (even if the queue empties earlier). Returns the
    /// number of events processed by this call.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let before = self.processed;
        while self.queue.peek().is_some_and(|head| head.at <= t) {
            self.step();
        }
        if t > self.now && t != SimTime::MAX {
            self.now = t;
        }
        self.processed - before
    }

    /// Runs for a span of virtual time from "now".
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let t = self.now.saturating_add(d);
        self.run_until(t)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.events_pending())
            .field("processed", &self.processed)
            .finish()
    }
}

/// A shared mutable cell for simulation components.
///
/// Components live in `Rc<RefCell<...>>` so that event closures can
/// capture cheap clones. This alias plus [`shared`] keeps signatures
/// readable across the workspace.
pub type Shared<T> = Rc<RefCell<T>>;

/// Wraps a value in a [`Shared`] cell.
pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}

/// A cancellable repeating timer.
///
/// Fires `f(&mut Sim)` every `period`, starting one period from the
/// moment [`RepeatingTimer::start`] is called (or at a given phase).
/// Dropping the handle does not stop the timer; call
/// [`RepeatingTimer::stop`].
pub struct RepeatingTimer {
    inner: Shared<TimerInner>,
}

struct TimerInner {
    period: SimDuration,
    active: bool,
    fires: u64,
}

impl RepeatingTimer {
    /// Creates and starts a timer that first fires after `period`.
    pub fn start(sim: &mut Sim, period: SimDuration, f: impl FnMut(&mut Sim) + 'static) -> Self {
        Self::start_with_phase(sim, period, period, f)
    }

    /// Creates and starts a timer whose first firing is after `phase`
    /// and which then repeats every `period`.
    pub fn start_with_phase(
        sim: &mut Sim,
        period: SimDuration,
        phase: SimDuration,
        f: impl FnMut(&mut Sim) + 'static,
    ) -> Self {
        assert!(!period.is_zero(), "a zero-period timer would livelock");
        let inner = shared(TimerInner {
            period,
            active: true,
            fires: 0,
        });
        let f = shared(f);
        schedule_tick(sim, phase, inner.clone(), f);
        RepeatingTimer { inner }
    }

    /// Stops the timer; the pending tick becomes a no-op.
    pub fn stop(&self) {
        self.inner.borrow_mut().active = false;
    }

    /// True if the timer is still running.
    pub fn is_active(&self) -> bool {
        self.inner.borrow().active
    }

    /// Number of times the timer has fired.
    pub fn fire_count(&self) -> u64 {
        self.inner.borrow().fires
    }
}

fn schedule_tick(
    sim: &mut Sim,
    delay: SimDuration,
    inner: Shared<TimerInner>,
    f: Shared<impl FnMut(&mut Sim) + 'static>,
) {
    sim.schedule_in(delay, move |sim| {
        let period = {
            let mut t = inner.borrow_mut();
            if !t.active {
                return;
            }
            t.fires += 1;
            t.period
        };
        (f.borrow_mut())(sim);
        // The callback may have stopped the timer; re-check before
        // re-arming.
        if inner.borrow().active {
            schedule_tick(sim, period, inner, f);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardRouter;
    use std::cell::Cell;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        let order = shared(Vec::new());
        for (label, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_millis(ms), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_instant_ties_fire_fifo() {
        let mut sim = Sim::new(1);
        let order = shared(Vec::new());
        for label in 0..5 {
            let order = order.clone();
            sim.schedule_at(SimTime::from_millis(5), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Sim::new(1);
        let fired_at = Rc::new(Cell::new(SimTime::ZERO));
        let fa = fired_at.clone();
        // From a handler at t=10ms, schedule "at 1ms": must clamp to now.
        sim.schedule_in(SimDuration::from_millis(10), move |sim| {
            let fa = fa.clone();
            sim.schedule_at(SimTime::from_millis(1), move |sim| {
                fa.set(sim.now());
            });
        });
        sim.run();
        assert_eq!(fired_at.get(), SimTime::from_millis(10));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::new(1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // And does not run later events.
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        sim.schedule_in(SimDuration::from_secs(10), move |_| f.set(true));
        sim.run_until(SimTime::from_secs(7));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_secs(7));
        sim.run_for(SimDuration::from_secs(10));
        assert!(fired.get());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(1);
        let count = Rc::new(Cell::new(0u32));
        fn chain(sim: &mut Sim, count: Rc<Cell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            sim.schedule_in(SimDuration::from_millis(1), move |sim| {
                count.set(count.get() + 1);
                chain(sim, count.clone(), left - 1);
            });
        }
        chain(&mut sim, count.clone(), 100);
        sim.run();
        assert_eq!(count.get(), 100);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn repeating_timer_fires_on_period_and_stops() {
        let mut sim = Sim::new(1);
        let ticks = shared(Vec::new());
        let t = ticks.clone();
        let timer = RepeatingTimer::start(&mut sim, SimDuration::from_millis(100), move |sim| {
            t.borrow_mut().push(sim.now().as_millis());
        });
        sim.run_until(SimTime::from_millis(450));
        assert_eq!(*ticks.borrow(), vec![100, 200, 300, 400]);
        assert_eq!(timer.fire_count(), 4);
        timer.stop();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(timer.fire_count(), 4, "no ticks after stop");
    }

    #[test]
    fn timer_phase_offsets_first_fire() {
        let mut sim = Sim::new(1);
        let ticks = shared(Vec::new());
        let t = ticks.clone();
        let _timer = RepeatingTimer::start_with_phase(
            &mut sim,
            SimDuration::from_millis(100),
            SimDuration::from_millis(30),
            move |sim| t.borrow_mut().push(sim.now().as_millis()),
        );
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(*ticks.borrow(), vec![30, 130, 230]);
    }

    #[test]
    fn determinism_same_seed_same_rng_stream() {
        use rand::Rng;
        let mut a = Sim::new(7);
        let mut b = Sim::new(7);
        let xs: Vec<u32> = (0..16).map(|_| a.rng().gen()).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.rng().gen()).collect();
        assert_eq!(xs, ys);
    }

    /// One event of a random schedule program: fires at absolute time
    /// `at` (often in its parent's past), labelled with the parent's
    /// segment (`None`: plain `schedule_at`) or posted into an explicit
    /// one through the router, and schedules `children` when it fires.
    struct Node {
        at: SimTime,
        segment: Option<u32>,
        children: Vec<usize>,
    }

    /// `(node, fired at, current_segment() inside the handler)`.
    type Fired = (usize, SimTime, u32);

    fn spawn(
        sim: &mut Sim,
        router: &ShardRouter,
        prog: &Rc<Vec<Node>>,
        log: &Shared<Vec<Fired>>,
        i: usize,
    ) {
        let (r, p, l) = (router.clone(), prog.clone(), log.clone());
        let fire = move |sim: &mut Sim| {
            l.borrow_mut().push((i, sim.now(), sim.current_segment()));
            for &c in &p[i].children {
                spawn(sim, &r, &p, &l, c);
            }
        };
        match prog[i].segment {
            Some(segment) => router.post(sim, segment, prog[i].at, fire),
            None => sim.schedule_at(prog[i].at, fire),
        }
    }

    /// The engine's contract, executed naively: keep every pending
    /// event in a list and always fire the smallest `(time, seq)`.
    /// Returns the firing log and the cross-segment post count.
    fn oracle(prog: &[Node], roots: &[usize]) -> (Vec<Fired>, u64) {
        let mut pending: Vec<(SimTime, u64, u32, usize)> = Vec::new();
        let (mut now, mut current, mut seq, mut cross) = (SimTime::ZERO, 0u32, 0u64, 0u64);
        let mut log = Vec::new();
        let mut batch = roots.to_vec();
        loop {
            for &i in &batch {
                let segment = prog[i].segment.unwrap_or(current);
                cross += u64::from(segment != current);
                pending.push((prog[i].at.max(now), seq, segment, i));
                seq += 1;
            }
            pending.sort_unstable();
            if pending.is_empty() {
                return (log, cross);
            }
            let (at, _, segment, i) = pending.remove(0);
            (now, current) = (at, segment);
            log.push((i, at, segment));
            batch = prog[i].children.clone();
        }
    }

    proptest::proptest! {
        /// Random programs — nested scheduling from handlers, times
        /// drawn from a 12 ms window so same-instant ties and
        /// past-clamped children are the common case, router posts
        /// into foreign segments — fire in exactly the oracle's order,
        /// and `current_segment()` is the inherited or posted label.
        #[test]
        fn firing_order_matches_sort_by_time_seq_oracle(
            spec in proptest::collection::vec((0usize..1000, 0u64..12, 0u32..5), 1..80),
        ) {
            let mut prog: Vec<Node> = Vec::new();
            let mut roots = Vec::new();
            for (i, &(pick, at_ms, seg)) in spec.iter().enumerate() {
                prog.push(Node {
                    at: SimTime::from_millis(at_ms),
                    segment: seg.checked_sub(1),
                    children: Vec::new(),
                });
                match pick % (i + 1) {
                    parent if parent < i => prog[parent].children.push(i),
                    _ => roots.push(i),
                }
            }
            let (expected, expected_cross) = oracle(&prog, &roots);
            proptest::prop_assert_eq!(expected.len(), prog.len());

            let mut sim = Sim::new(1);
            let router = ShardRouter::new();
            let prog = Rc::new(prog);
            let log = shared(Vec::new());
            for &i in &roots {
                spawn(&mut sim, &router, &prog, &log, i);
            }
            proptest::prop_assert_eq!(sim.events_pending(), roots.len());
            sim.run();
            proptest::prop_assert_eq!(&*log.borrow(), &expected);
            proptest::prop_assert_eq!(router.cross_posts(), expected_cross);
            proptest::prop_assert_eq!(sim.events_pending(), 0);
        }
    }
}
