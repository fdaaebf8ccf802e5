//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a virtual clock and a queue of events. An event is a
//! boxed `FnOnce(&mut Sim)`; components hold their state in
//! `Rc<RefCell<...>>` cells, capture clones in the closures they
//! schedule, and re-schedule themselves from inside the handler. The
//! engine is single-threaded and deterministic: events fire in
//! `(time, seq)` order, where `seq` is the scheduling counter — events
//! at the same instant fire in scheduling order (FIFO ties) — and all
//! randomness flows from one seeded RNG.
//!
//! # The queue holds runs, not events
//!
//! A multicast datagram reaches every speaker at one virtual instant
//! and carries one play deadline, so a synchronized fleet schedules
//! hundreds of events back to back for the same instant. The queue
//! stores such a *run* — the events scheduled consecutively for one
//! instant — as a FIFO of its own, and the priority heap holds one
//! entry per run, keyed by `(instant, seq of the run's first event)`.
//! Scheduling for the instant of the previous push appends to that run
//! without touching the heap; anything else opens a new run. Firing
//! pops the front of the head run and pops the heap only when the run
//! drains.
//!
//! Only the newest run is ever appended to. A run that has been
//! followed by a push for another instant is closed for good, so two
//! runs of one instant hold disjoint, ascending `seq` ranges and the
//! older one drains completely before the newer one starts: ordering
//! runs by `(instant, seq of first)` and events within a run by
//! arrival is exactly `(time, seq)` order. A workload whose events all
//! fall on instants of their own degenerates to one run per event,
//! i.e. the plain event heap.
//!
//! # Segments
//!
//! Every event carries a logical *segment* label — a topology tag such
//! as "the speakers behind relay 2" — inherited from the event that
//! scheduled it, or set explicitly by a
//! [`ShardRouter`](crate::shard::ShardRouter) post. The label never
//! influences execution order: there is one queue, popped in
//! `(time, seq)` order.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{SimDuration, SimTime};

type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// One scheduled event. Its instant is its run's; its `seq` is
/// implied by its place in the run.
struct Queued {
    segment: u32,
    f: EventFn,
}

/// The events scheduled back to back for one instant, as the heap sees
/// them; the events themselves sit FIFO in `Sim::slots[slot]`.
struct Run {
    at: SimTime,
    /// `seq` of the run's first event: orders runs of one instant.
    seq_of_first: u64,
    slot: usize,
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq_of_first == other.seq_of_first
    }
}
impl Eq for Run {}

impl PartialOrd for Run {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Run {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.at, other.seq_of_first).cmp(&(self.at, self.seq_of_first))
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
    /// One entry per run with events left, earliest first.
    runs: BinaryHeap<Run>,
    /// Event storage, indexed by `Run::slot`. A slot is either named by
    /// exactly one entry of `runs` (and then non-empty) or in `free`.
    slots: Vec<VecDeque<Queued>>,
    /// Slots no run holds, each empty with its capacity kept; the most
    /// recently drained one is handed out first.
    free: Vec<usize>,
    /// Instant and slot of the run the previous push went to, while
    /// that run is still queued: the only run that may be appended to.
    open: Option<(SimTime, usize)>,
    runs_opened: u64,
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
            runs: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            open: None,
            runs_opened: 0,
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

    /// Total number of runs opened so far: events scheduled for an
    /// instant other than the previous push's (or after that run
    /// drained). `events_processed() / runs_opened()` is how many
    /// events the queue handled per heap entry.
    pub fn runs_opened(&self) -> u64 {
        self.runs_opened
    }

    /// Number of events scheduled and not yet fired: every event takes
    /// a `seq` when scheduled and is counted when it fires.
    pub fn events_pending(&self) -> usize {
        (self.next_seq - self.processed) as usize
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
    // es-hot-path
    pub(crate) fn schedule_at_segment(
        &mut self,
        segment: u32,
        at: SimTime,
        f: impl FnOnce(&mut Sim) + 'static,
    ) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.open {
            Some((open_at, slot)) if open_at == at => slot,
            _ => {
                let slot = self.free.pop().unwrap_or_else(|| self.add_slot());
                self.runs.push(Run {
                    at,
                    seq_of_first: seq,
                    slot,
                });
                self.open = Some((at, slot));
                self.runs_opened += 1;
                slot
            }
        };
        self.slots[slot].push_back(Queued {
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
        let Some(head) = self.runs.peek() else {
            return false;
        };
        let (at, slot) = (head.at, head.slot);
        let events = &mut self.slots[slot];
        let ev = events.pop_front().expect("a queued run holds an event");
        if events.is_empty() {
            // Drained before the handler runs, so the queue is
            // consistent whatever the handler schedules.
            self.runs.pop();
            self.free.push(slot);
            if self.open == Some((at, slot)) {
                self.open = None;
            }
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.current_segment = ev.segment;
        self.processed += 1;
        (ev.f)(self);
        true
    }
    // es-hot-path-end

    /// A fresh event slot, for when every existing one holds a run;
    /// drained slots come back through `free` with their capacity.
    fn add_slot(&mut self) -> usize {
        self.slots.push(VecDeque::new());
        self.slots.len() - 1
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
        while self.runs.peek().is_some_and(|head| head.at <= t) {
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
    /// Returns the firing log, the cross-segment post count, and the
    /// number of pending events before the first event and after each.
    fn oracle(prog: &[Node], roots: &[usize]) -> (Vec<Fired>, u64, Vec<usize>) {
        let mut pending: Vec<(SimTime, u64, u32, usize)> = Vec::new();
        let (mut now, mut current, mut seq, mut cross) = (SimTime::ZERO, 0u32, 0u64, 0u64);
        let (mut log, mut pending_after) = (Vec::new(), Vec::new());
        let mut batch = roots.to_vec();
        loop {
            for &i in &batch {
                let segment = prog[i].segment.unwrap_or(current);
                cross += u64::from(segment != current);
                pending.push((prog[i].at.max(now), seq, segment, i));
                seq += 1;
            }
            pending_after.push(pending.len());
            pending.sort_unstable();
            if pending.is_empty() {
                return (log, cross, pending_after);
            }
            let (at, _, segment, i) = pending.remove(0);
            (now, current) = (at, segment);
            log.push((i, at, segment));
            batch = prog[i].children.clone();
        }
    }

    /// What `Sim`'s fields promise each other, checked from outside
    /// the hot path: every slot is either one queued run's non-empty
    /// FIFO or empty on the free list, `open` names a queued run, and
    /// the pending count is the number of stored events.
    fn assert_queue_consistent(sim: &Sim) {
        let mut owner = vec![None; sim.slots.len()];
        for run in &sim.runs {
            assert!(!sim.slots[run.slot].is_empty(), "an empty run is queued");
            assert!(
                owner[run.slot].replace(run.at).is_none(),
                "two queued runs share slot {}",
                run.slot
            );
        }
        for &slot in &sim.free {
            assert!(sim.slots[slot].is_empty(), "a free slot holds events");
            assert!(
                owner[slot].is_none(),
                "a queued run's slot is on the free list"
            );
        }
        assert_eq!(sim.runs.len() + sim.free.len(), sim.slots.len());
        if let Some((at, slot)) = sim.open {
            assert_eq!(owner[slot], Some(at), "`open` names no queued run");
        }
        let stored: usize = sim.slots.iter().map(VecDeque::len).sum();
        assert_eq!(sim.events_pending(), stored);
    }

    /// Schedules an event at `at` that logs `label` and then runs
    /// `then` (more scheduling, usually).
    fn log_at(
        sim: &mut Sim,
        log: &Shared<Vec<u32>>,
        at: SimTime,
        label: u32,
        then: impl FnOnce(&mut Sim) + 'static,
    ) {
        let log = log.clone();
        sim.schedule_at(at, move |sim| {
            log.borrow_mut().push(label);
            then(sim);
        });
    }

    /// Steps to completion, checking the queue's invariants and the
    /// pending count after every event.
    fn step_to_end(sim: &mut Sim) {
        assert_queue_consistent(sim);
        while sim.step() {
            assert_queue_consistent(sim);
        }
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn a_run_takes_appends_while_it_drains_and_none_after_it_drained() {
        // 300 events at X from outside; the first one, firing at X
        // while the run is still the newest, schedules 300 more for X:
        // they join the run being drained. The last of those fires when
        // the run has just drained, so what it schedules for X opens a
        // fresh run — and still fires.
        let mut sim = Sim::new(1);
        let log = shared(Vec::new());
        let x = SimTime::from_millis(5);
        for label in 0..300 {
            let l = log.clone();
            log_at(&mut sim, &log, x, label, move |sim| {
                if label != 0 {
                    return;
                }
                for label in 300..600 {
                    let l2 = l.clone();
                    log_at(sim, &l, x, label, move |sim| {
                        if label == 599 {
                            log_at(sim, &l2, x, 600, |_| {});
                        }
                    });
                }
            });
        }
        assert_eq!((sim.events_pending(), sim.runs_opened()), (300, 1));
        sim.step();
        assert_eq!(
            (sim.events_pending(), sim.runs_opened()),
            (599, 1),
            "events scheduled for now from inside a draining run join it"
        );
        step_to_end(&mut sim);
        assert_eq!(*log.borrow(), (0..=600).collect::<Vec<_>>());
        assert_eq!(sim.runs_opened(), 2, "a drained run is never reopened");
        assert_eq!(sim.now(), x);
    }

    #[test]
    fn a_second_run_for_an_instant_fires_after_the_first_and_only_it_grows() {
        // W, X, Y, X from outside: two runs for X, {1} and {3, 4}. W's
        // handler then schedules Y, X — by now the *older* X run is the
        // head of the queue, and the new X event (7) must still fire
        // after 3 and 4, not join the older run behind 1. (6 does join
        // 5: that run is the newest, and the newest of its instant.)
        let mut sim = Sim::new(1);
        let log = shared(Vec::new());
        let [w, x, y] = [1, 2, 3].map(SimTime::from_millis);
        let l = log.clone();
        log_at(&mut sim, &log, w, 0, move |sim| {
            log_at(sim, &l, y, 6, |_| {});
            log_at(sim, &l, x, 7, |_| {});
        });
        log_at(&mut sim, &log, x, 1, |_| {});
        log_at(&mut sim, &log, y, 2, |_| {});
        log_at(&mut sim, &log, x, 3, |_| {});
        log_at(&mut sim, &log, x, 4, |_| {});
        log_at(&mut sim, &log, y, 5, |_| {});
        assert_eq!(sim.runs_opened(), 5, "W, X, Y, X+X, Y");
        step_to_end(&mut sim);
        assert_eq!(*log.borrow(), vec![0, 1, 3, 4, 7, 2, 5, 6]);
        assert_eq!(sim.runs_opened(), 6);
    }

    #[test]
    fn drained_slots_are_reused_and_never_while_still_queued() {
        // 200 rounds, 1 ms apart; each round's first event schedules
        // the next round: a pair for the next instant, a pair two
        // instants out, and another pair for the next instant (a second
        // run of it). Up to six runs are queued at a time, each freed
        // slot is handed to a later run while its neighbours still hold
        // events, and storage stops growing after round one.
        fn round(sim: &mut Sim, log: &Shared<Vec<u32>>, n: u32) {
            let ms = |k: u32| SimTime::from_millis(u64::from(n + k));
            let l = log.clone();
            log_at(sim, log, ms(1), 6 * n, move |sim| {
                if n < 200 {
                    round(sim, &l, n + 1);
                }
            });
            log_at(sim, log, ms(1), 6 * n + 1, |_| {});
            log_at(sim, log, ms(2), 6 * n + 4, |_| {});
            log_at(sim, log, ms(2), 6 * n + 5, |_| {});
            log_at(sim, log, ms(1), 6 * n + 2, |_| {});
            log_at(sim, log, ms(1), 6 * n + 3, |_| {});
        }
        let mut sim = Sim::new(1);
        let log = shared(Vec::new());
        round(&mut sim, &log, 0);
        step_to_end(&mut sim);
        // Round n's late pair (6n+4, 6n+5) was scheduled before round
        // n+1 existed, so at their shared instant it fires first.
        let mut expected = vec![0, 1, 2, 3];
        for n in 1..=200 {
            expected.extend([6 * n - 2, 6 * n - 1, 6 * n, 6 * n + 1, 6 * n + 2, 6 * n + 3]);
        }
        expected.extend([6 * 200 + 4, 6 * 200 + 5]);
        assert_eq!(*log.borrow(), expected);
        assert_eq!(sim.runs_opened(), 3 * 201);
        assert_eq!(sim.slots.len(), 6, "one slot per concurrently queued run");
    }

    proptest::proptest! {
        /// Random programs — nested scheduling from handlers, times
        /// drawn from a 12 ms window (or "now") so same-instant ties,
        /// `X, Y, X` interleavings and past-clamped children are the
        /// common case, router posts into foreign segments, and now and
        /// then a burst of 300+ back-to-back events for one instant,
        /// from outside or from a handler, whose members schedule in
        /// turn — fire in exactly the oracle's order, with the
        /// oracle's pending count after every event, and
        /// `current_segment()` is the inherited or posted label.
        #[test]
        fn firing_order_matches_sort_by_time_seq_oracle(
            spec in proptest::collection::vec(
                ((0usize..1000, 0u64..16, 0u32..5), 0u32..32),
                1..80,
            ),
        ) {
            let mut prog: Vec<Node> = Vec::new();
            let mut roots = Vec::new();
            // Per spec entry: its nodes, `prog[first..first + len]`.
            let mut entries: Vec<(usize, usize)> = Vec::new();
            for (i, &((pick, at_code, seg), burst_code)) in spec.iter().enumerate() {
                let parent = match pick % (i + 1) {
                    e if e < i => {
                        // First, last, or some member of the entry.
                        let (first, len) = entries[e];
                        Some(first + [0, len - 1, pick % len][pick % 3])
                    }
                    _ => None,
                };
                let len = if burst_code == 0 { 300 + pick % 40 } else { 1 };
                entries.push((prog.len(), len));
                for node in prog.len()..prog.len() + len {
                    match parent {
                        Some(parent) => prog[parent].children.push(node),
                        None => roots.push(node),
                    }
                    prog.push(Node {
                        // 12..16: time zero, i.e. whatever "now" is
                        // when the parent fires.
                        at: SimTime::from_millis(if at_code < 12 { at_code } else { 0 }),
                        segment: seg.checked_sub(1),
                        children: Vec::new(),
                    });
                }
            }
            let (expected, expected_cross, expected_pending) = oracle(&prog, &roots);
            proptest::prop_assert_eq!(expected.len(), prog.len());

            let mut sim = Sim::new(1);
            let router = ShardRouter::new();
            let prog = Rc::new(prog);
            let log = shared(Vec::new());
            for &i in &roots {
                spawn(&mut sim, &router, &prog, &log, i);
            }
            let mut pending = vec![sim.events_pending()];
            assert_queue_consistent(&sim);
            while sim.step() {
                pending.push(sim.events_pending());
                assert_queue_consistent(&sim);
            }
            proptest::prop_assert_eq!(&*log.borrow(), &expected);
            proptest::prop_assert_eq!(pending, expected_pending);
            proptest::prop_assert_eq!(router.cross_posts(), expected_cross);
            proptest::prop_assert_eq!(sim.events_processed(), expected.len() as u64);
            proptest::prop_assert!(sim.runs_opened() <= sim.events_processed());
        }
    }
}
