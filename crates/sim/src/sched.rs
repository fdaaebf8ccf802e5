//! A kernel-scheduler model with context-switch accounting.
//!
//! Figure 5 of the paper compares the context-switch rate of three
//! configurations on the same host: an unloaded machine (mean 4.2
//! switches per `vmstat` interval), the VAD with an in-kernel streaming
//! thread (mean 28.7), and the VAD with a user-level streaming
//! application (mean 37.2). The determining variable is *who wakes up
//! how often*: background daemons, the kernel thread standing in for
//! the missing audio-hardware interrupt (§3.3), and the user process
//! `read(2)`-ing the master device.
//!
//! This module models exactly that: tasks on a single CPU, FIFO
//! dispatch, and a counter that increments whenever the running task
//! changes (including switches to and from the idle loop, which is how
//! `vmstat` counts on OpenBSD). Per-interval samples come out as a
//! [`TimeSeries`] ready for the Figure 5 harness.

use std::collections::VecDeque;

use crate::engine::{shared, Shared, Sim};
use crate::random::exponential;
use crate::series::{BucketAccumulator, TimeSeries};
use crate::time::{SimDuration, SimTime};

/// Identifies a task registered with the scheduler model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// Which task the CPU is running; `None` is the idle loop.
type Running = Option<(TaskId, SimTime)>;

/// The scheduler model: a single CPU, FIFO run queue, and a
/// context-switch counter bucketed per sampling interval.
#[derive(Debug, Clone)]
pub struct KernelSched {
    tasks: usize,
    current: Option<TaskId>,
    running: Running,
    queue: VecDeque<(TaskId, SimDuration)>,
    switches: BucketAccumulator,
}

impl KernelSched {
    /// Creates a scheduler that samples switch counts into buckets of
    /// `interval` (the paper uses one-second `vmstat` intervals).
    pub fn new(interval: SimDuration) -> Self {
        KernelSched {
            tasks: 0,
            current: None,
            running: None,
            queue: VecDeque::new(),
            switches: BucketAccumulator::new("ctx-switches", interval),
        }
    }

    /// Registers a task and returns its id.
    pub fn register(&mut self) -> TaskId {
        self.tasks += 1;
        TaskId(self.tasks - 1)
    }

    fn switch_to(&mut self, at: SimTime, to: Option<TaskId>) {
        if self.current != to {
            self.switches.add(at, 1.0);
            self.current = to;
        }
    }

    /// Drains work that completed at or before `now`, performing the
    /// resulting dispatches and idle transitions.
    fn advance(&mut self, now: SimTime) {
        while let Some((_tid, ends)) = self.running {
            if ends > now {
                return;
            }
            match self.queue.pop_front() {
                Some((next, burst)) => {
                    self.switch_to(ends, Some(next));
                    self.running = Some((next, ends + burst));
                }
                None => {
                    // Return to the idle loop.
                    self.switch_to(ends, None);
                    self.running = None;
                }
            }
        }
    }

    /// Wakes `task` at `now` to run a CPU burst of `burst`.
    ///
    /// If the CPU is idle the task is dispatched immediately (one
    /// switch); otherwise it queues and is dispatched when the current
    /// work completes. A subsequent return to idle also counts as one
    /// switch, matching `vmstat` semantics.
    pub fn wakeup(&mut self, now: SimTime, task: TaskId, burst: SimDuration) {
        self.advance(now);
        match self.running {
            None => {
                self.switch_to(now, Some(task));
                self.running = Some((task, now + burst));
            }
            Some(_) => self.queue.push_back((task, burst)),
        }
    }

    /// Finishes the run at `until`: drains remaining work and returns
    /// the per-interval switch-count series — the Figure 5 y-axis.
    pub fn finish(mut self, until: SimTime) -> TimeSeries {
        self.advance(until);
        self.switches.finish(until)
    }
}

/// Wakes a task at Poisson (exponentially distributed) intervals — the
/// model for background daemons on the "unloaded machine".
///
/// Each wakeup runs a short burst; the source stops generating wakeups
/// after `until`.
pub fn poisson_source(
    sim: &mut Sim,
    sched: Shared<KernelSched>,
    task: TaskId,
    rate_per_sec: f64,
    burst: SimDuration,
    until: SimTime,
) {
    fn arm(
        sim: &mut Sim,
        sched: Shared<KernelSched>,
        task: TaskId,
        rate: f64,
        burst: SimDuration,
        until: SimTime,
    ) {
        let gap = SimDuration::from_secs_f64(exponential(sim.rng(), rate));
        let at = sim.now().saturating_add(gap);
        if at > until {
            return;
        }
        sim.schedule_at(at, move |sim| {
            sched.borrow_mut().wakeup(sim.now(), task, burst);
            arm(sim, sched, task, rate, burst, until);
        });
    }
    arm(sim, sched, task, rate_per_sec, burst, until);
}

/// Convenience: builds a `Shared<KernelSched>` sampling at `interval`.
pub fn shared_sched(interval: SimDuration) -> Shared<KernelSched> {
    shared(KernelSched::new(interval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const US: fn(u64) -> SimDuration = SimDuration::from_micros;

    #[test]
    fn single_wakeup_costs_two_switches() {
        // idle -> task -> idle.
        let mut s = KernelSched::new(SimDuration::from_secs(1));
        let t = s.register();
        s.wakeup(SimTime::from_millis(100), t, US(50));
        let series = s.finish(SimTime::from_secs(1));
        assert_eq!(series.values().sum::<f64>(), 2.0);
    }

    #[test]
    fn back_to_back_same_task_does_not_switch_between_bursts() {
        let mut s = KernelSched::new(SimDuration::from_secs(1));
        let t = s.register();
        // Second wakeup arrives while the first burst still runs: it
        // queues, and dispatching the same task again is not a switch.
        s.wakeup(SimTime::from_millis(0), t, SimDuration::from_millis(10));
        s.wakeup(SimTime::from_millis(5), t, SimDuration::from_millis(10));
        let series = s.finish(SimTime::from_secs(1));
        // idle -> t, then the final t -> idle.
        assert_eq!(series.values().sum::<f64>(), 2.0);
    }

    #[test]
    fn two_tasks_queued_switch_between_them() {
        let mut s = KernelSched::new(SimDuration::from_secs(1));
        let a = s.register();
        let b = s.register();
        s.wakeup(SimTime::ZERO, a, SimDuration::from_millis(10));
        s.wakeup(SimTime::from_millis(1), b, SimDuration::from_millis(10));
        let series = s.finish(SimTime::from_secs(1));
        // idle->a, a->b, b->idle = 3.
        assert_eq!(series.values().sum::<f64>(), 3.0);
    }

    #[test]
    fn poisson_source_mean_rate_matches() {
        let mut sim = Sim::new(9);
        let sched = shared_sched(SimDuration::from_secs(1));
        let t = sched.borrow_mut().register();
        let until = SimTime::from_secs(300);
        // 2.1 wakeups/sec -> ~4.2 switches/sec: the paper's unloaded mean.
        poisson_source(&mut sim, sched.clone(), t, 2.1, US(40), until);
        sim.run_until(until);
        let sched = Rc::try_unwrap(sched).expect("sole owner");
        let series = RefCell::into_inner(sched).finish(until);
        let mean = series.mean().unwrap();
        assert!((mean - 4.2).abs() < 0.5, "mean {mean}");
    }
}
