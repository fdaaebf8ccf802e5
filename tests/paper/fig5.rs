//! Figure 5: "Comparison of context switch rate between a streaming
//! application contained with the VAD driver inside the kernel and a
//! user-level application. Data gathered by vmstat over a sixty second
//! period at one second intervals. Unloaded Machine - mean 4.2; Kernel
//! Threaded VAD - mean 28.716; VAD - mean 37.2."
//!
//! The reproduction drives the *real* VAD pipeline (wire-speed audio
//! application, kernel-thread drain, optional user-level reader) with
//! its wakeup hooks wired into the `es-sim` scheduler model, plus a
//! Poisson background-daemon load, and samples context switches per
//! second exactly like `vmstat`. See [`crate::calib`] for how the poll
//! periods were calibrated.

use std::rc::Rc;

use es_audio::AudioConfig;
use es_rebroadcast::{AppPacing, AudioApp};
use es_sim::sched::{poisson_source, shared_sched};
use es_sim::{Sim, SimDuration, SimTime, TimeSeries};
use es_vad::{vad_pair_with_geometry, VadMaster, VadMode};

use crate::calib;

/// The three configurations of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig5Config {
    /// No audio streaming at all.
    Unloaded,
    /// Streaming handled inside the kernel by the VAD's thread.
    KernelVad,
    /// A user-level process reads the master device and streams.
    UserVad,
}

impl Fig5Config {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Fig5Config::Unloaded => "Unloaded Machine",
            Fig5Config::KernelVad => "Kernel Threaded VAD",
            Fig5Config::UserVad => "VAD",
        }
    }
}

/// Result of one Figure 5 run.
#[derive(Debug)]
pub struct Fig5Run {
    /// Context switches per vmstat interval.
    pub series: TimeSeries,
    /// Mean over the measurement window.
    pub mean: f64,
}

/// Runs one configuration for `seconds` of virtual time.
pub fn run(config: Fig5Config, seconds: u64, seed: u64) -> Fig5Run {
    let mut sim = Sim::new(seed);
    let sched = shared_sched(calib::VMSTAT_INTERVAL);
    let until = SimTime::ZERO + calib::WARMUP + SimDuration::from_secs(seconds);

    // Background daemons — present in every configuration.
    let daemons = sched.borrow_mut().register();
    poisson_source(
        &mut sim,
        sched.clone(),
        daemons,
        calib::UNLOADED_DAEMON_RATE,
        calib::DAEMON_BURST,
        until,
    );

    if config != Fig5Config::Unloaded {
        let poll = calib::KTHREAD_POLL;
        // Ring must absorb one poll period of CD audio so the writer
        // blocks exactly once per drain cycle.
        let ring = (AudioConfig::CD.bytes_per_second() as usize * poll.as_millis() as usize
            / 1_000)
            .next_power_of_two()
            * 2;
        let (slave, master) = vad_pair_with_geometry(VadMode::KernelThread { poll }, ring, 50);

        let kthread = sched.borrow_mut().register();
        let app = sched.borrow_mut().register();
        {
            // Each kernel-thread tick runs the interrupt routine and
            // unblocks the application's write(2).
            let sched2 = sched.clone();
            master.set_kthread_hook(Box::new(move |sim: &mut Sim| {
                let now = sim.now();
                let mut s = sched2.borrow_mut();
                s.wakeup(now, kthread, calib::KTHREAD_BURST);
                s.wakeup(now, app, calib::APP_BURST);
            }));
        }

        match config {
            Fig5Config::KernelVad => {
                // In-kernel streaming: the master queue is consumed from
                // the kernel thread's own context — no extra process.
                drain_master_forever(&master, /* count_as: */ None, sched.clone());
            }
            Fig5Config::UserVad => {
                // User-level streaming: the reader process wakes per
                // drain cycle.
                let reader = sched.borrow_mut().register();
                drain_master_forever(&master, Some(reader), sched.clone());
            }
            Fig5Config::Unloaded => unreachable!(),
        }

        // The unmodified application playing a long clip at wire speed
        // (a file player decoding ahead, the common case). The drain
        // consumes ~3x real time at this ring geometry, so the clip
        // must be three times the window to keep data flowing
        // throughout.
        let app_handle = AudioApp::start(
            &mut sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(es_audio::gen::MultiTone::music(44_100)),
            SimDuration::from_secs(seconds * 3 + 10),
            AppPacing::WireSpeed,
        )
        .expect("fresh VAD slave opens");
        std::mem::forget(app_handle);
    }

    sim.run_until(until);
    // Snapshot: the VAD hooks keep scheduler handles alive inside the
    // simulation, so clone the accounting out instead of unwrapping.
    let series = sched
        .borrow()
        .clone()
        .finish(until)
        .window(SimTime::ZERO + calib::WARMUP, until);
    let mean = series.mean().unwrap_or(0.0);
    let mut relabeled = TimeSeries::new(config.label());
    for &(at, v) in series.samples() {
        relabeled.push(at, v);
    }
    Fig5Run {
        series: relabeled,
        mean,
    }
}

/// Keeps the master queue drained. With `count_as = Some(task)`, each
/// wakeup is billed to that task via the reader hook (user-level mode);
/// with `None` the drain happens silently in kernel context.
fn drain_master_forever(
    master: &VadMaster,
    count_as: Option<es_sim::sched::TaskId>,
    sched: es_sim::Shared<es_sim::sched::KernelSched>,
) {
    if let Some(task) = count_as {
        let sched2 = sched;
        master.set_reader_hook(Box::new(move |sim: &mut Sim| {
            sched2
                .borrow_mut()
                .wakeup(sim.now(), task, calib::READER_BURST);
        }));
    }
    fn arm(master: VadMaster) {
        let m = master.clone();
        master.on_readable(move |sim| {
            let items = m.read(sim, usize::MAX);
            // Streaming would serialize and send here; Figure 5 only
            // cares about the context switches.
            drop(items);
            arm(m.clone());
        });
    }
    arm(master.clone());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_means_match_the_paper() {
        let unloaded = run(Fig5Config::Unloaded, 60, 5);
        let kernel = run(Fig5Config::KernelVad, 60, 5);
        let user = run(Fig5Config::UserVad, 60, 5);
        for r in [&unloaded, &kernel, &user] {
            println!("seed 5, 60 s: {r:?}");
        }
        assert!(
            (3.0..6.0).contains(&unloaded.mean),
            "unloaded mean {} (paper: 4.2)",
            unloaded.mean
        );
        assert!(
            (25.0..33.0).contains(&kernel.mean),
            "kernel mean {} (paper: 28.716)",
            kernel.mean
        );
        assert!(
            (33.0..42.0).contains(&user.mean),
            "user mean {} (paper: 37.2)",
            user.mean
        );
        assert!(user.mean > kernel.mean && kernel.mean > unloaded.mean);
    }

    #[test]
    fn series_has_one_sample_per_second() {
        let r = run(Fig5Config::KernelVad, 20, 9);
        assert_eq!(r.series.len(), 20);
        assert_eq!(r.series.name(), "Kernel Threaded VAD");
    }
}
