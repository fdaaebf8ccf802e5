//! The self-healing control loop's simulator driver (DESIGN.md §10).
//!
//! A [`HealMonitor`] wakes once per virtual-time *epoch*, hands the
//! raw counters an operator would poll to [`es_heal`]'s pure detector
//! — which makes every decision — and carries out the actions that
//! come back. Everything is journaled under component `heal`, every
//! event carrying `action` and `target` fields (`es_chaos::conformance`
//! checks this on every scenario's journal).

use std::rc::Rc;

use es_heal::{FleetDetector, HealAction, HealPolicy, HealStats, Health, ReceiverCounters};
use es_sim::{RepeatingTimer, Shared, Sim, SimDuration};
use es_telemetry::{Journal, Severity, Stamp};

use crate::builder::{Producers, SpeakerHandle};

/// Healing-plane configuration for [`SystemBuilder::healing`].
///
/// [`SystemBuilder::healing`]: crate::builder::SystemBuilder::healing
#[derive(Debug, Clone)]
pub struct HealSpec {
    /// Detector thresholds and hysteresis.
    pub policy: HealPolicy,
    /// Epoch length: how often telemetry is sampled and repairs run.
    pub epoch: SimDuration,
    /// Start a warm-standby rebroadcaster per channel, eligible for
    /// promotion when the primary stops emitting control packets.
    pub standby: bool,
}

impl HealSpec {
    /// Defaults: 500 ms epochs, default [`HealPolicy`], no standby.
    pub fn new() -> Self {
        HealSpec {
            policy: HealPolicy::default(),
            epoch: SimDuration::from_millis(500),
            standby: false,
        }
    }

    /// Sets the detector policy.
    pub fn policy(mut self, policy: HealPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the epoch length.
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Enables the warm-standby producer.
    pub fn standby(mut self) -> Self {
        self.standby = true;
        self
    }
}

impl Default for HealSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// The running healing plane. Clone-shareable; the detector lives
/// behind [`Shared`].
#[derive(Clone)]
pub struct HealMonitor {
    producers: Rc<Producers>,
    speakers: Rc<[SpeakerHandle]>,
    detector: Shared<FleetDetector>,
    journal: Journal,
    epoch: SimDuration,
}

impl HealMonitor {
    /// A monitor over the system's producers and speakers; its epochs
    /// begin at [`Self::start`].
    pub(crate) fn new(
        spec: HealSpec,
        producers: Rc<Producers>,
        speakers: Rc<[SpeakerHandle]>,
        journal: Journal,
    ) -> HealMonitor {
        HealMonitor {
            producers,
            speakers,
            detector: es_sim::shared(FleetDetector::new(spec.policy)),
            journal,
            epoch: spec.epoch,
        }
    }

    /// Starts the epoch timer. The first sample fires a fraction into
    /// the first epoch so the walk lands between the broker sweep and
    /// the producers' control cadence rather than on them.
    pub(crate) fn start(&self, sim: &mut Sim) {
        let phase = self.epoch.min(SimDuration::from_millis(170));
        let mon = self.clone();
        // The monitor runs for the life of the simulation, like every
        // other component timer.
        RepeatingTimer::start_with_phase(sim, self.epoch, phase, move |s| mon.tick(s));
    }

    /// Lifecycle counters (also exported under `heal/heal0/*` in the
    /// system metrics snapshot).
    pub fn stats(&self) -> HealStats {
        self.detector.borrow().stats
    }

    /// The hysteresis-filtered health of receiver `name`.
    pub fn health_of(&self, name: &str) -> Health {
        self.detector.borrow().health_of(name)
    }

    /// One epoch: hand every powered speaker's and every channel's
    /// counters to the detector, then carry out what it decides.
    fn tick(&self, sim: &mut Sim) {
        let actions = {
            let mut detector = self.detector.borrow_mut();
            for spk in self.speakers.iter().filter_map(SpeakerHandle::speaker) {
                let stats = spk.stats();
                let counters = ReceiverCounters {
                    quality_lost: stats.quality_lost,
                    quality_expected: stats.quality_expected,
                    dropped_late: stats.dropped_late,
                    nacks_sent: stats.nacks_sent,
                    clock_offset_us: spk.clock_offset_us(),
                };
                detector.observe_receiver(&spk.name(), counters);
            }
            let producers = &self.producers;
            for (i, rb) in producers.primaries.iter().enumerate() {
                let ready = producers.standbys.get(i).is_some_and(|s| s.is_standby());
                detector.observe_channel(i, rb.stats().control_packets, ready);
            }
            detector.end_epoch()
        };
        for action in actions {
            self.execute(sim, action);
        }
    }

    fn execute(&self, sim: &mut Sim, action: HealAction) {
        let stamp = Stamp::virtual_ns(sim.now().as_nanos());
        match action {
            HealAction::Recovered { target } => {
                self.journal.emit(
                    stamp,
                    Severity::Info,
                    "heal",
                    "receiver recovered",
                    &[("action", "recovered".into()), ("target", target)],
                );
            }
            HealAction::Failover { channel } => {
                let producers = &self.producers;
                producers.standbys[channel].promote(sim, &producers.primaries[channel]);
                self.journal.emit(
                    stamp,
                    Severity::Warn,
                    "heal",
                    "standby promoted after control stall",
                    &[
                        ("action", "failover".into()),
                        ("target", format!("ch{channel}")),
                    ],
                );
            }
        }
    }
}
