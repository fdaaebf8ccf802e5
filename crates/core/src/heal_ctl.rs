//! The self-healing control loop (DESIGN.md §10).
//!
//! A [`HealMonitor`] wakes once per virtual-time *epoch*, reads the
//! counters an operator would poll, and feeds per-receiver deltas
//! (interval loss, deadline-miss growth, clock drift) to [`es_heal`]'s
//! pure detector. The actions that come back — plus producer failover,
//! which the monitor derives itself from a stalled control-packet
//! counter — are executed against the live system. Between epochs it
//! is the back channel of statically wired speakers: a NACK such a
//! speaker raises is handed to its stream's live producer at once.
//! Everything is journaled under component `heal`, every event
//! carrying `action` and `target` fields (the `es-analyze`
//! `heal-event-fields` rule enforces this).
//!
//! Everything here is driven by the deterministic simulator: the same
//! seed heals the same way, bit for bit, at any fleet-thread count.

use es_heal::{EpochSample, FleetDetector, HealAction, HealPolicy, HealStats, Health};
use es_sim::{RepeatingTimer, Shared, Sim, SimDuration};
use es_speaker::EthernetSpeaker;
use es_telemetry::{Journal, Severity, Stamp};

use crate::builder::MetricsHub;

/// Healing-plane configuration for [`SystemBuilder::healing`].
///
/// [`SystemBuilder::healing`]: crate::builder::SystemBuilder::healing
#[derive(Debug, Clone)]
pub struct HealSpec {
    /// Detector thresholds and the FEC ladder.
    pub policy: HealPolicy,
    /// Epoch length: how often telemetry is sampled and repairs run.
    pub epoch: SimDuration,
    /// Start a warm-standby rebroadcaster per channel, eligible for
    /// promotion when the primary stops emitting control packets.
    pub standby: bool,
    /// Consecutive epochs with zero control packets (after the stream
    /// was seen alive) before the standby is promoted.
    pub failover_after: u32,
}

impl HealSpec {
    /// Defaults: 500 ms epochs, default [`HealPolicy`], no standby,
    /// failover after 2 stalled epochs.
    pub fn new() -> Self {
        HealSpec {
            policy: HealPolicy::default(),
            epoch: SimDuration::from_millis(500),
            standby: false,
            failover_after: 2,
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

    /// Sets the failover stall threshold, in epochs.
    pub fn failover_after(mut self, epochs: u32) -> Self {
        self.failover_after = epochs;
        self
    }
}

impl Default for HealSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// The counters one epoch's deltas are taken against.
#[derive(Clone, Copy)]
struct Seen {
    lost: u64,
    received: u64,
    deadline_misses: u64,
}

struct MonitorState {
    detector: FleetDetector,
    /// Per speaker: its counters at the previous epoch, once it has
    /// been seen at one.
    prev_speakers: Vec<Option<Seen>>,
    /// Per channel: its control-packet counter at the previous epoch;
    /// `None` until the first epoch has run.
    prev_controls: Option<Vec<u64>>,
    /// Per channel: ever saw control packets flow.
    chan_active: Vec<bool>,
    /// Per channel: consecutive epochs with zero control packets.
    chan_stalled: Vec<u32>,
    failover_after: u32,
    journal: Journal,
}

/// The running healing plane. Clone-shareable; all state lives behind
/// [`Shared`].
#[derive(Clone)]
pub struct HealMonitor {
    hub: MetricsHub,
    state: Shared<MonitorState>,
}

impl HealMonitor {
    /// Starts the epoch timer. The first sample fires a fraction into
    /// the first epoch so the walk lands between the broker sweep and
    /// the producers' control cadence rather than on them.
    pub(crate) fn start(
        sim: &mut Sim,
        hub: MetricsHub,
        spec: HealSpec,
        journal: Journal,
    ) -> HealMonitor {
        let mut detector = FleetDetector::new(spec.policy);
        if let Some(rb) = hub.producers.primaries.first() {
            detector.seed_fec_level(rb.fec_group());
        }
        let n = hub.producers.primaries.len();
        let state = es_sim::shared(MonitorState {
            detector,
            prev_speakers: vec![None; hub.speaker_count()],
            prev_controls: None,
            chan_active: vec![false; n],
            chan_stalled: vec![0; n],
            failover_after: spec.failover_after,
            journal,
        });
        let mon = HealMonitor { hub, state };
        let phase = spec.epoch.min(SimDuration::from_millis(170));
        let m2 = mon.clone();
        let timer = RepeatingTimer::start_with_phase(sim, spec.epoch, phase, move |sim| {
            m2.tick(sim);
        });
        // The monitor runs for the life of the simulation, like every
        // other component timer.
        std::mem::forget(timer);
        mon
    }

    /// Lifecycle counters (also exported under `heal/heal0/*` in the
    /// system metrics snapshot).
    pub fn stats(&self) -> HealStats {
        self.state.borrow().detector.stats
    }

    /// The hysteresis-filtered health of receiver `name`.
    pub fn health_of(&self, name: &str) -> Health {
        self.state.borrow().detector.health_of(name)
    }

    /// The FEC ladder rung currently in force.
    pub fn fec_level(&self) -> Option<u8> {
        self.state.borrow().detector.fec_level()
    }

    fn journal(&self) -> Journal {
        self.state.borrow().journal.clone()
    }

    /// One epoch: observe, apply detector actions, check for a dead
    /// primary.
    fn tick(&self, sim: &mut Sim) {
        self.observe_receivers();
        let actions = self.state.borrow_mut().detector.end_epoch();
        for action in actions {
            self.execute(sim, action);
        }
        self.check_failover(sim);
    }

    fn observe_receivers(&self) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        // The first epoch has no baseline: everybody reads healthy.
        let baseline = st.prev_controls.is_some();
        for (i, prev) in st.prev_speakers.iter_mut().enumerate() {
            let Some(spk) = self.hub.speaker(i) else {
                continue;
            };
            let (stats, quality) = (spk.stats(), spk.quality());
            let now = Seen {
                // Link loss: the monitor nets a refill off its loss
                // count the moment it lands; put it back.
                lost: quality.lost + stats.refills_received,
                received: quality.received,
                deadline_misses: stats.dropped_late,
            };
            // Nor has a speaker first seen this epoch: its counters
            // read as not having moved.
            let was = prev.replace(now).unwrap_or(now);
            let lost = now.lost.saturating_sub(was.lost);
            let expected = lost + now.received.saturating_sub(was.received);
            let sample = EpochSample {
                loss_fraction: if expected == 0 {
                    0.0
                } else {
                    lost as f64 / expected as f64
                },
                deadline_miss_delta: now.deadline_misses.saturating_sub(was.deadline_misses),
                drift_us: spk.clock_offset_us().unwrap_or(0),
            };
            let sample = if baseline {
                sample
            } else {
                EpochSample::default()
            };
            st.detector.observe(&spk.name(), sample);
        }
    }

    /// A statically wired speaker's NACK: hands the ranges to the live
    /// producer of the group it is tuned to (a negotiated speaker
    /// sends its own over the session). Returns how many cached
    /// packets went back out.
    pub(crate) fn retransmit_request(
        &self,
        sim: &mut Sim,
        spk: &EthernetSpeaker,
        ranges: &[(u32, u16)],
    ) -> u64 {
        let group = spk.tuned();
        let producers = &self.hub.producers;
        let channel = producers
            .primaries
            .iter()
            .position(|rb| rb.group() == group);
        let sent = channel.map_or(0, |i| producers.live(i).retransmit(sim, ranges));
        self.state.borrow_mut().detector.stats.retransmits_requested += 1;
        self.journal().emit(
            Stamp::virtual_ns(sim.now().as_nanos()),
            Severity::Info,
            "heal",
            "retransmission requested",
            &[
                ("action", "retransmit".into()),
                ("target", spk.name()),
                ("ranges", format!("{ranges:?}")),
                ("packets", sent.to_string()),
            ],
        );
        sent
    }

    fn execute(&self, sim: &mut Sim, action: HealAction) {
        match action {
            HealAction::RaiseFec { from, to } => {
                self.apply_fec(sim, to);
                self.journal().emit(
                    Stamp::virtual_ns(sim.now().as_nanos()),
                    Severity::Warn,
                    "heal",
                    "fec ladder raised",
                    &[
                        ("action", "raise_fec".into()),
                        ("target", "fleet".into()),
                        ("from", format!("{from:?}")),
                        ("to", format!("{to:?}")),
                    ],
                );
            }
            HealAction::LowerFec { from, to } => {
                self.apply_fec(sim, to);
                self.journal().emit(
                    Stamp::virtual_ns(sim.now().as_nanos()),
                    Severity::Info,
                    "heal",
                    "fec ladder lowered",
                    &[
                        ("action", "lower_fec".into()),
                        ("target", "fleet".into()),
                        ("from", format!("{from:?}")),
                        ("to", format!("{to:?}")),
                    ],
                );
            }
            HealAction::Recovered { target } => {
                self.journal().emit(
                    Stamp::virtual_ns(sim.now().as_nanos()),
                    Severity::Info,
                    "heal",
                    "receiver recovered",
                    &[("action", "recovered".into()), ("target", target)],
                );
            }
        }
    }

    /// Applies a new ladder rung to every channel's live producer,
    /// then lets the broker — where sessions are on — announce it to
    /// their receivers via PARAM.
    fn apply_fec(&self, sim: &mut Sim, to: Option<u8>) {
        for i in 0..self.hub.producers.primaries.len() {
            self.hub.producers.live(i).set_fec_group(sim, to);
        }
        if let Some(broker) = &self.hub.broker {
            broker.update_fec(sim, to);
        }
    }

    /// A channel whose control-packet counter stops growing for
    /// `failover_after` consecutive epochs — after the stream was seen
    /// alive — has a dead primary: promote the standby.
    fn check_failover(&self, sim: &mut Sim) {
        let producers = &self.hub.producers;
        let mut promotions = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            let controls = producers.primaries.iter();
            let controls: Vec<u64> = controls.map(|rb| rb.stats().control_packets).collect();
            let prev = st.prev_controls.replace(controls.clone());
            for (i, &now) in controls.iter().enumerate() {
                // The first epoch counts from the start of the stream.
                let delta = now.saturating_sub(prev.as_ref().map_or(0, |prev| prev[i]));
                if delta > 0 {
                    st.chan_active[i] = true;
                    st.chan_stalled[i] = 0;
                    continue;
                }
                // Nothing to promote, or already promoted.
                let spare = producers.standbys.get(i).is_some_and(|s| s.is_standby());
                if !st.chan_active[i] || !spare {
                    continue;
                }
                st.chan_stalled[i] += 1;
                if st.chan_stalled[i] >= st.failover_after {
                    st.detector.stats.failovers += 1;
                    promotions.push(i);
                }
            }
        }
        for i in promotions {
            producers.standbys[i].promote(sim, &producers.primaries[i]);
            self.journal().emit(
                Stamp::virtual_ns(sim.now().as_nanos()),
                Severity::Warn,
                "heal",
                "standby promoted after control stall",
                &[("action", "failover".into()), ("target", format!("ch{i}"))],
            );
        }
    }
}
