//! # es-heal — telemetry-driven self-healing policy
//!
//! The paper's producer is deliberately stateless about its receivers
//! (§2.2); this crate is the *management-plane* counterpart §5.3
//! gestures at: a pure, deterministic policy engine that watches
//! per-receiver reception telemetry epoch by epoch and decides repair
//! actions. It owns no I/O and no clock — `es-core`'s heal monitor
//! feeds it [`EpochSample`]s from [`MetricsSnapshot`] deltas and
//! executes whatever [`HealAction`]s come back, so every decision is
//! reproducible from the journal alone.
//!
//! Three repairs are modelled, in escalating order of intrusiveness:
//!
//! 1. **Loss-adaptive FEC** — the parity-group ladder
//!    `None → 8 → 4 → 2` (smaller group = more parity overhead =
//!    stronger protection), raised for the whole channel when any
//!    receiver is *sustainedly* sick, lowered when the whole fleet has
//!    been healthy for a while.
//! 2. **NACK retransmission** — a receiver asks the stream's live
//!    producer for the sequence ranges it misses. Its own decision,
//!    not this crate's; only counted here.
//! 3. **Producer failover** — a warm standby adopts the stream clock
//!    when the primary stops emitting control packets. The monitor's
//!    stall check decides it; only counted here.
//!
//! Hysteresis (`raise_after` sick epochs before escalating,
//! `recover_after` healthy epochs before relaxing) keeps a *flapping*
//! receiver — one oscillating across the sick threshold — from
//! whipsawing the FEC level; suppressed oscillations are counted
//! instead of acted on.
//!
//! [`MetricsSnapshot`]: es_telemetry::MetricsSnapshot

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use es_telemetry::{Registry, Telemetry};

/// Receiver condition as classified from one epoch's telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Within all thresholds.
    #[default]
    Healthy,
    /// Noticeable loss, but below the repair threshold.
    Degraded,
    /// Sustained loss, deadline misses, or clock drift past threshold.
    Sick,
}

impl core::fmt::Display for Health {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Health::Healthy => f.write_str("healthy"),
            Health::Degraded => f.write_str("degraded"),
            Health::Sick => f.write_str("sick"),
        }
    }
}

/// Detector thresholds and hysteresis. All tunable; the defaults are
/// what DESIGN.md §10 documents and `tests/healing.rs` exercises.
#[derive(Debug, Clone)]
pub struct HealPolicy {
    /// Loss fraction at or above which an epoch is Sick.
    pub sick_loss: f64,
    /// Loss fraction at or above which an epoch is Degraded.
    pub degraded_loss: f64,
    /// Per-epoch deadline-miss delta at or above which an epoch is
    /// Sick.
    pub sick_deadline_misses: u64,
    /// Absolute clock offset (µs) at or above which an epoch is Sick.
    pub sick_drift_us: i64,
    /// Consecutive Sick epochs before the FEC ladder is raised.
    pub raise_after: u32,
    /// Consecutive Healthy epochs (fleet-wide) before the ladder is
    /// lowered, and (per receiver) before a Sick receiver is declared
    /// recovered.
    pub recover_after: u32,
    /// FEC parity-group ladder, weakest first. `None` means parity
    /// off; a smaller group is stronger protection.
    pub fec_ladder: Vec<Option<u8>>,
}

impl Default for HealPolicy {
    fn default() -> Self {
        HealPolicy {
            sick_loss: 0.15,
            degraded_loss: 0.05,
            sick_deadline_misses: 3,
            sick_drift_us: 20_000,
            raise_after: 2,
            recover_after: 4,
            fec_ladder: vec![None, Some(8), Some(4), Some(2)],
        }
    }
}

/// One receiver's telemetry for one virtual-time epoch, distilled from
/// [`MetricsSnapshot`] deltas by the monitor.
///
/// [`MetricsSnapshot`]: es_telemetry::MetricsSnapshot
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSample {
    /// Reception loss fraction (RFC 3550-style, 0.0..=1.0).
    pub loss_fraction: f64,
    /// `speaker/*/deadline_misses` growth this epoch.
    pub deadline_miss_delta: u64,
    /// Current clock offset estimate versus the producer, µs.
    pub drift_us: i64,
}

/// Classifies one epoch sample against `policy` thresholds.
pub fn classify(policy: &HealPolicy, s: &EpochSample) -> Health {
    if s.loss_fraction >= policy.sick_loss
        || s.deadline_miss_delta >= policy.sick_deadline_misses
        || s.drift_us.abs() >= policy.sick_drift_us
    {
        Health::Sick
    } else if s.loss_fraction >= policy.degraded_loss {
        Health::Degraded
    } else {
        Health::Healthy
    }
}

/// A repair decision, as [`FleetDetector::end_epoch`] returns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealAction {
    /// Strengthen the channel's FEC one ladder rung.
    RaiseFec {
        /// Previous parity-group size (`None` = parity off).
        from: Option<u8>,
        /// New parity-group size.
        to: Option<u8>,
    },
    /// Relax the channel's FEC one ladder rung.
    LowerFec {
        /// Previous parity-group size.
        from: Option<u8>,
        /// New parity-group size (`None` = parity off).
        to: Option<u8>,
    },
    /// A formerly Sick receiver has stayed healthy `recover_after`
    /// epochs.
    Recovered {
        /// The recovered receiver.
        target: String,
    },
}

/// Lifecycle counters for the healing plane, exported under component
/// `heal`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealStats {
    /// Monitor epochs completed.
    pub epochs: u64,
    /// FEC ladder raises applied.
    pub fec_raises: u64,
    /// FEC ladder lowers applied.
    pub fec_lowers: u64,
    /// NACK retransmission requests relayed to the producer.
    pub retransmits_requested: u64,
    /// Standby promotions triggered.
    pub failovers: u64,
    /// Sick receivers that returned to sustained health.
    pub recoveries: u64,
    /// One-epoch health oscillations damped instead of acted on.
    pub suppressed_flaps: u64,
}

impl Telemetry for HealStats {
    fn record(&self, registry: &mut Registry) {
        registry
            .component("heal")
            .counter("epochs", self.epochs)
            .counter("fec_raises", self.fec_raises)
            .counter("fec_lowers", self.fec_lowers)
            .counter("retransmits_requested", self.retransmits_requested)
            .counter("failovers", self.failovers)
            .counter("recoveries", self.recoveries)
            .counter("suppressed_flaps", self.suppressed_flaps);
    }
}

#[derive(Debug, Default)]
struct ReceiverState {
    /// Reported (hysteresis-filtered) health.
    reported: Health,
    sick_streak: u32,
    healthy_streak: u32,
    /// Latest raw classification (for inspection).
    last: Health,
}

/// Per-fleet detector: feed every receiver's [`EpochSample`] each
/// epoch via [`FleetDetector::observe`], then call
/// [`FleetDetector::end_epoch`] for the epoch's repair decisions.
/// Deterministic: iteration is name-ordered (BTreeMap) and no clocks
/// or randomness are consulted.
#[derive(Debug)]
pub struct FleetDetector {
    policy: HealPolicy,
    /// Current rung on `policy.fec_ladder`.
    fec_idx: usize,
    receivers: BTreeMap<String, ReceiverState>,
    /// Counters; `epochs`/`fec_*`/`recoveries`/`suppressed_flaps` are
    /// maintained here, the action-execution counters by the monitor.
    pub stats: HealStats,
}

impl FleetDetector {
    /// A detector starting at the bottom (weakest) ladder rung.
    pub fn new(policy: HealPolicy) -> Self {
        assert!(
            !policy.fec_ladder.is_empty(),
            "the FEC ladder needs at least one rung"
        );
        FleetDetector {
            policy,
            fec_idx: 0,
            receivers: BTreeMap::new(),
            stats: HealStats::default(),
        }
    }

    /// Starts the ladder at the rung matching `group` (e.g. when the
    /// channel was configured with FEC already on). Unknown values
    /// leave the detector at the bottom rung.
    pub fn seed_fec_level(&mut self, group: Option<u8>) {
        if let Some(i) = self.policy.fec_ladder.iter().position(|&g| g == group) {
            self.fec_idx = i;
        }
    }

    /// The ladder rung currently in force.
    pub fn fec_level(&self) -> Option<u8> {
        self.policy.fec_ladder[self.fec_idx]
    }

    /// The hysteresis-filtered health of `name` (Healthy for unknown
    /// receivers).
    pub fn health_of(&self, name: &str) -> Health {
        self.receivers
            .get(name)
            .map_or(Health::Healthy, |r| r.reported)
    }

    /// Records one receiver's epoch sample; returns the raw (pre-
    /// hysteresis) classification.
    pub fn observe(&mut self, name: &str, sample: EpochSample) -> Health {
        let h = classify(&self.policy, &sample);
        let raise_after = self.policy.raise_after;
        let r = self.receivers.entry(name.to_string()).or_default();
        r.last = h;
        match h {
            Health::Sick => {
                r.sick_streak += 1;
                r.healthy_streak = 0;
            }
            Health::Healthy => {
                // A short sick burst that ended on its own is a flap:
                // count it, do not escalate.
                if r.sick_streak > 0 && r.sick_streak < raise_after {
                    self.stats.suppressed_flaps += 1;
                }
                r.sick_streak = 0;
                r.healthy_streak += 1;
            }
            Health::Degraded => {
                // Neutral: neither streak accumulates.
                if r.sick_streak > 0 && r.sick_streak < raise_after {
                    self.stats.suppressed_flaps += 1;
                }
                r.sick_streak = 0;
                r.healthy_streak = 0;
            }
        }
        h
    }

    /// Closes the epoch: applies hysteresis, moves the FEC ladder, and
    /// returns the repair decisions in deterministic order (raises
    /// before lowers before recoveries; receivers name-ordered).
    pub fn end_epoch(&mut self) -> Vec<HealAction> {
        self.stats.epochs += 1;
        let mut actions = Vec::new();
        // Escalation: any receiver sustainedly sick raises the ladder
        // one rung per epoch at most.
        let mut raise = false;
        for r in self.receivers.values_mut() {
            if r.sick_streak >= self.policy.raise_after {
                if r.reported != Health::Sick {
                    r.reported = Health::Sick;
                }
                raise = true;
                // Demand renewed sustained sickness for the next rung.
                r.sick_streak = 0;
            }
        }
        if raise && self.fec_idx + 1 < self.policy.fec_ladder.len() {
            let from = self.policy.fec_ladder[self.fec_idx];
            self.fec_idx += 1;
            let to = self.policy.fec_ladder[self.fec_idx];
            self.stats.fec_raises += 1;
            actions.push(HealAction::RaiseFec { from, to });
        }
        // Recoveries: a reported-Sick receiver healthy long enough.
        // Decided before relaxation, which resets the streaks it reads.
        let mut recovered = Vec::new();
        for (name, r) in self.receivers.iter_mut() {
            if r.reported == Health::Sick && r.healthy_streak >= self.policy.recover_after {
                r.reported = Health::Healthy;
                self.stats.recoveries += 1;
                recovered.push(name.clone());
            }
        }
        // Relaxation: the whole fleet healthy long enough lowers one
        // rung and restarts the clock.
        let all_recovered = !self.receivers.is_empty()
            && self
                .receivers
                .values()
                .all(|r| r.healthy_streak >= self.policy.recover_after);
        if all_recovered && self.fec_idx > 0 {
            let from = self.policy.fec_ladder[self.fec_idx];
            self.fec_idx -= 1;
            let to = self.policy.fec_ladder[self.fec_idx];
            self.stats.fec_lowers += 1;
            for r in self.receivers.values_mut() {
                r.healthy_streak = 0;
            }
            actions.push(HealAction::LowerFec { from, to });
        }
        actions.extend(
            recovered
                .into_iter()
                .map(|target| HealAction::Recovered { target }),
        );
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sick() -> EpochSample {
        EpochSample {
            loss_fraction: 0.3,
            ..EpochSample::default()
        }
    }

    fn healthy() -> EpochSample {
        EpochSample::default()
    }

    #[test]
    fn classify_thresholds() {
        let p = HealPolicy::default();
        assert_eq!(classify(&p, &healthy()), Health::Healthy);
        assert_eq!(
            classify(
                &p,
                &EpochSample {
                    loss_fraction: 0.06,
                    ..Default::default()
                }
            ),
            Health::Degraded
        );
        assert_eq!(classify(&p, &sick()), Health::Sick);
        assert_eq!(
            classify(
                &p,
                &EpochSample {
                    deadline_miss_delta: 3,
                    ..Default::default()
                }
            ),
            Health::Sick
        );
        assert_eq!(
            classify(
                &p,
                &EpochSample {
                    drift_us: -25_000,
                    ..Default::default()
                }
            ),
            Health::Sick
        );
    }

    #[test]
    fn sustained_sickness_climbs_the_ladder_one_rung_per_epoch() {
        let mut d = FleetDetector::new(HealPolicy::default());
        assert_eq!(d.fec_level(), None);
        // Epoch 1: one sick epoch is not enough.
        d.observe("es1", sick());
        d.observe("es2", healthy());
        assert!(d.end_epoch().is_empty());
        // Epoch 2: raise_after reached — one rung.
        d.observe("es1", sick());
        d.observe("es2", healthy());
        let a = d.end_epoch();
        assert_eq!(
            a,
            vec![HealAction::RaiseFec {
                from: None,
                to: Some(8)
            }]
        );
        assert_eq!(d.health_of("es1"), Health::Sick);
        // Two more sick epochs: the next rung.
        d.observe("es1", sick());
        assert!(d.end_epoch().is_empty());
        d.observe("es1", sick());
        assert_eq!(
            d.end_epoch(),
            vec![HealAction::RaiseFec {
                from: Some(8),
                to: Some(4)
            }]
        );
        assert_eq!(d.stats.fec_raises, 2);
    }

    #[test]
    fn ladder_tops_out() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..20 {
            d.observe("es1", sick());
            d.end_epoch();
        }
        assert_eq!(d.fec_level(), Some(2), "strongest rung");
        assert_eq!(d.stats.fec_raises, 3, "one raise per rung only");
    }

    #[test]
    fn fleet_health_lowers_the_ladder_and_reports_recovery() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..2 {
            d.observe("es1", sick());
            d.observe("es2", healthy());
            d.end_epoch();
        }
        assert_eq!(d.fec_level(), Some(8));
        // recover_after healthy epochs: lower + recovered, same epoch.
        let mut actions = Vec::new();
        for _ in 0..4 {
            d.observe("es1", healthy());
            d.observe("es2", healthy());
            actions.extend(d.end_epoch());
        }
        assert!(actions.contains(&HealAction::LowerFec {
            from: Some(8),
            to: None
        }));
        assert!(actions.contains(&HealAction::Recovered {
            target: "es1".into()
        }));
        assert_eq!(d.health_of("es1"), Health::Healthy);
        assert_eq!(d.stats.recoveries, 1);
        assert_eq!(d.fec_level(), None);
    }

    #[test]
    fn one_epoch_flaps_are_damped_not_acted_on() {
        let mut d = FleetDetector::new(HealPolicy::default());
        // sick, healthy, sick, healthy … never two in a row.
        for i in 0..8 {
            let s = if i % 2 == 0 { sick() } else { healthy() };
            d.observe("es1", s);
            assert!(d.end_epoch().is_empty(), "flap must not move the ladder");
        }
        assert_eq!(d.fec_level(), None);
        assert_eq!(d.stats.suppressed_flaps, 4);
        assert_eq!(d.stats.fec_raises, 0);
    }

    #[test]
    fn seeded_fec_level_starts_mid_ladder() {
        let mut d = FleetDetector::new(HealPolicy::default());
        d.seed_fec_level(Some(4));
        assert_eq!(d.fec_level(), Some(4));
        d.observe("es1", sick());
        d.end_epoch();
        d.observe("es1", sick());
        assert_eq!(
            d.end_epoch(),
            vec![HealAction::RaiseFec {
                from: Some(4),
                to: Some(2)
            }]
        );
    }

    #[test]
    fn stats_export_under_heal_component() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..3 {
            d.observe("es1", sick());
            d.end_epoch();
        }
        let mut reg = Registry::new();
        d.stats.record(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("heal/0/epochs"), Some(3));
        assert_eq!(snap.counter("heal/0/fec_raises"), Some(1));
    }
}
