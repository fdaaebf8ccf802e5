//! # es-heal — telemetry-driven self-healing policy
//!
//! The paper's producer is deliberately stateless about its receivers
//! (§2.2); this crate is the *management-plane* counterpart §5.3
//! gestures at: a pure, deterministic policy engine that watches
//! per-receiver and per-channel counters epoch by epoch and decides
//! repair actions. It owns no I/O and no clock — `es-core`'s heal
//! monitor reads the raw counters off speakers and producers, hands
//! them over as [`ReceiverCounters`] and control-packet counts, and
//! executes whatever [`HealAction`]s come back, so every decision is
//! reproducible from the journal alone and unit-testable without a
//! simulator.
//!
//! Two repairs are modelled, each the one way to do its job:
//!
//! 1. **NACK retransmission** — a receiver asks the stream's live
//!    producer for the sequence ranges it misses: its own decision,
//!    only counted here, from its own `nacks_sent`.
//! 2. **Producer failover** — a warm standby adopts the stream clock
//!    when its channel stops emitting control packets.
//!
//! Parity is not a decision: a channel's FEC group is static
//! configuration. The loss the detector reads is the link's, before
//! parity or a refill repaired it.
//!
//! Hysteresis (`sick_after` sick epochs before a receiver is reported
//! Sick, four healthy epochs before it is reported
//! recovered) keeps a *flapping* receiver — one oscillating across the
//! sick threshold — from being reported at every blip; suppressed
//! oscillations are counted instead.

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

/// Loss fraction at or above which an epoch is Sick.
const SICK_LOSS: f64 = 0.15;
/// Loss fraction at or above which an epoch is Degraded.
const DEGRADED_LOSS: f64 = 0.05;
/// Per-epoch deadline-miss delta at or above which an epoch is Sick.
const SICK_DEADLINE_MISSES: u64 = 3;
/// Clock-offset drift (µs) from the receiver's first synced offset at
/// or above which an epoch is Sick.
const SICK_DRIFT_US: i64 = 20_000;
/// Consecutive Healthy epochs before a reported-Sick receiver is
/// declared recovered.
const RECOVER_AFTER: u32 = 4;

/// The detector's one setting, its Sick hysteresis; the thresholds
/// above and the recovery hysteresis are fixed, as DESIGN.md §10
/// documents and `tests/healing.rs` exercises.
#[derive(Debug, Clone)]
pub struct HealPolicy {
    /// Consecutive Sick epochs before a receiver is reported Sick.
    pub sick_after: u32,
}

impl Default for HealPolicy {
    fn default() -> Self {
        HealPolicy { sick_after: 2 }
    }
}

/// Consecutive epochs a channel that was seen sending may emit no
/// control packet before its standby is promoted.
const FAILOVER_AFTER: u32 = 2;

/// One receiver's telemetry for one virtual-time epoch, as
/// [`FleetDetector::observe_receiver`] distils it.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSample {
    /// Link loss fraction over the epoch (0.0..=1.0).
    pub loss_fraction: f64,
    /// `speaker/*/deadline_misses` growth this epoch.
    pub deadline_miss_delta: u64,
    /// Clock-offset growth since the receiver's first synced offset, µs.
    pub drift_us: i64,
}

/// One receiver's raw counters at an epoch boundary, as its driver
/// reads them; [`FleetDetector::observe_receiver`] takes the deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverCounters {
    /// Sequence numbers no original packet arrived for
    /// (`SpeakerStats::quality_lost`): the link's loss, before FEC or
    /// a refill repaired it.
    pub quality_lost: u64,
    /// Sequence numbers the stream advanced over
    /// (`SpeakerStats::quality_expected`); a duplicate adds none.
    pub quality_expected: u64,
    /// Data packets discarded past their deadline.
    pub dropped_late: u64,
    /// NACK datagrams the receiver sent.
    pub nacks_sent: u64,
    /// Clock offset estimate versus the producer, µs (`None` before
    /// sync).
    pub clock_offset_us: Option<i64>,
}

/// Classifies one epoch sample against the detector's thresholds.
pub fn classify(s: &EpochSample) -> Health {
    if s.loss_fraction >= SICK_LOSS
        || s.deadline_miss_delta >= SICK_DEADLINE_MISSES
        || s.drift_us.abs() >= SICK_DRIFT_US
    {
        Health::Sick
    } else if s.loss_fraction >= DEGRADED_LOSS {
        Health::Degraded
    } else {
        Health::Healthy
    }
}

/// A repair decision, as [`FleetDetector::end_epoch`] returns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealAction {
    /// A formerly Sick receiver has stayed healthy `RECOVER_AFTER`
    /// (4) epochs.
    Recovered {
        /// The recovered receiver.
        target: String,
    },
    /// Promote the channel's warm standby: its primary went silent.
    Failover {
        /// The channel, as numbered by [`FleetDetector::observe_channel`].
        channel: usize,
    },
}

/// Lifecycle counters for the healing plane, exported under component
/// `heal`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealStats {
    /// Monitor epochs completed.
    pub epochs: u64,
    /// Always 0 and not recorded: kept only because the frozen
    /// `benches/ledger` reads it (ROADMAP item 1(a)).
    pub fec_raises: u64,
    /// Always 0 and not recorded, like `fec_raises`.
    pub fec_lowers: u64,
    /// NACKs the receivers sent, summed from their `nacks_sent`
    /// growth since each was first seen.
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
    /// Counters at the previous epoch, once seen at one.
    counters: Option<ReceiverCounters>,
    /// The first synced clock offset seen: drift is growth from it, so
    /// a relay hop's constant share of the offset is not drift.
    offset_baseline: Option<i64>,
}

#[derive(Debug, Default)]
struct ChannelState {
    /// Control-packet counter at the previous epoch.
    controls: u64,
    /// Ever seen sending.
    active: bool,
    /// Consecutive silent epochs with a standby ready.
    stalled: u32,
    /// Fail over at this epoch's end.
    fail_over: bool,
}

/// Per-fleet detector: feed every receiver's and every channel's
/// counters each epoch via the `observe_*` methods, then call
/// [`FleetDetector::end_epoch`] for the epoch's repair decisions.
/// Deterministic: iteration is name- and channel-ordered (BTreeMap)
/// and no clocks or randomness are consulted.
#[derive(Debug)]
pub struct FleetDetector {
    policy: HealPolicy,
    receivers: BTreeMap<String, ReceiverState>,
    channels: BTreeMap<usize, ChannelState>,
    /// Every healing-plane counter; all of them are maintained here.
    pub stats: HealStats,
}

impl FleetDetector {
    /// A detector that has seen no receiver and no channel yet.
    pub fn new(policy: HealPolicy) -> Self {
        FleetDetector {
            policy,
            receivers: BTreeMap::new(),
            channels: BTreeMap::new(),
            stats: HealStats::default(),
        }
    }

    /// The hysteresis-filtered health of `name` (Healthy for unknown
    /// receivers).
    pub fn health_of(&self, name: &str) -> Health {
        self.receivers
            .get(name)
            .map_or(Health::Healthy, |r| r.reported)
    }

    /// Records one receiver's counters at this epoch's end and
    /// classifies their growth since its previous epoch (see
    /// [`Self::observe`]). With no baseline the sample reads healthy:
    /// the counters of a receiver first seen read as not having moved,
    /// and its first synced clock offset is the one its drift is
    /// measured from.
    pub fn observe_receiver(&mut self, name: &str, now: ReceiverCounters) -> Health {
        let r = self.receivers.entry(name.to_string()).or_default();
        let was = r.counters.replace(now).unwrap_or(now);
        self.stats.retransmits_requested += now.nacks_sent.saturating_sub(was.nacks_sent);
        let drift_us = now.clock_offset_us.map_or(0, |offset| {
            offset.saturating_sub(*r.offset_baseline.get_or_insert(offset))
        });
        let lost = now.quality_lost.saturating_sub(was.quality_lost);
        let expected = now.quality_expected.saturating_sub(was.quality_expected);
        let sample = EpochSample {
            loss_fraction: if expected == 0 {
                0.0
            } else {
                lost as f64 / expected as f64
            },
            deadline_miss_delta: now.dropped_late.saturating_sub(was.dropped_late),
            drift_us,
        };
        self.observe(name, sample)
    }

    /// Records channel `channel`'s control-packet counter at this
    /// epoch's end (the first epoch counts from zero) and whether a
    /// warm standby is ready to take it over. A channel seen sending
    /// that then sends nothing for two epochs in a row while a standby
    /// is ready fails over at [`Self::end_epoch`].
    pub fn observe_channel(&mut self, channel: usize, control_packets: u64, standby_ready: bool) {
        let c = self.channels.entry(channel).or_default();
        if control_packets > std::mem::replace(&mut c.controls, control_packets) {
            c.active = true;
            c.stalled = 0;
        } else if c.active && standby_ready {
            c.stalled += 1;
            c.fail_over = c.stalled >= FAILOVER_AFTER;
        }
    }

    /// Records one receiver's epoch sample; returns the raw (pre-
    /// hysteresis) classification.
    pub fn observe(&mut self, name: &str, sample: EpochSample) -> Health {
        let h = classify(&sample);
        let r = self.receivers.entry(name.to_string()).or_default();
        if h == Health::Sick {
            r.sick_streak += 1;
            r.healthy_streak = 0;
            return h;
        }
        // A short sick burst that ended on its own is a flap: count
        // it, do not report it.
        if r.sick_streak > 0 && r.sick_streak < self.policy.sick_after {
            self.stats.suppressed_flaps += 1;
        }
        r.sick_streak = 0;
        // Degraded is neutral: neither streak accumulates.
        r.healthy_streak = if h == Health::Healthy {
            r.healthy_streak + 1
        } else {
            0
        };
        h
    }

    /// Closes the epoch: applies hysteresis and returns the repair
    /// decisions in deterministic order (recoveries before failovers;
    /// receivers name-ordered, channels in order).
    pub fn end_epoch(&mut self) -> Vec<HealAction> {
        self.stats.epochs += 1;
        let mut actions = Vec::new();
        for (name, r) in self.receivers.iter_mut() {
            if r.sick_streak >= self.policy.sick_after {
                r.reported = Health::Sick;
            } else if r.reported == Health::Sick && r.healthy_streak >= RECOVER_AFTER {
                r.reported = Health::Healthy;
                self.stats.recoveries += 1;
                actions.push(HealAction::Recovered {
                    target: name.clone(),
                });
            }
        }
        for (&channel, c) in self.channels.iter_mut() {
            if std::mem::take(&mut c.fail_over) {
                self.stats.failovers += 1;
                actions.push(HealAction::Failover { channel });
            }
        }
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
        assert_eq!(classify(&healthy()), Health::Healthy);
        assert_eq!(
            classify(&EpochSample {
                loss_fraction: 0.06,
                ..Default::default()
            }),
            Health::Degraded
        );
        assert_eq!(classify(&sick()), Health::Sick);
        assert_eq!(
            classify(&EpochSample {
                deadline_miss_delta: 3,
                ..Default::default()
            }),
            Health::Sick
        );
        assert_eq!(
            classify(&EpochSample {
                drift_us: -25_000,
                ..Default::default()
            }),
            Health::Sick
        );
    }

    #[test]
    fn sustained_sickness_is_reported_after_hysteresis() {
        let mut d = FleetDetector::new(HealPolicy::default());
        // Epoch 1: one sick epoch is not enough.
        d.observe("es1", sick());
        d.observe("es2", healthy());
        assert!(d.end_epoch().is_empty());
        assert_eq!(d.health_of("es1"), Health::Healthy);
        // Epoch 2: sick_after reached.
        d.observe("es1", sick());
        d.observe("es2", healthy());
        assert!(d.end_epoch().is_empty());
        assert_eq!(d.health_of("es1"), Health::Sick);
        assert_eq!(d.health_of("es2"), Health::Healthy);
        // However long it lasts, sustained sickness is no flap.
        for _ in 0..5 {
            d.observe("es1", sick());
            d.end_epoch();
        }
        d.observe("es1", healthy());
        d.end_epoch();
        assert_eq!(d.stats.suppressed_flaps, 0);
    }

    #[test]
    fn recovery_is_reported_once_after_recover_after_healthy_epochs() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..2 {
            d.observe("es1", sick());
            d.end_epoch();
        }
        for _ in 0..3 {
            d.observe("es1", healthy());
            assert!(d.end_epoch().is_empty());
        }
        assert_eq!(d.health_of("es1"), Health::Sick, "three healthy epochs");
        d.observe("es1", healthy());
        assert_eq!(
            d.end_epoch(),
            vec![HealAction::Recovered {
                target: "es1".into()
            }]
        );
        d.observe("es1", healthy());
        assert!(d.end_epoch().is_empty(), "recovered once");
        assert_eq!(d.health_of("es1"), Health::Healthy);
        assert_eq!(d.stats.recoveries, 1);
    }

    #[test]
    fn one_epoch_flaps_are_damped_not_acted_on() {
        let mut d = FleetDetector::new(HealPolicy::default());
        // sick, healthy, sick, healthy … never two in a row.
        for i in 0..8 {
            let s = if i % 2 == 0 { sick() } else { healthy() };
            d.observe("es1", s);
            assert!(d.end_epoch().is_empty(), "a flap is not acted on");
            assert_eq!(d.health_of("es1"), Health::Healthy);
        }
        assert_eq!(d.stats.suppressed_flaps, 4);
        assert_eq!(d.stats.recoveries, 0);
    }

    #[test]
    fn stats_export_under_heal_component() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..3 {
            d.observe("es1", sick());
            d.end_epoch();
        }
        d.stats.retransmits_requested = 1;
        let mut reg = Registry::new();
        d.stats.record(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("heal/0/epochs"), Some(3));
        assert_eq!(snap.counter("heal/0/retransmits_requested"), Some(1));
        assert_eq!(snap.len(), 5, "the two ladder fields are not recorded");
    }

    /// Counters of a receiver that has lost `lost` of `expected`.
    fn counters(lost: u64, expected: u64) -> ReceiverCounters {
        ReceiverCounters {
            quality_lost: lost,
            quality_expected: expected,
            ..ReceiverCounters::default()
        }
    }

    /// Counters of a receiver synced at `offset_us`.
    fn offset(offset_us: i64) -> ReceiverCounters {
        ReceiverCounters {
            clock_offset_us: Some(offset_us),
            ..counters(0, 100)
        }
    }

    // Mutation: judge `clock_offset_us` itself instead of its growth
    // from the receiver's first synced offset. Ten relay hops add
    // 20 ms to the offset; that is latency, not drift.
    #[test]
    fn a_constant_offset_is_not_drift() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..4 {
            assert_eq!(d.observe_receiver("es1", offset(20_116)), Health::Healthy);
            d.end_epoch();
        }
    }

    // Mutations: take the baseline from the first observation even
    // before sync, or move it with every epoch.
    #[test]
    fn drift_is_growth_from_the_first_synced_offset() {
        let mut d = FleetDetector::new(HealPolicy::default());
        let unsynced = counters(0, 100);
        assert_eq!(d.observe_receiver("es1", unsynced), Health::Healthy);
        d.end_epoch();
        assert_eq!(d.observe_receiver("es1", offset(20_116)), Health::Healthy);
        d.end_epoch();
        assert_eq!(d.observe_receiver("es1", offset(30_116)), Health::Healthy);
        d.end_epoch();
        assert_eq!(d.observe_receiver("es1", offset(40_116)), Health::Sick);
        d.end_epoch();
        assert_eq!(d.observe_receiver("es1", offset(116)), Health::Sick);
    }

    // Mutation: `unwrap_or(now)` → `unwrap_or_default()` in
    // `observe_receiver` — a late joiner's whole history reads as one
    // epoch's loss.
    #[test]
    fn receiver_first_seen_mid_run_reads_unmoved() {
        let mut d = FleetDetector::new(HealPolicy::default());
        d.observe_receiver("es1", counters(0, 100));
        d.end_epoch();
        let late = ReceiverCounters {
            dropped_late: 50,
            ..counters(500, 600)
        };
        assert_eq!(d.observe_receiver("es2", late), Health::Healthy);
        d.end_epoch();
        // Its baseline was kept: the next epoch's growth counts.
        let worse = ReceiverCounters {
            dropped_late: 50,
            ..counters(530, 700)
        };
        assert_eq!(d.observe_receiver("es2", worse), Health::Sick);
    }

    // Mutation: divide by `Δlost + Δexpected`, as a count of packets
    // received needed — 20 of 130 would read 0.133, not sick.
    #[test]
    fn loss_fraction_is_lost_over_expected() {
        let mut d = FleetDetector::new(HealPolicy::default());
        d.observe_receiver("es1", counters(10, 1_000));
        d.end_epoch();
        assert_eq!(d.observe_receiver("es1", counters(30, 1_130)), Health::Sick);
    }

    // Mutations: count `nacks_sent` itself instead of its growth, or
    // against a zero baseline for a receiver first seen mid-run.
    #[test]
    fn retransmits_requested_sums_each_receivers_nack_growth() {
        let mut d = FleetDetector::new(HealPolicy::default());
        let asked = |nacks_sent| ReceiverCounters {
            nacks_sent,
            ..counters(0, 100)
        };
        d.observe_receiver("es1", asked(3));
        d.end_epoch();
        d.observe_receiver("es1", asked(5));
        d.observe_receiver("es2", asked(40));
        d.end_epoch();
        d.observe_receiver("es1", asked(5));
        d.observe_receiver("es2", asked(47));
        d.end_epoch();
        assert_eq!(d.stats.retransmits_requested, 2 + 7);
    }

    // Mutation: drop `c.active &&` from `observe_channel`.
    #[test]
    fn channel_never_seen_active_never_fails_over() {
        let mut d = FleetDetector::new(HealPolicy::default());
        for _ in 0..6 {
            d.observe_channel(0, 0, true);
            assert!(d.end_epoch().is_empty());
        }
        assert_eq!(d.stats.failovers, 0);
    }

    // Mutation: drop `&& standby_ready` from `observe_channel`.
    #[test]
    fn no_promotion_without_a_ready_standby() {
        let mut d = FleetDetector::new(HealPolicy::default());
        d.observe_channel(0, 10, false);
        d.end_epoch();
        for _ in 0..6 {
            d.observe_channel(0, 10, false);
            assert!(d.end_epoch().is_empty());
        }
        assert_eq!(d.stats.failovers, 0);
    }

    // Mutations: `FAILOVER_AFTER` 1 or 3 (or `>=` → `>`) moves the
    // decision off the second stalled epoch; reading `fail_over`
    // without `std::mem::take` in `end_epoch` repeats it.
    #[test]
    fn failover_decided_once_after_two_stalled_epochs() {
        let mut d = FleetDetector::new(HealPolicy::default());
        // Epoch 1: the channel is seen sending.
        d.observe_channel(0, 10, true);
        d.observe_channel(1, 10, true);
        assert!(d.end_epoch().is_empty());
        // Epoch 2: channel 0 falls silent; channel 1 keeps sending.
        d.observe_channel(0, 10, true);
        d.observe_channel(1, 20, true);
        assert!(d.end_epoch().is_empty(), "one silent epoch is not a stall");
        // Epoch 3: the second silent epoch.
        d.observe_channel(0, 10, true);
        d.observe_channel(1, 30, true);
        assert_eq!(d.end_epoch(), vec![HealAction::Failover { channel: 0 }]);
        // Promoted: its standby is no longer ready, and the primary's
        // counter never moves again.
        for _ in 0..4 {
            d.observe_channel(0, 10, false);
            assert!(d.end_epoch().is_empty());
        }
        assert_eq!(d.stats.failovers, 1);
    }
}
