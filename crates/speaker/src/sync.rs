//! Playback synchronization (§3.2).
//!
//! "Inside each periodic stream control packet we place a timestamp
//! that serves as a wall clock for the ESs. In addition to this
//! 'producer time', we send a timestamp within each audio data packet
//! that instructs the ES when it should play the data." The speaker
//! learns the producer/local clock offset from control packets —
//! assuming, as the paper does, that "everybody receives a multicast
//! packet at the same time" — and then sleeps or discards per packet:
//! "either sleeping until it is time to play or throwing away data up
//! until the current wall time", with "an epsilon value that provides
//! the ES with some leeway".

use es_sim::{SimDuration, SimTime};

/// Producer-to-local clock mapping learned from control packets.
#[derive(Debug, Clone, Default)]
pub struct ClockSync {
    /// `local - producer`, in microseconds (signed; the producer's
    /// clock may be "ahead" of a speaker that booted later).
    offset_us: Option<i64>,
}

impl ClockSync {
    /// Creates an unsynchronized clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once at least one control packet has been absorbed.
    pub fn is_synced(&self) -> bool {
        self.offset_us.is_some()
    }

    /// Absorbs a control packet received at local time `local_now`
    /// carrying `producer_time_us`.
    ///
    /// Transit and queueing can only make a control packet *late*, so
    /// the observed `local - producer` difference is always the true
    /// offset plus a non-negative delay. The estimator therefore keeps
    /// the minimum observation ever seen (the NTP lower-bound filter):
    /// the fastest control packet so far is the tightest bound on the
    /// true offset, and a delayed one — even the very first, if the
    /// network held it back — is corrected by the next packet that
    /// arrives on time and can never yank playback later again.
    ///
    /// The timestamp is wire input: one past `i64::MAX` has no signed
    /// offset, so the sample is refused — `false` — and changes nothing.
    pub fn on_control(&mut self, local_now: SimTime, producer_time_us: u64) -> bool {
        let Ok(producer) = i64::try_from(producer_time_us) else {
            return false;
        };
        // Local microseconds stay below 2^54, so this cannot overflow.
        let observed = local_now.as_micros() as i64 - producer;
        self.offset_us = Some(match self.offset_us {
            None => observed,
            Some(prev) => prev.min(observed),
        });
        true
    }

    /// The current offset estimate in microseconds (`local -
    /// producer`).
    pub fn offset_us(&self) -> Option<i64> {
        self.offset_us
    }

    /// Maps a producer-timeline deadline to local time. `None` until
    /// synchronized, and for a deadline local time cannot represent
    /// (the field is wire input). Deadlines that would land before the
    /// local epoch clamp to zero.
    pub fn to_local(&self, producer_us: u64) -> Option<SimTime> {
        let local = i64::try_from(producer_us)
            .ok()?
            .checked_add(self.offset_us?)?;
        (local.max(0) as u64)
            .checked_mul(1_000)
            .map(SimTime::from_nanos)
    }
}

/// The stock epsilon: lateness tolerated before data is discarded.
pub const DEFAULT_EPSILON: SimDuration = SimDuration::from_millis(20);

/// What to do with a packet whose (local) play deadline is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayDecision {
    /// The deadline is in the future: hold the data until then.
    Sleep(SimDuration),
    /// The deadline just passed, within epsilon: play immediately.
    PlayNow,
    /// Too late even with leeway: discard ("throwing away data up
    /// until the current wall time").
    Discard {
        /// How far past the deadline the packet was.
        late_by: SimDuration,
    },
}

/// Applies the paper's sleep/play/discard rule.
pub fn decide(deadline: SimTime, now: SimTime, epsilon: SimDuration) -> PlayDecision {
    if deadline > now {
        PlayDecision::Sleep(deadline - now)
    } else {
        let late = now - deadline;
        if late <= epsilon {
            PlayDecision::PlayNow
        } else {
            PlayDecision::Discard { late_by: late }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_maps_nothing() {
        let cs = ClockSync::new();
        assert!(!cs.is_synced());
        assert_eq!(cs.to_local(1_000), None);
        assert_eq!(cs.offset_us(), None);
    }

    #[test]
    fn first_control_snaps_offset() {
        let mut cs = ClockSync::new();
        // Local 10s, producer clock says 3s: offset = +7s.
        cs.on_control(SimTime::from_secs(10), 3_000_000);
        assert_eq!(cs.offset_us(), Some(7_000_000));
        assert_eq!(
            cs.to_local(4_000_000),
            Some(SimTime::from_secs(11)),
            "producer 4s plays at local 11s"
        );
    }

    #[test]
    fn delayed_control_cannot_raise_the_offset() {
        let mut cs = ClockSync::new();
        cs.on_control(SimTime::from_secs(10), 3_000_000);
        // An outlier control packet delayed by 80 ms observes a larger
        // offset; the minimum filter ignores it outright.
        cs.on_control(SimTime::from_micros(10_580_000), 3_500_000);
        assert_eq!(cs.offset_us(), Some(7_000_000));
    }

    #[test]
    fn delayed_first_control_is_corrected_by_a_faster_one() {
        let mut cs = ClockSync::new();
        // First control held back 70 ms by the network: the snap is
        // 70 ms too high.
        cs.on_control(SimTime::from_micros(10_070_000), 3_000_000);
        assert_eq!(cs.offset_us(), Some(7_070_000));
        // The next on-time control tightens the bound to the truth.
        cs.on_control(SimTime::from_micros(10_500_000), 3_500_000);
        assert_eq!(cs.offset_us(), Some(7_000_000));
    }

    #[test]
    fn negative_offset_speaker_booted_late() {
        let mut cs = ClockSync::new();
        // Speaker local clock 1s, producer has been up 60s.
        cs.on_control(SimTime::from_secs(1), 60_000_000);
        assert_eq!(cs.offset_us(), Some(-59_000_000));
        // A deadline at producer 61s is local 2s.
        assert_eq!(cs.to_local(61_000_000), Some(SimTime::from_secs(2)));
        // A deadline before the local epoch clamps.
        assert_eq!(cs.to_local(1_000_000), Some(SimTime::ZERO));
    }

    #[test]
    fn unrepresentable_timestamps_are_refused_not_wrapped() {
        let mut cs = ClockSync::new();
        assert!(!cs.on_control(SimTime::from_secs(1), 1 << 63));
        assert!(!cs.is_synced(), "a refused sample changes nothing");
        assert!(cs.on_control(SimTime::from_secs(10), 3_000_000));
        for forged in [i64::MAX as u64, 1 << 63, u64::MAX, u64::MAX / 1_000] {
            assert_eq!(cs.to_local(forged), None, "{forged}");
        }
        assert_eq!(cs.to_local(4_000_000), Some(SimTime::from_secs(11)));
    }

    #[test]
    fn decision_rules() {
        let eps = SimDuration::from_millis(20);
        let now = SimTime::from_secs(5);
        assert_eq!(
            decide(SimTime::from_millis(5_100), now, eps),
            PlayDecision::Sleep(SimDuration::from_millis(100))
        );
        assert_eq!(decide(now, now, eps), PlayDecision::PlayNow);
        assert_eq!(
            decide(SimTime::from_millis(4_990), now, eps),
            PlayDecision::PlayNow,
            "10 ms late is within epsilon"
        );
        assert_eq!(
            decide(SimTime::from_millis(4_900), now, eps),
            PlayDecision::Discard {
                late_by: SimDuration::from_millis(100)
            }
        );
    }

    #[test]
    fn zero_epsilon_discards_everything_late() {
        // The paper's warning: without leeway "data will be
        // unnecessarily thrown out".
        let now = SimTime::from_secs(5);
        let just_late = SimTime::from_nanos(now.as_nanos() - 1);
        assert!(matches!(
            decide(just_late, now, SimDuration::ZERO),
            PlayDecision::Discard { .. }
        ));
    }

    #[test]
    fn two_speakers_same_control_same_mapping() {
        // §3.2's uniformity assumption: identical arrival time gives
        // identical offsets, hence identical local deadlines.
        let mut a = ClockSync::new();
        let mut b = ClockSync::new();
        a.on_control(SimTime::from_millis(1_234), 1_000_000);
        b.on_control(SimTime::from_millis(1_234), 1_000_000);
        assert_eq!(a.to_local(2_000_000), b.to_local(2_000_000));
    }
}
