//! E-SYNC: playback synchronization (§3.2).
//!
//! "In earlier versions of the system this problem was most severe when
//! ESs were started at different times in the middle of the stream."
//! The experiment starts speakers at staggered times into a click-train
//! stream and measures the pairwise playback offset by
//! cross-correlating the DAC taps. It also reproduces the epsilon
//! warning: "It is important to note however that it is necessary to
//! provide an epsilon value ... If this is not done than data will be
//! unnecessarily thrown out and skipping in playback will be
//! noticeable" — shown by running a jittery LAN against epsilon = 0.

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

/// Result of the staggered-join sync measurement.
#[derive(Debug)]
pub struct SyncRun {
    /// Pairwise playback offsets versus speaker 0, in milliseconds.
    pub offsets_ms: Vec<f64>,
}

/// Staggered-join playback offsets across `n` speakers.
pub fn run_staggered(n: usize, seed: u64) -> SyncRun {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "clicks")
        .source(Source::Impulses(11_025)) // 4 clicks/s.
        .policy(CompressionPolicy::Never)
        .duration(SimDuration::from_secs(14));
    let mut builder = SystemBuilder::new(seed).channel(spec);
    for i in 0..n {
        let at = SimDuration::from_millis(1_300 * i as u64);
        // The offsets are cross-correlations of what each DAC played.
        let spec = SpeakerSpec::new(format!("es{i}"), group).starting_at(at);
        builder = builder.speaker(spec.capture_output());
    }
    let mut sys = builder.build();
    sys.run_until(SimTime::from_secs(12));
    let mut offsets_ms = Vec::new();
    for i in 1..n {
        let off = sys
            .playback_offset(0, i, SimTime::from_secs(8), SimDuration::from_millis(200))
            .map(|d| d.as_secs_f64() * 1_000.0)
            .unwrap_or(f64::NAN);
        offsets_ms.push(off);
    }
    SyncRun { offsets_ms }
}

/// Result of one epsilon point.
#[derive(Debug)]
pub struct EpsilonRun {
    /// Packets discarded as late over the run.
    pub dropped_late: u64,
    /// Fraction of packets discarded.
    pub drop_fraction: f64,
}

/// Runs a jittery LAN against a given epsilon.
pub fn run_epsilon(epsilon_ms: u64, seed: u64) -> EpsilonRun {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "music")
        .policy(CompressionPolicy::Never)
        .duration(SimDuration::from_secs(12))
        // A tight playout budget: jitter of the same order makes some
        // packets genuinely late, which is when epsilon matters.
        .playout_delay(SimDuration::from_millis(4));
    let mut sys = SystemBuilder::new(seed)
        .lan(LanConfig::lossy(0.0, SimDuration::from_millis(8)))
        .channel(spec)
        .speaker(SpeakerSpec::new("es", group).epsilon(SimDuration::from_millis(epsilon_ms)))
        .build();
    sys.run_until(SimTime::from_secs(11));
    let st = sys.speaker(0).expect("speaker").stats();
    let total = st.data_packets + st.dropped_late;
    EpsilonRun {
        dropped_late: st.dropped_late,
        drop_fraction: if total == 0 {
            0.0
        } else {
            st.dropped_late as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_speakers_converge_below_audibility() {
        let r = run_staggered(3, 7);
        println!("3 speakers joined 1.3 s apart, seed 7: {r:?}");
        assert_eq!(r.offsets_ms.len(), 2);
        for (i, off) in r.offsets_ms.iter().enumerate() {
            assert!(off.is_finite(), "offset {i} did not lock");
            assert!(
                *off <= 60.0,
                "speaker {} offset {off} ms — audible echo territory",
                i + 1
            );
        }
    }

    #[test]
    fn zero_epsilon_throws_data_away_with_jitter() {
        let tight = run_epsilon(0, 3);
        let leeway = run_epsilon(20, 3);
        println!("epsilon 0 ms, seed 3: {tight:?}\nepsilon 20 ms, seed 3: {leeway:?}");
        assert!(
            tight.dropped_late > leeway.dropped_late * 3,
            "eps=0 dropped {} vs eps=20ms dropped {}",
            tight.dropped_late,
            leeway.dropped_late
        );
        assert!(
            leeway.drop_fraction < 0.02,
            "epsilon should make drops rare: {}",
            leeway.drop_fraction
        );
    }
}
