//! E-AVOL: automatic volume from ambient noise (§5.2).
//!
//! The scenario: an announcement channel playing into a room whose
//! noise level steps quiet → loud → quiet. The speaker's gain must
//! rise with the noise and fall back — and a background-music speaker
//! in a silent room must turn itself down.

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime, TimeSeries};
use es_speaker::{AmbientProfile, AutoVolumeConfig};

/// Result of the auto-volume scenario.
#[derive(Debug)]
pub struct AvolRun {
    /// Gain (dB) sampled once per second.
    pub gain_db_series: TimeSeries,
    /// Mean gain during the quiet phase (dB).
    pub quiet_gain_db: f64,
    /// Mean gain during the loud phase (dB).
    pub loud_gain_db: f64,
}

/// Runs the announcement scenario: quiet room until `t1`, loud factory
/// floor until `t2`, quiet again until `seconds`.
pub fn run_announcement(seconds: u64, seed: u64) -> AvolRun {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "pa")
        .source(Source::Tone(600.0))
        .policy(CompressionPolicy::Never)
        .duration(SimDuration::from_secs(seconds + 2));
    let t1 = seconds as f64 / 3.0;
    let t2 = 2.0 * seconds as f64 / 3.0;
    let profile = AmbientProfile::steps(vec![(0.0, 0.03), (t1, 0.5), (t2, 0.03)]);
    let mut sys = SystemBuilder::new(seed)
        .channel(spec)
        .speaker(
            SpeakerSpec::new("hall", group).auto_volume(AutoVolumeConfig::Announcement, profile),
        )
        .build();
    let mut series = TimeSeries::new("announcement gain dB");
    let mut quiet = Vec::new();
    let mut loud = Vec::new();
    for s in 1..=seconds {
        sys.run_until(SimTime::from_secs(s));
        let spk = sys.speaker(0).expect("speaker");
        let gain = spk.auto_gain().expect("auto volume enabled");
        let db = es_audio::mix::gain_to_db(gain);
        series.push(SimTime::from_secs(s), db);
        let t = s as f64;
        // Sample away from the transitions.
        if t > t1 * 0.5 && t < t1 * 0.95 {
            quiet.push(db);
        }
        if t > t1 + (t2 - t1) * 0.5 && t < t2 * 0.98 {
            loud.push(db);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    AvolRun {
        quiet_gain_db: mean(&quiet),
        loud_gain_db: mean(&loud),
        gain_db_series: series,
    }
}

/// Runs the background-music scenario: a normal room that goes silent
/// at the midpoint. Returns `(normal_gain_db, silent_gain_db)`.
pub fn run_music(seconds: u64, seed: u64) -> (f64, f64) {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "music")
        .source(Source::Music)
        .policy(CompressionPolicy::Never)
        .duration(SimDuration::from_secs(seconds + 2));
    let mid = seconds as f64 / 2.0;
    let profile = AmbientProfile::steps(vec![(0.0, 0.05), (mid, 0.003)]);
    let mut sys = SystemBuilder::new(seed)
        .channel(spec)
        .speaker(SpeakerSpec::new("lounge", group).auto_volume(AutoVolumeConfig::Music, profile))
        .build();
    let mut normal = Vec::new();
    let mut silent = Vec::new();
    for s in 1..=seconds {
        sys.run_until(SimTime::from_secs(s));
        let gain = sys.speaker(0).unwrap().auto_gain().unwrap();
        let db = es_audio::mix::gain_to_db(gain);
        let t = s as f64;
        if t > mid * 0.5 && t < mid * 0.95 {
            normal.push(db);
        }
        if t > mid + (seconds as f64 - mid) * 0.5 {
            silent.push(db);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&normal), mean(&silent))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announcements_fight_the_noise() {
        let r = run_announcement(18, 1);
        println!("announcement, seed 1, 18 s: {r:?}");
        assert!(
            r.loud_gain_db > r.quiet_gain_db + 6.0,
            "loud room must raise gain: quiet {} dB, loud {} dB",
            r.quiet_gain_db,
            r.loud_gain_db
        );
        assert!(!r.gain_db_series.is_empty());
    }

    #[test]
    fn music_follows_the_room_down() {
        let (normal, silent) = run_music(16, 2);
        println!("music, seed 2, 16 s: normal room {normal} dB, silent room {silent} dB");
        assert!(
            silent < normal - 4.0,
            "silent room must lower music: normal {normal} dB, silent {silent} dB"
        );
    }
}
