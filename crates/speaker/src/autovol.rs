//! Automatic volume control from ambient noise (§5.2).
//!
//! "One example will be to set the volume level automatically depending
//! on the ambient noise level and the type of audio stream. So for
//! background music the ES would lower the volume if the area is quiet
//! ... if an announcement is being made, then the volume should be
//! increased if there is a lot of background noise." The speaker uses
//! its microphone input, which "allows the ES to compare its own output
//! against the ambient levels".
//!
//! The microphone is simulated: it hears the room's ambient noise
//! profile plus a coupling fraction of the speaker's own output, and
//! the control loop estimates the ambient level by subtracting the
//! known output power — exactly the comparison the paper describes.

use es_audio::mix::db_to_gain;

/// Ambient RMS regarded as a "normal" room; the gain is 0 dB at this
/// level.
const REFERENCE_AMBIENT: f64 = 0.05;
/// Fraction of the speaker's own output power the microphone picks up.
const SELF_COUPLING: f64 = 0.1;

/// Auto-volume configuration: which of §5.2's two examples the
/// channel carries, which sets the control law's slope, gain bounds and
/// smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoVolumeConfig {
    /// Background music: follow the room down — quiet room, quiet
    /// music.
    Music,
    /// Announcements: fight the room — noisy room, louder speech.
    Announcement,
}

/// One preset's control law.
struct Law {
    /// dB of gain change per dB of ambient change.
    slope: f64,
    /// Lower gain bound in dB.
    min_gain_db: f64,
    /// Upper gain bound in dB.
    max_gain_db: f64,
    /// Per-update smoothing factor in `(0, 1]`.
    smoothing: f64,
}

impl AutoVolumeConfig {
    fn law(self) -> Law {
        match self {
            AutoVolumeConfig::Music => Law {
                slope: 0.8,
                min_gain_db: -30.0,
                max_gain_db: 6.0,
                smoothing: 0.25,
            },
            AutoVolumeConfig::Announcement => Law {
                slope: 1.0,
                min_gain_db: -6.0,
                max_gain_db: 18.0,
                smoothing: 0.5,
            },
        }
    }
}

/// The ambient-tracking gain controller.
#[derive(Debug, Clone)]
pub struct AutoVolume {
    cfg: AutoVolumeConfig,
    gain_db: f64,
}

impl AutoVolume {
    /// Creates a controller at 0 dB.
    pub fn new(cfg: AutoVolumeConfig) -> Self {
        AutoVolume { gain_db: 0.0, cfg }
    }

    /// The current gain as a linear factor.
    pub fn gain(&self) -> f64 {
        db_to_gain(self.gain_db)
    }

    /// Feeds one control period: `mic_rms` is what the microphone
    /// heard, `output_rms` what the speaker was playing (post-gain).
    /// Updates and returns the linear gain.
    pub fn update(&mut self, mic_rms: f64, output_rms: f64) -> f64 {
        // Powers add; subtract our own contribution to estimate the
        // room ("compare its own output against the ambient levels").
        let self_power = (output_rms * SELF_COUPLING).powi(2);
        let ambient_power = (mic_rms * mic_rms - self_power).max(0.0);
        let ambient = ambient_power.sqrt().max(1e-4);

        // A louder room raises the gain under both laws: announcements
        // fight the noise, music follows a quiet room down.
        let law = self.cfg.law();
        let ambient_db_rel = 20.0 * (ambient / REFERENCE_AMBIENT).log10();
        let target = (law.slope * ambient_db_rel).clamp(law.min_gain_db, law.max_gain_db);
        self.gain_db += (target - self.gain_db) * law.smoothing;
        self.gain_db = self.gain_db.clamp(law.min_gain_db, law.max_gain_db);
        db_to_gain(self.gain_db)
    }
}

/// A piecewise-constant ambient noise profile for scenarios: "the
/// factory floor goes loud at 9:00".
#[derive(Debug, Clone, Default)]
pub struct AmbientProfile {
    /// `(from_second, rms_level)` steps, sorted by time.
    steps: Vec<(f64, f64)>,
}

impl AmbientProfile {
    /// A constant ambient level.
    pub fn constant(rms: f64) -> Self {
        AmbientProfile {
            steps: vec![(0.0, rms)],
        }
    }

    /// Builds a profile from `(from_second, rms)` steps (sorted
    /// internally).
    pub fn steps(mut steps: Vec<(f64, f64)>) -> Self {
        steps.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN times"));
        AmbientProfile { steps }
    }

    /// The ambient RMS at `t` seconds.
    pub fn level_at(&self, t: f64) -> f64 {
        let mut level = 0.0;
        for &(from, rms) in &self.steps {
            if t >= from {
                level = rms;
            } else {
                break;
            }
        }
        level
    }
}

/// Simulates the microphone: ambient plus coupled self-output, powers
/// added.
pub fn microphone_rms(ambient_rms: f64, output_rms: f64) -> f64 {
    (ambient_rms * ambient_rms + (output_rms * SELF_COUPLING).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::mix::gain_to_db;

    fn settle(av: &mut AutoVolume, ambient: f64, output: f64, rounds: usize) -> f64 {
        let mut g = av.gain();
        for _ in 0..rounds {
            let mic = microphone_rms(ambient, output * g);
            g = av.update(mic, output * g);
        }
        g
    }

    #[test]
    fn announcements_get_louder_in_noise() {
        let mut av = AutoVolume::new(AutoVolumeConfig::Announcement);
        let quiet = settle(&mut av, 0.05, 0.2, 50);
        let mut av = AutoVolume::new(AutoVolumeConfig::Announcement);
        let noisy = settle(&mut av, 0.4, 0.2, 50);
        assert!(
            noisy > quiet * 2.0,
            "noisy room must raise announcement gain: {quiet} -> {noisy}"
        );
    }

    #[test]
    fn music_gets_quieter_in_quiet_rooms() {
        let mut av = AutoVolume::new(AutoVolumeConfig::Music);
        let normal = settle(&mut av, 0.05, 0.2, 50);
        let mut av = AutoVolume::new(AutoVolumeConfig::Music);
        let silent = settle(&mut av, 0.005, 0.2, 50);
        assert!(
            silent < normal / 2.0,
            "quiet room must lower music gain: {normal} -> {silent}"
        );
    }

    #[test]
    fn gain_respects_bounds() {
        let mut av = AutoVolume::new(AutoVolumeConfig::Announcement);
        let g = settle(&mut av, 0.99, 0.2, 200);
        assert!(gain_to_db(g) <= 18.0 + 1e-9);
        let mut av = AutoVolume::new(AutoVolumeConfig::Music);
        let g = settle(&mut av, 1e-6, 0.2, 200);
        assert!(gain_to_db(g) >= -30.0 - 1e-9);
    }

    #[test]
    fn self_output_is_subtracted() {
        // A speaker alone in a silent room must not chase its own
        // output upward: it hears the room as silent, and its gain
        // follows that of a speaker playing nothing there.
        let mut av = AutoVolume::new(AutoVolumeConfig::Announcement);
        let mut mute = AutoVolume::new(AutoVolumeConfig::Announcement);
        let g0 = av.gain();
        for _ in 0..50 {
            let out = 0.5 * av.gain();
            let mic = microphone_rms(0.0, out);
            av.update(mic, out);
            mute.update(0.0, 0.0);
            assert_eq!(av.gain(), mute.gain(), "self-output heard as ambient");
        }
        assert!(
            av.gain() < g0,
            "gain crept up on self-noise: {} -> {}",
            g0,
            av.gain()
        );
    }

    #[test]
    fn ambient_profile_steps() {
        let p = AmbientProfile::steps(vec![(10.0, 0.3), (0.0, 0.05), (20.0, 0.1)]);
        assert_eq!(p.level_at(0.0), 0.05);
        assert_eq!(p.level_at(9.9), 0.05);
        assert_eq!(p.level_at(10.0), 0.3);
        assert_eq!(p.level_at(19.9), 0.3);
        assert_eq!(p.level_at(25.0), 0.1);
        assert_eq!(AmbientProfile::default().level_at(5.0), 0.0);
        assert_eq!(AmbientProfile::constant(0.2).level_at(99.0), 0.2);
    }

    #[test]
    fn microphone_adds_powers() {
        let m = microphone_rms(0.3, 4.0);
        assert!((m - 0.5).abs() < 1e-9);
        assert_eq!(microphone_rms(0.3, 0.0), 0.3);
    }
}
