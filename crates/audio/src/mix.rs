//! Gain.
//!
//! §5.2 of the paper sketches the Ethernet Speaker's planned
//! "automation": set the output volume from the ambient noise level.
//! The speaker's auto-volume picks a gain in dB; this module holds the
//! conversions between dB and linear gain and the saturating multiply
//! that applies one to a block.

/// Converts decibels to a linear gain factor.
pub fn db_to_gain(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Converts a linear gain factor to decibels; clamps factors `<= 0` to
/// -120 dB.
pub fn gain_to_db(gain: f64) -> f64 {
    if gain <= 0.0 {
        -120.0
    } else {
        20.0 * gain.log10()
    }
}

/// Applies a linear gain with saturation.
pub fn apply_gain(samples: &mut [i16], gain: f64) {
    for s in samples {
        let v = (*s as f64 * gain).round();
        *s = v.clamp(i16::MIN as f64, i16::MAX as f64) as i16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_gain_conversions() {
        assert!((db_to_gain(0.0) - 1.0).abs() < 1e-12);
        assert!((db_to_gain(20.0) - 10.0).abs() < 1e-9);
        assert!((db_to_gain(-6.0) - 0.501).abs() < 0.001);
        assert!((gain_to_db(10.0) - 20.0).abs() < 1e-9);
        assert_eq!(gain_to_db(0.0), -120.0);
        assert_eq!(gain_to_db(-1.0), -120.0);
    }

    #[test]
    fn apply_gain_scales_and_saturates() {
        let mut s = vec![100i16, -100, 30_000];
        apply_gain(&mut s, 2.0);
        assert_eq!(s, vec![200, -200, 32_767]);
        let mut s = vec![i16::MIN];
        apply_gain(&mut s, 3.0);
        assert_eq!(s, vec![i16::MIN]);
    }
}
