//! Distribution sampling helpers on top of the seeded engine RNG.
//!
//! `rand` 0.8 ships only uniform sampling in-core; the simulator needs
//! exponential inter-arrival times (Poisson daemon wakeups, packet
//! loss bursts) and Gaussian jitter (network delay variation). Both are
//! implemented here from first principles so no extra dependency is
//! pulled in.

use rand::Rng;

/// Samples an exponentially distributed value with the given rate
/// (events per unit). The mean of the distribution is `1 / rate`.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "exponential rate must be positive and finite, got {rate}"
    );
    // Inverse-CDF: -ln(U) / rate with U in (0, 1]. `gen::<f64>()` is in
    // [0, 1), so flip it to avoid ln(0).
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Samples a standard normal via the Box-Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Two uniforms in (0,1]; reject u1 == 0 by flipping the interval.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Samples a normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "std_dev must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Returns `true` with probability `p` (clamped to `[0, 1]`).
pub fn chance<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.gen::<f64>() < p
    }
}

/// A Gilbert–Elliott two-state loss chain: a loss-free `Good` state and
/// a `Bad` (burst) state that loses every packet, with per-step
/// transition probabilities between them. Mean burst length is `1 / p_bad_to_good`
/// steps; stationary bad-state occupancy is
/// `p_good_to_bad / (p_good_to_bad + p_bad_to_good)`.
///
/// The chain holds only its current state; the caller supplies the
/// parameters and the RNG on every step so one seeded engine RNG stays
/// the single source of randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GilbertElliott {
    /// Whether the chain currently sits in the bursty `Bad` state.
    pub bad: bool,
}

impl GilbertElliott {
    /// A chain starting in the `Good` state.
    pub fn new() -> Self {
        GilbertElliott { bad: false }
    }

    /// Advances the chain one step and returns the state it moved to:
    /// `true` for `Bad`, which is also whether this step's packet is
    /// lost.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        p_good_to_bad: f64,
        p_bad_to_good: f64,
    ) -> bool {
        let flip = if self.bad {
            chance(rng, p_bad_to_good)
        } else {
            chance(rng, p_good_to_bad)
        };
        if flip {
            self.bad = !self.bad;
        }
        self.bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xE5E5)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let rate = 4.0;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, rate)).sum::<f64>() / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean} too far from {expected}"
        );
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(exponential(&mut r, 0.1) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut r = rng();
        let _ = exponential(&mut r, 0.0);
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = rng();
        assert!(!chance(&mut r, 0.0));
        assert!(!chance(&mut r, -5.0));
        assert!(chance(&mut r, 1.0));
        assert!(chance(&mut r, 2.0));
    }

    #[test]
    fn chance_frequency_matches_probability() {
        let mut r = rng();
        let hits = (0..50_000).filter(|_| chance(&mut r, 0.25)).count();
        let freq = hits as f64 / 50_000.0;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn gilbert_elliott_occupancy_and_bursts() {
        let mut r = rng();
        let mut ge = GilbertElliott::new();
        // 10% of steps in the bad state on average; bursts of mean
        // length 10.
        let (g2b, b2g) = (1.0 / 90.0, 0.1);
        let n = 200_000;
        let mut bad_steps = 0u64;
        let mut run = 0u64;
        let mut runs = Vec::new();
        for _ in 0..n {
            let lost = ge.step(&mut r, g2b, b2g);
            assert_eq!(lost, ge.bad);
            if lost {
                bad_steps += 1;
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let occupancy = bad_steps as f64 / n as f64;
        assert!((occupancy - 0.1).abs() < 0.02, "occupancy {occupancy}");
        let mean_burst = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        assert!((mean_burst - 10.0).abs() < 1.5, "mean burst {mean_burst}");
    }

    #[test]
    fn gilbert_elliott_degenerate_rates() {
        let mut r = rng();
        // Never enters the bad state: nothing lost.
        let mut ge = GilbertElliott::new();
        for _ in 0..1_000 {
            assert!(!ge.step(&mut r, 0.0, 1.0));
            assert!(!ge.bad);
        }
        // Starts bad and never leaves: every packet lost.
        let mut stuck = GilbertElliott { bad: true };
        for _ in 0..1_000 {
            assert!(stuck.step(&mut r, 0.0, 0.0));
        }
    }
}
