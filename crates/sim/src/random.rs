//! Distribution sampling helpers on top of the seeded engine RNG.
//!
//! `rand` 0.8 ships only uniform sampling in-core; the simulator needs
//! exponential inter-arrival times (Poisson daemon wakeups), Gaussian
//! jitter (network delay variation) and a burst-loss chain that runs in
//! time. All three are implemented here from first principles so no
//! extra dependency is pulled in.

use rand::Rng;

use crate::time::{SimDuration, SimTime};

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

/// A Gilbert–Elliott two-state loss channel in continuous time: a
/// loss-free `Good` state and a `Bad` (burst) state that loses whatever
/// is sent while it lasts. Bursts last `mean_burst` on average
/// (exponentially distributed), and the chain spends a `loss` share of
/// all time in them.
///
/// The chain is read only at the instants something is sent. Each read
/// advances it from the last by the exact transition probability for
/// the time between: it is bad with probability
/// `loss + (x − loss)·e^(−Δt / τ)`, where `x` is 1 if it was bad at the
/// last read and `τ = mean_burst · (1 − loss)` is the chain's
/// relaxation time. So a burst covers whatever falls inside it, one
/// fragment or many, and reads far apart are independent. With a zero
/// `mean_burst` every read is an independent draw at `loss`.
///
/// The chain holds only its state and the instant of its last read; the
/// caller supplies the parameters and the RNG on every read so one
/// seeded engine RNG stays the single source of randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GilbertElliott {
    /// Whether the chain sat in the bursty `Bad` state at its last read.
    pub bad: bool,
    /// The instant of the last read; `None` before the first, which
    /// draws from the stationary distribution.
    last: Option<SimTime>,
}

impl GilbertElliott {
    /// A chain that has not been read yet.
    pub fn new() -> Self {
        GilbertElliott::default()
    }

    /// Advances the chain to `at` and returns whether it is bad there,
    /// which is also whether what is sent at `at` is lost. A read
    /// earlier than the last one is taken as simultaneous with it.
    pub fn bad_at<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        at: SimTime,
        loss: f64,
        mean_burst: SimDuration,
    ) -> bool {
        let relax = mean_burst.as_secs_f64() * (1.0 - loss);
        let p_bad = match self.last {
            Some(last) if relax > 0.0 => {
                let x = if self.bad { 1.0 } else { 0.0 };
                let dt = at.saturating_since(last).as_secs_f64();
                loss + (x - loss) * (-dt / relax).exp()
            }
            _ => loss,
        };
        self.bad = chance(rng, p_bad);
        self.last = Some(self.last.map_or(at, |last| last.max(at)));
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

    /// Reads `ge` every `step` for `n` reads; returns the share of reads
    /// that were bad and the mean length of a run of bad reads.
    fn read_every(
        ge: &mut GilbertElliott,
        step: SimDuration,
        n: u64,
        loss: f64,
        mean_burst: SimDuration,
    ) -> (f64, f64) {
        let mut r = rng();
        let (mut bad_reads, mut run, mut runs) = (0u64, 0u64, Vec::new());
        for i in 0..n {
            let lost = ge.bad_at(&mut r, SimTime::ZERO + step * i, loss, mean_burst);
            assert_eq!(lost, ge.bad);
            if lost {
                bad_reads += 1;
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let mean_run = runs.iter().sum::<u64>() as f64 / runs.len().max(1) as f64;
        (bad_reads as f64 / n as f64, mean_run)
    }

    #[test]
    fn gilbert_elliott_occupancy_and_bursts() {
        // 10 % of the time in bursts of mean 10 ms, read every 1 ms: a
        // burst stays over one read with probability
        // 1 − 0.9·(1 − e^(−1/9)), so runs of bad reads average ≈ 10.6.
        let (burst, ms) = (SimDuration::from_millis(10), SimDuration::from_millis(1));
        let (occupancy, mean_run) = read_every(&mut GilbertElliott::new(), ms, 200_000, 0.1, burst);
        assert!((occupancy - 0.1).abs() < 0.02, "occupancy {occupancy}");
        let expected = 1.0 / (0.9 * (1.0 - (-1.0f64 / 9.0).exp()));
        assert!(
            (mean_run - expected).abs() < 1.5,
            "mean run {mean_run} vs {expected}"
        );
        // Read every second instead, the same bursts cover one read at a
        // time: the chain forgets its state between reads.
        let secs = SimDuration::from_secs(1);
        let (occupancy, mean_run) =
            read_every(&mut GilbertElliott::new(), secs, 20_000, 0.1, burst);
        assert!((occupancy - 0.1).abs() < 0.02, "occupancy {occupancy}");
        assert!((mean_run - 1.0 / 0.9).abs() < 0.1, "mean run {mean_run}");
    }

    #[test]
    fn gilbert_elliott_degenerate_rates() {
        let ms = SimDuration::from_millis(1);
        let burst = SimDuration::from_millis(5);
        // Never enters the bad state: nothing lost.
        let mut ge = GilbertElliott::new();
        assert_eq!(read_every(&mut ge, ms, 1_000, 0.0, burst), (0.0, 0.0));
        // Always in a burst: every read lost.
        let (occupancy, _) = read_every(&mut GilbertElliott::new(), ms, 1_000, 1.0, burst);
        assert_eq!(occupancy, 1.0);
        // Bursts of no length: independent draws at the loss rate, even
        // for reads at one instant.
        let (occupancy, mean_run) = read_every(
            &mut GilbertElliott::new(),
            SimDuration::ZERO,
            20_000,
            0.2,
            SimDuration::ZERO,
        );
        assert!((occupancy - 0.2).abs() < 0.02, "occupancy {occupancy}");
        assert!((mean_run - 1.25).abs() < 0.1, "mean run {mean_run}");
        // Bursts of any length hold their state across reads at one
        // instant: a chain bad once stays bad.
        let mut ge = GilbertElliott {
            bad: true,
            last: Some(SimTime::ZERO),
        };
        assert_eq!(
            read_every(&mut ge, SimDuration::ZERO, 1_000, 0.2, burst).0,
            1.0
        );
    }
}
