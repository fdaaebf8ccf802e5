//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates registry, so the
//! small subset of `rand` 0.8 this workspace actually uses is
//! implemented here: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and
//! `Rng::gen` for the handful of primitive types the simulator samples.
//!
//! The generator is SplitMix64 — not the ChaCha stream cipher the real
//! `StdRng` wraps, but statistically solid for simulation workloads and
//! fully deterministic for a given seed, which is all the workspace
//! relies on (nothing here is security-sensitive).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

/// A seedable generator, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The low-level word source, mirroring `rand::RngCore`.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Sampling of a primitive from the uniform "standard" distribution,
/// mirroring `rand::distributions::Standard` coverage.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize);

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: SplitMix64.
    ///
    /// Deterministic for a given seed; passes the statistical checks the
    /// simulator's distribution tests apply (mean/variance convergence).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Present so `clippy.toml`'s `disallowed-methods` entry for
/// `rand::thread_rng` resolves to a real path. Calling it anywhere in
/// the workspace is banned by that clippy lint, because all randomness
/// must flow from an explicit scenario seed (DESIGN.md §8). The stub is
/// deterministic on purpose: even if a call slipped past the lint it
/// could not smuggle host entropy into a replay.
pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng::seed_from_u64(0)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 2);
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn f64_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(4);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
