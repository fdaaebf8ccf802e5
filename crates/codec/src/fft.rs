//! An iterative radix-2 complex FFT for the MDCT fast path.
//!
//! The MDCT in [`crate::mdct`] folds its window to N samples and
//! reduces both its forward and inverse transforms to one complex FFT
//! of N/2 points (a DCT-IV between two twiddle passes), so a single
//! engine here serves both directions. The implementation is the
//! textbook in-place decimation-in-time form: bit-reversal permutation
//! followed by log2(len) butterfly passes against a precomputed twiddle
//! table. Only power-of-two lengths are supported; the MDCT falls back
//! to its direct reference transform for anything else.

/// A single-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };

    /// Builds a complex number from Cartesian parts.
    pub fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// `e^{iθ}` for the given angle in radians.
    pub fn from_angle(theta: f32) -> Self {
        Complex32 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Scales both parts by a real factor.
    #[inline]
    pub fn scale(self, s: f32) -> Complex32 {
        Complex32 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl core::ops::Mul for Complex32 {
    type Output = Complex32;

    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl core::ops::Add for Complex32 {
    type Output = Complex32;

    #[inline]
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl core::ops::Sub for Complex32 {
    type Output = Complex32;

    #[inline]
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

/// A forward complex FFT engine for one fixed power-of-two length,
/// using the `e^{-2πi k/len}` kernel.
pub struct Fft {
    len: usize,
    /// Stage-packed twiddles: for each butterfly pass with half-width
    /// `h` (h = 2, 4, …, len/2), the `h` factors `e^{-2πi k/(2h)}`
    /// laid out contiguously — the inner loop walks them sequentially
    /// instead of striding through one shared table.
    twiddles: Vec<Complex32>,
    /// Bit-reversal permutation of `0..len`.
    rev: Vec<u32>,
}

impl Fft {
    /// Creates an engine for transforms of `len` points.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two or is smaller than 2.
    pub fn new(len: usize) -> Self {
        assert!(
            len >= 2 && len.is_power_of_two(),
            "FFT length must be a power of two"
        );
        let mut twiddles = Vec::with_capacity(len.saturating_sub(2));
        let mut half = 2usize;
        while half < len {
            for k in 0..half {
                let theta = -core::f32::consts::PI * k as f32 / half as f32;
                twiddles.push(Complex32::from_angle(theta));
            }
            half *= 2;
        }
        let bits = len.trailing_zeros();
        let rev = (0..len as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        Fft { len, twiddles, rev }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false; a valid engine has at least 2 points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward transform: `buf[k] = Σ_t buf[t]·e^{-2πi tk/len}`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the engine length.
    pub fn forward(&self, buf: &mut [Complex32]) {
        assert_eq!(buf.len(), self.len, "buffer must match FFT length");
        for (i, &r) in self.rev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                buf.swap(i, r);
            }
        }
        // First pass (half = 1): the twiddle is 1, so each butterfly is
        // a bare add/sub over adjacent pairs — no multiplies.
        for pair in buf.chunks_exact_mut(2) {
            let a = pair[0];
            let b = pair[1];
            pair[0] = a + b;
            pair[1] = a - b;
        }
        // Remaining passes: split each block into its low/high halves
        // and walk them in lockstep with the strided twiddles, keeping
        // every access bounds-check-free.
        let mut half = 2usize;
        let mut off = 0usize;
        while half < self.len {
            let stage = &self.twiddles[off..off + half];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let t = *b * w;
                    let x = *a;
                    *a = x + t;
                    *b = x - t;
                }
            }
            off += half;
            half *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Direct O(N²) DFT with the same kernel, for cross-checking.
    fn dft(input: &[Complex32]) -> Vec<Complex32> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex32::ZERO;
                for (t, &x) in input.iter().enumerate() {
                    let theta = -2.0 * core::f64::consts::PI * (t * k) as f64 / n as f64;
                    acc = acc + x * Complex32::new(theta.cos() as f32, theta.sin() as f32);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_direct_dft_across_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [2usize, 4, 8, 64, 256, 1024] {
            let input: Vec<Complex32> = (0..len)
                .map(|_| Complex32::new(rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5))
                .collect();
            let want = dft(&input);
            let fft = Fft::new(len);
            let mut got = input.clone();
            fft.forward(&mut got);
            let tol = 1e-3 * (len as f32).sqrt();
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g.re - w.re).abs() < tol && (g.im - w.im).abs() < tol,
                    "len {len} bin {k}: got ({}, {}) want ({}, {})",
                    g.re,
                    g.im,
                    w.re,
                    w.im
                );
            }
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let fft = Fft::new(16);
        let mut buf = vec![Complex32::ZERO; 16];
        buf[0] = Complex32::new(1.0, 0.0);
        fft.forward(&mut buf);
        for (k, v) in buf.iter().enumerate() {
            assert!((v.re - 1.0).abs() < 1e-6 && v.im.abs() < 1e-6, "bin {k}");
        }
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let fft = Fft::new(32);
        let mut buf = vec![Complex32::new(1.0, 0.0); 32];
        fft.forward(&mut buf);
        assert!((buf[0].re - 32.0).abs() < 1e-4);
        for v in &buf[1..] {
            assert!(v.re.abs() < 1e-3 && v.im.abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "match FFT length")]
    fn wrong_buffer_length_panics() {
        let fft = Fft::new(8);
        let mut buf = vec![Complex32::ZERO; 4];
        fft.forward(&mut buf);
    }
}
