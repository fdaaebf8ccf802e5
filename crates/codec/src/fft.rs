//! An iterative radix-2 complex FFT for the MDCT fast path.
//!
//! The MDCT in [`crate::mdct`] folds its window to N samples and
//! reduces both its forward and inverse transforms to one complex FFT
//! of N/2 points (a DCT-IV between two twiddle passes), so a single
//! engine here serves both directions. The implementation is the
//! textbook decimation-in-time form — log2(len) butterfly passes
//! against a precomputed twiddle table over bit-reversed input — run
//! out of place, with the first two passes fused into the gather: each
//! group of four outputs reads its four bit-reversed inputs straight
//! from the caller's buffer and runs both of their butterfly passes in
//! registers, so there is no permutation pass and no memory pass of its
//! own for either. Every butterfly is the same operation on the same
//! operands as in the in-place form (same twiddle, same complex
//! multiply, same order), so the output is identical to the bit; the
//! in-place form is kept as the oracle in `tests/fft_mdct_prop.rs`.
//! Only power-of-two lengths from 4 up are supported; the MDCT falls
//! back to its direct reference transform for anything else.

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
    /// `rev4[m]` is the bit reversal of `4m` within `0..len`. The
    /// other three members of that group of four reverse to it plus
    /// `len/2`, `len/4` and `3len/4`: the two low bits of the index
    /// become the two high bits of its reversal.
    rev4: Vec<u32>,
}

impl Fft {
    /// Creates an engine for transforms of `len` points.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two or is smaller than 4.
    pub fn new(len: usize) -> Self {
        assert!(
            len >= 4 && len.is_power_of_two(),
            "FFT length must be a power of two of at least 4"
        );
        let mut twiddles = Vec::with_capacity(len - 2);
        let mut half = 2usize;
        while half < len {
            for k in 0..half {
                let theta = -core::f32::consts::PI * k as f32 / half as f32;
                twiddles.push(Complex32::from_angle(theta));
            }
            half *= 2;
        }
        let bits = len.trailing_zeros();
        let rev4 = (0..len as u32 / 4)
            .map(|m| (4 * m).reverse_bits() >> (32 - bits))
            .collect();
        Fft {
            len,
            twiddles,
            rev4,
        }
    }

    /// Forward transform `out[k] = Σ_t input[t]·e^{-2πi tk/len}`.
    ///
    /// # Panics
    ///
    /// Panics if either buffer's length differs from the engine length.
    pub fn forward(&self, input: &[Complex32], out: &mut [Complex32]) {
        assert_eq!(input.len(), self.len, "input must match FFT length");
        assert_eq!(out.len(), self.len, "output must match FFT length");
        // Gather and the first two passes (half = 1, then half = 2):
        // output group m holds the inputs whose indices reverse to
        // 4m..4m+4, and its two passes touch nothing outside the group.
        let q = self.len / 4;
        let (lo, hi) = input.split_at(2 * q);
        let (i0, i1) = lo.split_at(q);
        let (i2, i3) = hi.split_at(q);
        let (w0, w1) = (self.twiddles[0], self.twiddles[1]);
        for (quad, &r) in out.chunks_exact_mut(4).zip(&self.rev4) {
            let r = r as usize;
            let (a, b, c, d) = (i0[r], i2[r], i1[r], i3[r]);
            let (s0, s1) = (a + b, a - b);
            let (s2, s3) = (c + d, c - d);
            let (t0, t1) = (s2 * w0, s3 * w1);
            quad[0] = s0 + t0;
            quad[1] = s1 + t1;
            quad[2] = s0 - t0;
            quad[3] = s1 - t1;
        }
        // Remaining passes: split each block into its low/high halves
        // and walk them in lockstep with the strided twiddles, keeping
        // every access bounds-check-free.
        let mut half = 4usize;
        let mut off = 2usize;
        while half < self.len {
            let stage = &self.twiddles[off..off + half];
            for block in out.chunks_exact_mut(2 * half) {
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
        for len in [4usize, 8, 16, 64, 256, 1024] {
            let input: Vec<Complex32> = (0..len)
                .map(|_| Complex32::new(rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5))
                .collect();
            let want = dft(&input);
            let fft = Fft::new(len);
            let mut got = vec![Complex32::ZERO; len];
            fft.forward(&input, &mut got);
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
        let mut impulse = vec![Complex32::ZERO; 16];
        impulse[0] = Complex32::new(1.0, 0.0);
        let mut buf = vec![Complex32::ZERO; 16];
        fft.forward(&impulse, &mut buf);
        for (k, v) in buf.iter().enumerate() {
            assert!((v.re - 1.0).abs() < 1e-6 && v.im.abs() < 1e-6, "bin {k}");
        }
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let fft = Fft::new(32);
        let mut buf = vec![Complex32::ZERO; 32];
        fft.forward(&[Complex32::new(1.0, 0.0); 32], &mut buf);
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
    #[should_panic(expected = "at least 4")]
    fn two_points_panics() {
        let _ = Fft::new(2);
    }

    #[test]
    #[should_panic(expected = "match FFT length")]
    fn wrong_buffer_length_panics() {
        let fft = Fft::new(8);
        let mut buf = vec![Complex32::ZERO; 8];
        fft.forward(&[Complex32::ZERO; 4], &mut buf);
    }
}
