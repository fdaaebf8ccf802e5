//! The retained direct O(N²) MDCT, kept as a correctness reference.
//!
//! This is the transform the workspace originally shipped in
//! [`crate::mdct`]: a literal evaluation of the MDCT definition against
//! a precomputed cosine table. It is quadratic in the window length, so
//! the hot path now uses the FFT-based engine instead — but the direct
//! form is trivially auditable against the textbook formula, which
//! makes it the ground truth the property tests compare the fast path
//! to; nothing else runs it.

/// A direct MDCT/IMDCT engine for a fixed half-length `n` (window
/// length `2n`, producing `n` coefficients per window).
pub struct DirectMdct {
    n: usize,
    window: Vec<f32>,
    // cos_table[k * 2n + t] = cos(pi/n * (t + 0.5 + n/2) * (k + 0.5))
    cos_table: Vec<f32>,
}

impl DirectMdct {
    /// Creates an engine. `n` must be a positive even number.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(2),
            "MDCT half-length must be positive and even"
        );
        let two_n = 2 * n;
        let mut window = Vec::with_capacity(two_n);
        for t in 0..two_n {
            let w = (core::f32::consts::PI / two_n as f32 * (t as f32 + 0.5)).sin();
            window.push(w);
        }
        let mut cos_table = Vec::with_capacity(n * two_n);
        // Angles reach thousands of radians (π/n · 3n/2 · n at the far
        // corner); formed in f32 they carry ~3e-4 of phase error at
        // n = 512, so the table is evaluated in f64 and cast once.
        let base = core::f64::consts::PI / n as f64;
        for k in 0..n {
            for t in 0..two_n {
                let theta = base * (t as f64 + 0.5 + n as f64 / 2.0) * (k as f64 + 0.5);
                cos_table.push(theta.cos() as f32);
            }
        }
        DirectMdct {
            n,
            window,
            cos_table,
        }
    }

    /// Forward MDCT of one window of `2n` time samples into `n`
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward(&self, time: &[f32], coeffs: &mut [f32]) {
        assert_eq!(time.len(), 2 * self.n, "input must be one full window");
        assert_eq!(coeffs.len(), self.n, "output must hold n coefficients");
        let two_n = 2 * self.n;
        for (k, c) in coeffs.iter_mut().enumerate() {
            let row = &self.cos_table[k * two_n..(k + 1) * two_n];
            let mut acc = 0.0f32;
            for t in 0..two_n {
                acc += time[t] * self.window[t] * row[t];
            }
            *c = acc;
        }
    }

    /// Inverse MDCT of `n` coefficients into one window of `2n`
    /// windowed time samples, ready for 50% overlap-add.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn inverse(&self, coeffs: &[f32], time: &mut [f32]) {
        assert_eq!(coeffs.len(), self.n, "input must hold n coefficients");
        assert_eq!(time.len(), 2 * self.n, "output must be one full window");
        let two_n = 2 * self.n;
        let scale = 2.0 / self.n as f32;
        for (t, out) in time.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (k, &c) in coeffs.iter().enumerate() {
                acc += c * self.cos_table[k * two_n + t];
            }
            *out = acc * self.window[t] * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_reconstruction_is_exact_without_quantization() {
        let n = 64;
        let mdct = DirectMdct::new(n);
        // Two overlapping windows reconstruct the shared middle half
        // exactly (time-domain alias cancellation).
        let signal: Vec<f32> = (0..3 * n)
            .map(|t| ((t * 37 % 101) as f32 - 50.0) / 50.0)
            .collect();
        let mut c0 = vec![0.0f32; n];
        let mut c1 = vec![0.0f32; n];
        mdct.forward(&signal[..2 * n], &mut c0);
        mdct.forward(&signal[n..3 * n], &mut c1);
        let mut t0 = vec![0.0f32; 2 * n];
        let mut t1 = vec![0.0f32; 2 * n];
        mdct.inverse(&c0, &mut t0);
        mdct.inverse(&c1, &mut t1);
        for t in 0..n {
            let rec = t0[n + t] + t1[t];
            assert!((rec - signal[n + t]).abs() < 1e-4, "sample {t}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_n_panics() {
        let _ = DirectMdct::new(63);
    }
}
