//! Modified Discrete Cosine Transform with a sine window.
//!
//! The OVL codec (the workspace's Ogg Vorbis stand-in) is a classic
//! windowed-MDCT transform coder. The sine window satisfies the
//! Princen–Bradley condition, so 50%-overlapped analysis/synthesis
//! windows reconstruct the signal exactly (time-domain alias
//! cancellation) before quantization is applied.
//!
//! # Fast path
//!
//! Both directions run one complex FFT of `n/2` points — a quarter of
//! the window length — by the factorisation every shipping transform
//! codec uses: *fold*, *DCT-IV*, *unfold*.
//!
//! **Fold.** Split the windowed input `xw = x·w` into quarters
//! `a b c d` of `n/2` samples. The MDCT phase
//! `(π/n)(t + ½ + n/2)(k + ½)` is odd-symmetric about `t = n/2` and
//! even-symmetric about `t = 3n/2`, so the `2n` inputs alias onto `n`
//! (time-domain aliasing, the thing overlap-add later cancels):
//!
//! - `u[m] = −xw[3n/2−1−m] − xw[3n/2+m]` for `m < n/2` (`−c_r − d`),
//! - `u[m] = xw[m−n/2] − xw[3n/2−1−m]` for `m ≥ n/2` (`a − b_r`),
//!
//! and `X = DCT-IV(u)`, `X[k] = Σ_m u[m]·cos((π/n)(m + ½)(k + ½))`.
//!
//! **DCT-IV of length `n` by an `n/2`-point FFT.** Pair the even
//! inputs with the odd ones read backwards and rotate:
//!
//! - `z[j] = (u[2j] + i·u[n−1−2j])·pre[j]`, `pre[j] = e^{−iπ·4j/(4n)}`,
//! - `Z = FFT_{n/2}(z)`,
//! - `y[k] = Z[k]·post[k]`, `post[k] = e^{−iπ(4k+1)/(4n)}`,
//! - `X[2k] = Re y[k]`, `X[n−1−2k] = −Im y[k]`.
//!
//! The three phases add up to `−(π/4n)(4j+1)(4k+1)`, which is the
//! DCT-IV angle of input `2j` against output `2k`; the backwards-read
//! partner and the odd outputs sit a quarter turn away, which is why
//! they land in the imaginary part.
//!
//! **Unfold.** The DCT-IV matrix is symmetric, so the inverse is the
//! same DCT-IV `v = DCT-IV(c)` followed by the transposed fold —
//! quarters `v_hi`, `−v_hi` reversed, `−v_lo` reversed, `−v_lo` —
//! times the `2/n` scale and the window.
//!
//! That is O(N log N) against the O(N²) direct evaluation retained in
//! [`crate::reference`] as the ground truth for the property tests.
//! The fast path agrees with it to rounding (≈ 1e-6 of the coefficient
//! scale), not bit for bit. It is the only engine: the [`Fft`] takes a
//! power-of-two length of at least four points, so [`Mdct::new`]
//! refuses a half-length `n` that is not a power of two of at least 8.
//!
//! # Passes over the data
//!
//! Each sample is touched as few times as the arithmetic needs:
//!
//! - The DCT-IV reads its input where it lies — the fold's output on
//!   analysis, the caller's coefficients on synthesis — pre-twiddles it
//!   into one FFT buffer, transforms it out of place into a second and
//!   post-twiddles from there into its destination. Nothing is copied
//!   in first.
//! - The unfold multiplies by one table, `(2/n)·window`. The product it
//!   replaces, `scale * w * v`, evaluates as `(scale·w)·v`, so the table
//!   gives the same bits.
//! - Analysis and synthesis work on a *framed plane*: the padded signal
//!   with `n` zeros on each side, so window `w` is the contiguous slice
//!   `plane[w·n..][..2n]` in both directions. Analysis transforms that
//!   slice in place; synthesis adds each window's IMDCT straight into
//!   it, so every output sample is `0.0 + tail_w + head_{w+1}` — the
//!   same sums, in the same order, as overlap-adding assembled windows.
//!
//! None of this changes an operation or its operands, so the output is
//! identical to the bit to the form that assembled each window and
//! copied the coefficients; that form is kept as the oracle in
//! `tests/fft_mdct_prop.rs`.
//!
//! Work is billed as the arithmetic this path performs
//! ([`Mdct::ops_per_transform`]).

use std::cell::RefCell;

use crate::fft::{Complex32, Fft};

/// An MDCT/IMDCT engine for a fixed half-length `n` (window length
/// `2n`, producing `n` coefficients per window): fold → DCT-IV →
/// unfold (see the module docs).
pub struct Mdct {
    n: usize,
    /// `n/2`-point engine.
    fft: Fft,
    window: Vec<f32>,
    /// `(2/n)·window`, the inverse's scale and window as one factor.
    synth_window: Vec<f32>,
    /// `pre[j] = e^{-iπ j / n}`, length `n/2`.
    pre: Vec<Complex32>,
    /// `post[k] = e^{-iπ (4k+1) / (4n)}`, length `n/2`.
    post: Vec<Complex32>,
    /// Per-call workspace. Interior mutability keeps
    /// `forward`/`inverse` at `&self` (the codec engine is shared
    /// behind `Rc`) while still being allocation-free per call.
    work: RefCell<Work>,
}

/// The per-call workspace.
struct Work {
    /// The pre-twiddled DCT-IV input, length `n/2`.
    z: Vec<Complex32>,
    /// Its spectrum, length `n/2`.
    spec: Vec<Complex32>,
    /// The inverse's DCT-IV output, length `n`.
    v: Vec<f32>,
}

impl Mdct {
    /// `u` folded from one window of `2n` time samples (see the module
    /// docs), into `u`'s `n` slots.
    fn fold(&self, time: &[f32], u: &mut [f32]) {
        let [a, b, c, d] = quarters(time);
        let [wa, wb, wc, wd] = quarters(&self.window);
        let (u_lo, u_hi) = u.split_at_mut(u.len() / 2);
        let tail = windowed(c, wc).rev().zip(windowed(d, wd));
        for (u, (c, d)) in u_lo.iter_mut().zip(tail) {
            *u = -c - d;
        }
        let head = windowed(a, wa).zip(windowed(b, wb).rev());
        for (u, (a, b)) in u_hi.iter_mut().zip(head) {
            *u = a - b;
        }
    }

    /// The DCT-IV of `u` up to its post-twiddle: `z` pre-twiddled from
    /// `u`, then `spec = FFT(z)`.
    fn spectrum(&self, u: &[f32], z: &mut [Complex32], spec: &mut [Complex32]) {
        let pairs = u.chunks_exact(2);
        let ends = pairs.clone().zip(pairs.rev());
        for ((slot, ends), &p) in z.iter_mut().zip(ends).zip(&self.pre) {
            if let ([even, _], [_, odd]) = ends {
                *slot = Complex32::new(*even, *odd) * p;
            }
        }
        self.fft.forward(z, spec);
    }

    /// The DCT-IV's post-twiddle, from `spec` into its `n` outputs.
    fn post_twiddle(&self, spec: &[Complex32], out: &mut [f32]) {
        let bins = spec.iter().zip(&self.post);
        let ends = bins.clone().zip(bins.rev());
        for (pair, ((f, p), (g, q))) in out.chunks_exact_mut(2).zip(ends) {
            if let [even, odd] = pair {
                // Re(Z[k]·post[k]) and −Im(Z[k']·post[k']), k' = n/2−1−k.
                *even = f.re * p.re - f.im * p.im;
                *odd = -(g.re * q.im + g.im * q.re);
            }
        }
    }

    /// The unfold of `v = DCT-IV(coeffs)` into one window of `2n`
    /// samples, each handed to `put` with its destination.
    fn unfold(&self, v: &[f32], time: &mut [f32], mut put: impl FnMut(&mut f32, f32)) {
        let (v_lo, v_hi) = v.split_at(v.len() / 2);
        let (lo, hi) = time.split_at_mut(time.len() / 2);
        let (q0, q1) = lo.split_at_mut(lo.len() / 2);
        let (q2, q3) = hi.split_at_mut(hi.len() / 2);
        let [s0, s1, s2, s3] = quarters(&self.synth_window);
        for ((out, &x), &s) in q0.iter_mut().zip(v_hi).zip(s0) {
            put(out, s * x);
        }
        for ((out, &x), &s) in q1.iter_mut().zip(v_hi.iter().rev()).zip(s1) {
            put(out, s * -x);
        }
        for ((out, &x), &s) in q2.iter_mut().zip(v_lo.iter().rev()).zip(s2) {
            put(out, s * -x);
        }
        for ((out, &x), &s) in q3.iter_mut().zip(v_lo).zip(s3) {
            put(out, s * -x);
        }
    }
}

/// The four equal quarters of a window-length slice.
fn quarters(s: &[f32]) -> [&[f32]; 4] {
    let (lo, hi) = s.split_at(s.len() / 2);
    let (a, b) = lo.split_at(lo.len() / 2);
    let (c, d) = hi.split_at(hi.len() / 2);
    [a, b, c, d]
}

/// `x[i]·w[i]`, walkable from either end.
fn windowed<'a>(x: &'a [f32], w: &'a [f32]) -> impl DoubleEndedIterator<Item = f32> + 'a {
    x.iter().zip(w).map(|(&x, &w)| x * w)
}

impl Mdct {
    /// Creates an engine for half-length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 8.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 8 && n.is_power_of_two(),
            "MDCT half-length must be a power of two of at least 8"
        );
        let two_n = 2 * n;
        let half = n / 2;
        let mut window = Vec::with_capacity(two_n);
        for t in 0..two_n {
            window.push((core::f32::consts::PI / two_n as f32 * (t as f32 + 0.5)).sin());
        }
        let scale = 2.0 / n as f32;
        let synth_window = window.iter().map(|&w| scale * w).collect();
        let twiddle = |quarter_steps: usize| {
            let theta = -core::f64::consts::PI * quarter_steps as f64 / (4 * n) as f64;
            Complex32::new(theta.cos() as f32, theta.sin() as f32)
        };
        Mdct {
            n,
            window,
            synth_window,
            pre: (0..half).map(|j| twiddle(4 * j)).collect(),
            post: (0..half).map(|k| twiddle(4 * k + 1)).collect(),
            fft: Fft::new(half),
            work: RefCell::new(Work {
                z: vec![Complex32::ZERO; half],
                spec: vec![Complex32::ZERO; half],
                v: vec![0.0; n],
            }),
        }
    }

    /// The half-length (coefficients per window).
    pub fn half_len(&self) -> usize {
        self.n
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
        let mut work = self.work.borrow_mut();
        let Work { z, spec, .. } = &mut *work;
        self.fold(time, coeffs);
        self.spectrum(coeffs, z, spec);
        self.post_twiddle(spec, coeffs);
    }

    /// Inverse MDCT of `n` coefficients into one window of `2n`
    /// windowed time samples, ready for 50% overlap-add.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn inverse(&self, coeffs: &[f32], time: &mut [f32]) {
        self.inverse_with(coeffs, time, |out, x| *out = x);
    }

    /// [`Mdct::inverse`], handing each windowed sample to `put` with
    /// its destination instead of storing it.
    fn inverse_with(&self, coeffs: &[f32], time: &mut [f32], put: impl FnMut(&mut f32, f32)) {
        assert_eq!(coeffs.len(), self.n, "input must hold n coefficients");
        assert_eq!(time.len(), 2 * self.n, "output must be one full window");
        let mut work = self.work.borrow_mut();
        let Work { z, spec, v } = &mut *work;
        self.spectrum(coeffs, z, spec);
        self.post_twiddle(spec, v);
        self.unfold(v, time, put);
    }

    /// Multiply-accumulate operations billed per forward (or inverse)
    /// transform — the codec's unit of CPU work for the Figure 4 cost
    /// model: the butterfly-plus-twiddle count of the fast path.
    pub fn ops_per_transform(&self) -> u64 {
        let n = self.n as u64;
        let passes = (self.n / 2).trailing_zeros() as u64;
        // n/4 butterflies per pass × log2(n/2) passes × ~6 MACs, plus
        // the window-and-fold (2n) and the pre and post twiddles (n/2
        // complex each at ~4 MACs).
        6 * (n / 4) * passes + 2 * n + 4 * n
    }

    /// Windows produced when analyzing `padded_len` samples
    /// (`padded_len / n + 1`; the signal is logically extended with `n`
    /// zeros on both sides).
    pub fn analyze_windows(&self, padded_len: usize) -> usize {
        padded_len / self.n + 1
    }

    /// Length of the framed plane around `padded_len` samples: the
    /// signal with an `n`-sample frame on each side, so that window `w`
    /// is the contiguous slice `plane[w*n..][..2n]`.
    pub fn plane_len(&self, padded_len: usize) -> usize {
        padded_len + 2 * self.n
    }

    /// Transforms a framed plane ([`Mdct::plane_len`]: a padded signal
    /// of whole `n`-sample blocks with an `n`-sample frame before and
    /// after it)
    /// into flat MDCT coefficients with 50% overlap: window `w` is
    /// `plane[w*n..][..2n]`, read in place, and lands in
    /// `out[w*n..(w+1)*n]`. `out` must hold exactly
    /// `(plane.len() / n - 1) * n` values. No allocation is performed.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn analyze_plane(&self, plane: &[f32], out: &mut [f32]) {
        let n = self.n;
        assert!(
            plane.len().is_multiple_of(n) && plane.len() >= 2 * n,
            "plane must be whole blocks framed by n samples each side"
        );
        let windows = plane.len() / n - 1;
        assert_eq!(out.len(), windows * n, "output must hold windows * n");
        for (w, coeffs) in out.chunks_exact_mut(n).enumerate() {
            self.forward(&plane[w * n..][..2 * n], coeffs);
        }
    }

    /// Reconstructs a framed plane from [`Mdct::analyze_plane`]-shaped
    /// flat coefficients via overlap-add: the plane is zeroed, then
    /// each window's IMDCT is added into `plane[w*n..][..2n]`. The
    /// signal is `plane[n..plane.len() - n]`; the two frames receive
    /// the discarded outer halves of the first and last windows.
    /// `plane` must hold `coeffs.len() + n` values. No allocation is
    /// performed.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn synthesize_plane(&self, coeffs: &[f32], plane: &mut [f32]) {
        let n = self.n;
        assert!(
            coeffs.len().is_multiple_of(n),
            "coefficients must be whole windows"
        );
        assert_eq!(
            plane.len(),
            coeffs.len() + n,
            "plane must hold windows + 1 blocks"
        );
        plane.fill(0.0);
        for (w, window) in coeffs.chunks_exact(n).enumerate() {
            self.inverse_with(window, &mut plane[w * n..][..2 * n], |out, x| *out += x);
        }
    }
}

/// Convenience wrapper over [`Mdct::analyze_plane`] that frames
/// `padded` (a multiple of `n` samples) and allocates the flat
/// coefficient buffer. Hot paths should keep a framed plane instead.
///
/// # Panics
///
/// Panics if `padded.len()` is not a multiple of `n`.
pub fn analyze(mdct: &Mdct, padded: &[f32]) -> Vec<f32> {
    let n = mdct.half_len();
    let mut plane = vec![0.0f32; mdct.plane_len(padded.len())];
    plane[n..n + padded.len()].copy_from_slice(padded);
    let mut out = vec![0.0f32; mdct.analyze_windows(padded.len()) * n];
    mdct.analyze_plane(&plane, &mut out);
    out
}

/// Convenience wrapper over [`Mdct::synthesize_plane`] that allocates
/// the plane and returns the `(windows - 1) * n` samples inside its
/// frames. Hot paths should reuse a plane instead.
pub fn synthesize(mdct: &Mdct, coeffs: &[f32]) -> Vec<f32> {
    let n = mdct.half_len();
    if coeffs.is_empty() {
        return Vec::new();
    }
    let mut plane = vec![0.0f32; coeffs.len() + n];
    mdct.synthesize_plane(coeffs, &mut plane);
    plane[n..plane.len() - n].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
    }

    #[test]
    fn perfect_reconstruction_without_quantization() {
        let mdct = Mdct::new(64);
        let signal = random_signal(640, 1);
        let coeffs = analyze(&mdct, &signal);
        assert_eq!(coeffs.len(), 11 * 64);
        let rec = synthesize(&mdct, &coeffs);
        assert_eq!(rec.len(), signal.len());
        for (i, (&a, &b)) in signal.iter().zip(&rec).enumerate() {
            assert!((a - b).abs() < 1e-4, "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn reconstruction_holds_for_codec_block_size() {
        let mdct = Mdct::new(512);
        let signal = random_signal(2_048, 2);
        let rec = synthesize(&mdct, &analyze(&mdct, &signal));
        let err: f32 = signal
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(err < 1e-3, "max err {err}");
    }

    #[test]
    fn fft_path_matches_direct_reference() {
        for n in [8usize, 64, 256, 512] {
            let fast = Mdct::new(n);
            let reference = crate::reference::DirectMdct::new(n);
            let signal = random_signal(2 * n, n as u64);
            let mut got = vec![0.0f32; n];
            let mut want = vec![0.0f32; n];
            fast.forward(&signal, &mut got);
            reference.forward(&signal, &mut want);
            // Relative to the output's scale. The worst case over 400
            // random windows per size is 1.8e-6 forward and 1.7e-6 for
            // the inverse of those coefficients (n = 512; mostly the
            // reference's own 1024-term f32 accumulation — the old
            // 2n-point path measured the same); the bound is 4× that.
            let scale = want.iter().fold(1.0f32, |m, &c| m.max(c.abs()));
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 8e-6 * scale, "n {n} coeff {k}: {g} vs {w}");
            }
            let mut t_got = vec![0.0f32; 2 * n];
            let mut t_want = vec![0.0f32; 2 * n];
            fast.inverse(&want, &mut t_got);
            reference.inverse(&want, &mut t_want);
            let scale = t_want.iter().fold(1.0f32, |m, &c| m.max(c.abs()));
            for (t, (g, w)) in t_got.iter().zip(&t_want).enumerate() {
                assert!((g - w).abs() < 8e-6 * scale, "n {n} sample {t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn sine_concentrates_energy_in_few_coefficients() {
        let n = 256;
        let mdct = Mdct::new(n);
        // A bin-centered-ish sine: most energy should land in a couple
        // of coefficients (that is why transform coding compresses).
        let freq_bin = 10.5f32;
        let signal: Vec<f32> = (0..2 * n)
            .map(|t| (core::f32::consts::PI / n as f32 * freq_bin * (t as f32 + 0.5)).sin())
            .collect();
        let mut coeffs = vec![0.0f32; n];
        mdct.forward(&signal, &mut coeffs);
        let total: f32 = coeffs.iter().map(|c| c * c).sum();
        let mut sorted: Vec<f32> = coeffs.iter().map(|c| c * c).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top4: f32 = sorted.iter().take(4).sum();
        assert!(
            top4 / total > 0.95,
            "energy not concentrated: {}",
            top4 / total
        );
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mdct = Mdct::new(32);
        let rec = synthesize(&mdct, &analyze(&mdct, &vec![0.0; 128]));
        assert!(rec.iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn ops_accounting_is_the_fast_path_count() {
        // 6·(n/4)·log2(n/2) + 2n + 4n.
        assert_eq!(Mdct::new(512).ops_per_transform(), 6 * 128 * 8 + 6 * 512);
        assert_eq!(Mdct::new(8).ops_per_transform(), 6 * 2 * 2 + 6 * 8);
    }

    #[test]
    fn sizes_without_a_half_length_fft_are_refused() {
        // n/2 = 15 is not a power of two, n/2 = 1 or 2 is below the
        // FFT's four points, and an odd n has no half.
        for n in [0usize, 2, 4, 30, 63] {
            assert!(
                std::panic::catch_unwind(|| Mdct::new(n)).is_err(),
                "n = {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "full window")]
    fn wrong_window_length_panics() {
        let mdct = Mdct::new(32);
        let mut coeffs = vec![0.0; 32];
        mdct.forward(&[0.0; 10], &mut coeffs);
    }

    #[test]
    #[should_panic(expected = "windows * n")]
    fn analyze_plane_checks_output_length() {
        let mdct = Mdct::new(32);
        let mut out = vec![0.0; 32];
        mdct.analyze_plane(&[0.0; 128], &mut out);
    }

    #[test]
    #[should_panic(expected = "windows + 1 blocks")]
    fn synthesize_plane_checks_plane_length() {
        let mdct = Mdct::new(32);
        let mut plane = vec![0.0; 64];
        mdct.synthesize_plane(&[0.0; 64], &mut plane);
    }
}
