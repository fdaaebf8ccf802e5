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
//! [`crate::reference`], which doubles as the execution fallback when
//! `n/2` is not a power of two (or `n = 2`, where it would be a
//! one-point FFT) and as the ground truth for the property tests. The
//! fast path agrees with it to rounding (≈ 1e-6 of the coefficient
//! scale), not bit for bit.
//!
//! Work is billed through a [`CostModel`]: the default bills what the
//! fast path actually performs, while [`CostModel::Direct`] preserves
//! the paper-fidelity Figure 4 calibration.

use std::cell::RefCell;

use es_sim::CostModel;

use crate::fft::{Complex32, Fft};
use crate::reference::DirectMdct;

/// The fold → DCT-IV → unfold engine (see the module docs).
struct FastMdct {
    /// `n/2`-point engine.
    fft: Fft,
    window: Vec<f32>,
    /// `pre[j] = e^{-iπ j / n}`, length `n/2`.
    pre: Vec<Complex32>,
    /// `post[k] = e^{-iπ (4k+1) / (4n)}`, length `n/2`.
    post: Vec<Complex32>,
}

impl FastMdct {
    /// DCT-IV of the `n` values in `io`, in place, through `z`.
    fn dct4(&self, io: &mut [f32], z: &mut [Complex32]) {
        let pairs = io.chunks_exact(2);
        let ends = pairs.clone().zip(pairs.rev());
        for ((slot, ends), &p) in z.iter_mut().zip(ends).zip(&self.pre) {
            if let ([even, _], [_, odd]) = ends {
                *slot = Complex32::new(*even, *odd) * p;
            }
        }
        self.fft.forward(z);
        let bins = z.iter().zip(&self.post);
        let ends = bins.clone().zip(bins.rev());
        for (pair, ((f, p), (g, q))) in io.chunks_exact_mut(2).zip(ends) {
            if let [even, odd] = pair {
                // Re(Z[k]·post[k]) and −Im(Z[k']·post[k']), k' = n/2−1−k.
                *even = f.re * p.re - f.im * p.im;
                *odd = -(g.re * q.im + g.im * q.re);
            }
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

enum Engine {
    Fft(FastMdct),
    Direct(DirectMdct),
}

/// An MDCT/IMDCT engine for a fixed half-length `n` (window length
/// `2n`, producing `n` coefficients per window).
pub struct Mdct {
    n: usize,
    cost_model: CostModel,
    engine: Engine,
    /// FFT workspace, length `n/2`. Interior mutability keeps `forward`/
    /// `inverse` at `&self` (the codec engine is shared behind `Rc`)
    /// while still being allocation-free per call.
    freq: RefCell<Vec<Complex32>>,
    /// Window-assembly workspace for the flat analyze/synthesize
    /// pipeline, length `2n`.
    asm: RefCell<Vec<f32>>,
}

impl Mdct {
    /// Creates an engine with the default (fast-path) cost model.
    /// `n` must be a positive even number.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd.
    pub fn new(n: usize) -> Self {
        Mdct::with_cost_model(n, CostModel::default())
    }

    /// Creates an engine billing work under `cost_model`. The cost
    /// model only changes the accounting; execution always takes the
    /// fastest correct path.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd.
    pub fn with_cost_model(n: usize, cost_model: CostModel) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(2),
            "MDCT half-length must be positive and even"
        );
        let two_n = 2 * n;
        let half = n / 2;
        let engine = if half >= 2 && half.is_power_of_two() {
            let mut window = Vec::with_capacity(two_n);
            for t in 0..two_n {
                window.push((core::f32::consts::PI / two_n as f32 * (t as f32 + 0.5)).sin());
            }
            let twiddle = |quarter_steps: usize| {
                let theta = -core::f64::consts::PI * quarter_steps as f64 / (4 * n) as f64;
                Complex32::new(theta.cos() as f32, theta.sin() as f32)
            };
            let pre: Vec<Complex32> = (0..half).map(|j| twiddle(4 * j)).collect();
            let post: Vec<Complex32> = (0..half).map(|k| twiddle(4 * k + 1)).collect();
            Engine::Fft(FastMdct {
                fft: Fft::new(half),
                window,
                pre,
                post,
            })
        } else {
            Engine::Direct(DirectMdct::new(n))
        };
        Mdct {
            n,
            cost_model,
            engine,
            freq: RefCell::new(vec![Complex32::ZERO; half]),
            asm: RefCell::new(vec![0.0; two_n]),
        }
    }

    /// The half-length (coefficients per window).
    pub fn half_len(&self) -> usize {
        self.n
    }

    /// The window length (`2 * half_len`).
    pub fn window_len(&self) -> usize {
        2 * self.n
    }

    /// The cost model work is billed under.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// The sine analysis/synthesis window, length `2n`.
    pub fn window(&self) -> &[f32] {
        match &self.engine {
            Engine::Fft(fast) => &fast.window,
            Engine::Direct(d) => d.window(),
        }
    }

    /// True when the O(N log N) FFT path is active: `n/2` is a power
    /// of two and at least 2, i.e. `n` is 4, 8, 16, ….
    pub fn uses_fft(&self) -> bool {
        matches!(self.engine, Engine::Fft(_))
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
        match &self.engine {
            Engine::Direct(d) => d.forward(time, coeffs),
            Engine::Fft(fast) => {
                let [a, b, c, d] = quarters(time);
                let [wa, wb, wc, wd] = quarters(&fast.window);
                let (u_lo, u_hi) = coeffs.split_at_mut(self.n / 2);
                let tail = windowed(c, wc).rev().zip(windowed(d, wd));
                for (u, (c, d)) in u_lo.iter_mut().zip(tail) {
                    *u = -c - d;
                }
                let head = windowed(a, wa).zip(windowed(b, wb).rev());
                for (u, (a, b)) in u_hi.iter_mut().zip(head) {
                    *u = a - b;
                }
                fast.dct4(coeffs, &mut self.freq.borrow_mut());
            }
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
        match &self.engine {
            Engine::Direct(d) => d.inverse(coeffs, time),
            Engine::Fft(fast) => {
                // v = DCT-IV(coeffs) is computed in the middle half of
                // `time`, then unfolded outwards and in place.
                let h = self.n / 2;
                let (q0, rest) = time.split_at_mut(h);
                let (mid, q3) = rest.split_at_mut(self.n);
                mid.copy_from_slice(coeffs);
                fast.dct4(mid, &mut self.freq.borrow_mut());
                let (q1, q2) = mid.split_at_mut(h);
                let [w0, w1, w2, w3] = quarters(&fast.window);
                let scale = 2.0 / self.n as f32;
                for ((out, &v_hi), &w) in q0.iter_mut().zip(q2.iter()).zip(w0) {
                    *out = scale * w * v_hi;
                }
                for ((out, &v_lo), &w) in q3.iter_mut().zip(q1.iter()).zip(w3) {
                    *out = scale * w * -v_lo;
                }
                let inner_w = w1.iter().zip(w2.iter().rev());
                for ((lo, hi), (&wl, &wh)) in q1.iter_mut().zip(q2.iter_mut().rev()).zip(inner_w) {
                    let (v_lo, v_hi) = (*lo, *hi);
                    *lo = scale * wl * -v_hi;
                    *hi = scale * wh * -v_lo;
                }
            }
        }
    }

    /// Multiply-accumulate operations billed per forward (or inverse)
    /// transform — the codec's unit of CPU work for the Figure 4 cost
    /// model. Under [`CostModel::Direct`] this is the `n·2n` table walk
    /// of the direct transform regardless of execution path; under
    /// [`CostModel::Fft`] it is the butterfly-plus-twiddle count of the
    /// fast path (falling back to the direct figure when the direct
    /// engine actually runs).
    pub fn ops_per_transform(&self) -> u64 {
        let direct = (self.n * 2 * self.n) as u64;
        match (self.cost_model, &self.engine) {
            (CostModel::Direct, _) | (CostModel::Fft, Engine::Direct(_)) => direct,
            (CostModel::Fft, Engine::Fft(_)) => {
                let n = self.n as u64;
                let passes = (self.n / 2).trailing_zeros() as u64;
                // n/4 butterflies per pass × log2(n/2) passes × ~6
                // MACs, plus the window-and-fold (2n) and the pre and
                // post twiddles (n/2 complex each at ~4 MACs).
                6 * (n / 4) * passes + 2 * n + 4 * n
            }
        }
    }

    /// Windows produced when analyzing `padded_len` samples
    /// (`padded_len / n + 1`; the signal is logically extended with `n`
    /// zeros on both sides).
    pub fn analyze_windows(&self, padded_len: usize) -> usize {
        padded_len / self.n + 1
    }

    /// Transforms a padded signal into flat MDCT coefficients with 50%
    /// overlap: window `w` lands in `out[w*n..(w+1)*n]`. `padded` must
    /// be a multiple of `n` samples and `out` must hold exactly
    /// [`Mdct::analyze_windows`]`(padded.len()) * n` values. No
    /// allocation is performed.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn analyze_into(&self, padded: &[f32], out: &mut [f32]) {
        let n = self.n;
        assert!(
            padded.len().is_multiple_of(n),
            "input must be a multiple of n"
        );
        let windows = self.analyze_windows(padded.len());
        assert_eq!(out.len(), windows * n, "output must hold windows * n");
        let mut asm = self.asm.borrow_mut();
        for w in 0..windows {
            // Window w covers padded[(w-1)*n .. (w+1)*n] with zero fill
            // outside the signal; each half is either a straight copy
            // or all zeros, so assembly is two memcpy-shaped moves
            // instead of a per-sample branch.
            {
                let (head, tail) = asm.split_at_mut(n);
                if w == 0 {
                    head.fill(0.0);
                } else {
                    head.copy_from_slice(&padded[(w - 1) * n..w * n]);
                }
                if w * n >= padded.len() {
                    tail.fill(0.0);
                } else {
                    tail.copy_from_slice(&padded[w * n..(w + 1) * n]);
                }
            }
            self.forward(&asm, &mut out[w * n..(w + 1) * n]);
        }
    }

    /// Reconstructs the signal from [`Mdct::analyze_into`]-shaped flat
    /// coefficients via overlap-add. `coeffs` holds `windows`
    /// consecutive blocks of `n` values; `out` is resized to
    /// `(windows - 1) * n` samples. The only allocation is `out`'s own
    /// growth.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` is not a multiple of `n`.
    pub fn synthesize_into(&self, coeffs: &[f32], out: &mut Vec<f32>) {
        let n = self.n;
        assert!(
            coeffs.len().is_multiple_of(n),
            "coefficients must be whole windows"
        );
        let windows = coeffs.len() / n;
        out.clear();
        if windows == 0 {
            return;
        }
        let out_len = (windows - 1) * n;
        out.resize(out_len, 0.0);
        let mut asm = self.asm.borrow_mut();
        for w in 0..windows {
            self.inverse(&coeffs[w * n..(w + 1) * n], &mut asm);
            // Window w overlaps out[(w-1)*n..(w+1)*n]; the first
            // window's left half and the last window's right half fall
            // outside the signal and are discarded, so each remaining
            // half is one chunked elementwise add.
            let (head, tail) = asm.split_at(n);
            if w > 0 {
                crate::dsp::accumulate(&mut out[(w - 1) * n..w * n], head);
            }
            if w + 1 < windows {
                crate::dsp::accumulate(&mut out[w * n..(w + 1) * n], tail);
            }
        }
    }
}

/// Convenience wrapper over [`Mdct::analyze_into`] that allocates the
/// flat coefficient buffer. Hot paths should reuse a scratch buffer
/// instead.
pub fn analyze(mdct: &Mdct, padded: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; mdct.analyze_windows(padded.len()) * mdct.half_len()];
    mdct.analyze_into(padded, &mut out);
    out
}

/// Convenience wrapper over [`Mdct::synthesize_into`] that allocates
/// the output buffer. Hot paths should reuse a scratch buffer instead.
pub fn synthesize(mdct: &Mdct, coeffs: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    mdct.synthesize_into(coeffs, &mut out);
    out
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
        for n in [4usize, 64, 256, 512] {
            let fast = Mdct::new(n);
            assert!(fast.uses_fft());
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
    fn sizes_without_a_half_length_fft_fall_back_to_direct() {
        // n/2 = 15 is not a power of two and n/2 = 1 would be a
        // one-point FFT; the engine must still be correct (via the
        // direct fallback) and bill direct cost.
        for n in [30usize, 2] {
            let mdct = Mdct::new(n);
            assert!(!mdct.uses_fft());
            assert_eq!(mdct.ops_per_transform(), (n * 2 * n) as u64);
            let signal = random_signal(10 * n, 3);
            let rec = synthesize(&mdct, &analyze(&mdct, &signal));
            for (i, (&a, &b)) in signal.iter().zip(&rec).enumerate() {
                assert!((a - b).abs() < 1e-4, "n {n} sample {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ops_accounting_follows_cost_model() {
        // Paper-fidelity billing: the full n·2n table walk.
        let direct = Mdct::with_cost_model(512, CostModel::Direct);
        assert_eq!(direct.ops_per_transform(), 512 * 1024);
        // Fast-path billing: 6·(n/4)·log2(n/2) + 2n + 4n.
        let fft = Mdct::new(512);
        assert_eq!(fft.cost_model(), CostModel::Fft);
        assert_eq!(fft.ops_per_transform(), 6 * 128 * 8 + 6 * 512);
        // The switch is accounting-only: both run the same engine.
        assert!(direct.uses_fft() && fft.uses_fft());
        assert!(direct.ops_per_transform() > 5 * fft.ops_per_transform());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_n_panics() {
        let _ = Mdct::new(63);
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
    fn analyze_into_checks_output_length() {
        let mdct = Mdct::new(32);
        let mut out = vec![0.0; 32];
        mdct.analyze_into(&[0.0; 64], &mut out);
    }
}
