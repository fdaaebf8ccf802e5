//! Property tests for the FFT-based MDCT fast path.
//!
//! Two contracts. First, the fast path must be indistinguishable (to a
//! few ulps of the signal scale: 8e-6 forward, 6e-7 inverse — 4× the
//! worst error seen) from the retained direct O(N²) reference, from the
//! smallest size the engine takes up to the codec's block, and OVL's
//! framing must keep its perfect-reconstruction property across packet
//! boundaries: the windowed transform over the stream's window grid is
//! lossless in any packet lengths, so a max-quality stream only carries
//! quantization noise.
//!
//! Second, the transform runs in fewer passes than it used to — a
//! gather-fused out-of-place FFT, a DCT-IV that reads the coefficients
//! where they lie, framed planes analysed in place and overlap-added
//! into, one deinterleave pass for all channels — without changing a
//! single floating-point operation. The multi-pass forms are kept in
//! [`oracle`], in this file only, and the current ones must equal them
//! *to the bit* (`to_bits`, not closeness) at every size up
//! to 1024 and every channel count from 1 to 8, on random data and on
//! all-zero, mixed ±0, subnormal and ±inf/NaN lanes.

use es_codec::dsp;
use es_codec::fft::{Complex32, Fft};
use es_codec::mdct::{analyze, synthesize, Mdct};
use es_codec::ovl::{BLOCK, DELAY};
use es_codec::reference::DirectMdct;
use es_codec::{OvlCodec, OvlSpan, OvlTail, MAX_QUALITY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MDCT half-lengths from the smallest (`n = 8`, a four-point FFT) to
/// the codec's block.
const SIZES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Every MDCT half-length up to 1024; the FFT runs at half of each.
const EXACT_SIZES: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];

/// FFT lengths up to 1024.
const FFT_SIZES: [usize; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// The transform as it ran before it ran in fewer passes, kept only as
/// the bit-exact oracle: the in-place FFT behind a bit-reversal swap
/// pass, the DCT-IV over a copy of its input, and window assembly with
/// an overlap-add accumulator. Every expression is the one the codec
/// used to evaluate.
mod oracle {
    use std::cell::RefCell;

    use es_codec::fft::Complex32;

    /// The in-place radix-2 FFT.
    pub struct Fft {
        len: usize,
        twiddles: Vec<Complex32>,
        rev: Vec<u32>,
    }

    impl Fft {
        pub fn new(len: usize) -> Self {
            assert!(len >= 2 && len.is_power_of_two());
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

        pub fn forward(&self, buf: &mut [Complex32]) {
            assert_eq!(buf.len(), self.len);
            for (i, &r) in self.rev.iter().enumerate() {
                let r = r as usize;
                if i < r {
                    buf.swap(i, r);
                }
            }
            for pair in buf.chunks_exact_mut(2) {
                let a = pair[0];
                let b = pair[1];
                pair[0] = a + b;
                pair[1] = a - b;
            }
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

    fn quarters(s: &[f32]) -> [&[f32]; 4] {
        let (lo, hi) = s.split_at(s.len() / 2);
        let (a, b) = lo.split_at(lo.len() / 2);
        let (c, d) = hi.split_at(hi.len() / 2);
        [a, b, c, d]
    }

    fn windowed<'a>(x: &'a [f32], w: &'a [f32]) -> impl DoubleEndedIterator<Item = f32> + 'a {
        x.iter().zip(w).map(|(&x, &w)| x * w)
    }

    /// The fast-path MDCT with its `freq` and `asm` workspaces.
    pub struct Mdct {
        n: usize,
        fft: Fft,
        window: Vec<f32>,
        pre: Vec<Complex32>,
        post: Vec<Complex32>,
        freq: RefCell<Vec<Complex32>>,
        asm: RefCell<Vec<f32>>,
    }

    impl Mdct {
        pub fn new(n: usize) -> Self {
            let two_n = 2 * n;
            let half = n / 2;
            assert!(half >= 2 && half.is_power_of_two());
            let mut window = Vec::with_capacity(two_n);
            for t in 0..two_n {
                window.push((core::f32::consts::PI / two_n as f32 * (t as f32 + 0.5)).sin());
            }
            let twiddle = |quarter_steps: usize| {
                let theta = -core::f64::consts::PI * quarter_steps as f64 / (4 * n) as f64;
                Complex32::new(theta.cos() as f32, theta.sin() as f32)
            };
            Mdct {
                n,
                fft: Fft::new(half),
                window,
                pre: (0..half).map(|j| twiddle(4 * j)).collect(),
                post: (0..half).map(|k| twiddle(4 * k + 1)).collect(),
                freq: RefCell::new(vec![Complex32::ZERO; half]),
                asm: RefCell::new(vec![0.0; two_n]),
            }
        }

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
                    *even = f.re * p.re - f.im * p.im;
                    *odd = -(g.re * q.im + g.im * q.re);
                }
            }
        }

        pub fn forward(&self, time: &[f32], coeffs: &mut [f32]) {
            let [a, b, c, d] = quarters(time);
            let [wa, wb, wc, wd] = quarters(&self.window);
            let (u_lo, u_hi) = coeffs.split_at_mut(self.n / 2);
            let tail = windowed(c, wc).rev().zip(windowed(d, wd));
            for (u, (c, d)) in u_lo.iter_mut().zip(tail) {
                *u = -c - d;
            }
            let head = windowed(a, wa).zip(windowed(b, wb).rev());
            for (u, (a, b)) in u_hi.iter_mut().zip(head) {
                *u = a - b;
            }
            self.dct4(coeffs, &mut self.freq.borrow_mut());
        }

        pub fn inverse(&self, coeffs: &[f32], time: &mut [f32]) {
            let h = self.n / 2;
            let (q0, rest) = time.split_at_mut(h);
            let (mid, q3) = rest.split_at_mut(self.n);
            mid.copy_from_slice(coeffs);
            self.dct4(mid, &mut self.freq.borrow_mut());
            let (q1, q2) = mid.split_at_mut(h);
            let [w0, w1, w2, w3] = quarters(&self.window);
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

        pub fn analyze_into(&self, padded: &[f32], out: &mut [f32]) {
            let n = self.n;
            let windows = padded.len() / n + 1;
            assert_eq!(out.len(), windows * n);
            let mut asm = self.asm.borrow_mut();
            for w in 0..windows {
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

        pub fn synthesize_into(&self, coeffs: &[f32], out: &mut Vec<f32>) {
            let n = self.n;
            let windows = coeffs.len() / n;
            out.clear();
            if windows == 0 {
                return;
            }
            out.resize((windows - 1) * n, 0.0);
            let mut asm = self.asm.borrow_mut();
            for w in 0..windows {
                self.inverse(&coeffs[w * n..(w + 1) * n], &mut asm);
                let (head, tail) = asm.split_at(n);
                if w > 0 {
                    accumulate(&mut out[(w - 1) * n..w * n], head);
                }
                if w + 1 < windows {
                    accumulate(&mut out[w * n..(w + 1) * n], tail);
                }
            }
        }
    }

    fn accumulate(acc: &mut [f32], add: &[f32]) {
        for (a, &v) in acc.iter_mut().zip(add) {
            *a += v;
        }
    }

    /// Channel `c` of `ch`, one channel per pass.
    pub fn deinterleave_normalize(samples: &[i16], ch: usize, c: usize, out: &mut [f32]) {
        if ch == 1 {
            for (o, &s) in out.iter_mut().zip(samples) {
                *o = s as f32 / 32_768.0;
            }
        } else {
            for (o, frame) in out.iter_mut().zip(samples.chunks_exact(ch)) {
                *o = frame[c] as f32 / 32_768.0;
            }
        }
    }
}

fn random_signal(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

fn random_i16(len: usize, seed: u64) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<i16>()).collect()
}

/// The lane kinds every bit-exact check runs on.
const KINDS: usize = 5;

/// `len` values of one kind: 0 random in ±1, 1 all `+0.0`, 2 random
/// `±0.0`, 3 random subnormals of both signs, 4 random in ±1 with
/// about one lane in eight replaced by `+inf`, `-inf` or a NaN.
fn lanes(len: usize, kind: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let sign = (rng.gen::<u32>() & 1) << 31;
            match kind {
                0 => rng.gen::<f32>() * 2.0 - 1.0,
                1 => 0.0,
                2 => f32::from_bits(sign),
                3 => f32::from_bits(sign | (rng.gen::<u32>() & 0x7F_FFFF).max(1)),
                _ => match rng.gen::<u32>() % 24 {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    2 => f32::NAN,
                    _ => rng.gen::<f32>() * 2.0 - 1.0,
                },
            }
        })
        .collect()
}

fn complex_lanes(len: usize, kind: usize, seed: u64) -> Vec<Complex32> {
    let flat = lanes(2 * len, kind, seed);
    flat.chunks_exact(2)
        .map(|p| Complex32::new(p[0], p[1]))
        .collect()
}

/// The first index whose bits differ, if any. A NaN equals any NaN:
/// IEEE 754 leaves the sign and payload of a NaN result unspecified,
/// and the compiler does not keep them either — it may evaluate
/// `-(a·b)` as `(-a)·b`, which flips a NaN's sign and no other value's.
/// Every other value, `±0.0` and the subnormals included, must match
/// to the bit. No NaN reaches the bitstream: quantization and the i16
/// clamp turn one of either sign into 0.
fn first_bit_difference(got: &[f32], want: &[f32]) -> Option<(usize, f32, f32)> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
        .map(|i| (i, got[i], want[i]))
}

fn complex_parts(v: &[Complex32]) -> Vec<f32> {
    v.iter().flat_map(|c| [c.re, c.im]).collect()
}

#[test]
fn fft_equals_the_in_place_form_on_every_lane_kind() {
    for len in FFT_SIZES {
        let fast = Fft::new(len);
        let old = oracle::Fft::new(len);
        for kind in 0..KINDS {
            for seed in 0..4 {
                let input = complex_lanes(len, kind, seed);
                let mut want = input.clone();
                old.forward(&mut want);
                let mut got = vec![Complex32::ZERO; len];
                fast.forward(&input, &mut got);
                let diff = first_bit_difference(&complex_parts(&got), &complex_parts(&want));
                assert_eq!(diff, None, "len {len} kind {kind} seed {seed}");
            }
        }
    }
}

#[test]
fn mdct_equals_the_copying_form_on_every_lane_kind() {
    for n in EXACT_SIZES {
        let fast = Mdct::new(n);
        let old = oracle::Mdct::new(n);
        for kind in 0..KINDS {
            let time = lanes(2 * n, kind, n as u64 ^ kind as u64);
            let (mut got, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
            fast.forward(&time, &mut got);
            old.forward(&time, &mut want);
            let diff = first_bit_difference(&got, &want);
            assert_eq!(diff, None, "forward n {n} kind {kind}");
            let coeffs = lanes(n, kind, !(n as u64) ^ kind as u64);
            let (mut got, mut want) = (vec![0.0f32; 2 * n], vec![0.0f32; 2 * n]);
            fast.inverse(&coeffs, &mut got);
            old.inverse(&coeffs, &mut want);
            let diff = first_bit_difference(&got, &want);
            assert_eq!(diff, None, "inverse n {n} kind {kind}");
        }
    }
}

proptest::proptest! {
    #[test]
    fn prop_fft_forward_matches_direct_reference(size_idx in 0usize..SIZES.len(), seed in 0u64..u64::MAX / 2) {
        let n = SIZES[size_idx];
        let fast = Mdct::new(n);
        let reference = DirectMdct::new(n);
        let signal = random_signal(2 * n, seed);
        let mut got = vec![0.0f32; n];
        let mut want = vec![0.0f32; n];
        fast.forward(&signal, &mut got);
        reference.forward(&signal, &mut want);
        let scale = want.iter().fold(1.0f32, |m, &c| m.max(c.abs()));
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            proptest::prop_assert!(
                (g - w).abs() < 8e-6 * scale,
                "n {} coeff {}: {} vs {}", n, k, g, w
            );
        }
    }

    #[test]
    fn prop_fft_inverse_matches_direct_reference(size_idx in 0usize..SIZES.len(), seed in 0u64..u64::MAX / 2) {
        let n = SIZES[size_idx];
        let fast = Mdct::new(n);
        let reference = DirectMdct::new(n);
        let coeffs = random_signal(n, seed ^ 0x9E37_79B9);
        let mut got = vec![0.0f32; 2 * n];
        let mut want = vec![0.0f32; 2 * n];
        fast.inverse(&coeffs, &mut got);
        reference.inverse(&coeffs, &mut want);
        let scale = want.iter().fold(1.0f32, |m, &c| m.max(c.abs()));
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            proptest::prop_assert!(
                (g - w).abs() < 6e-7 * scale,
                "n {} sample {}: {} vs {}", n, t, g, w
            );
        }
    }

    #[test]
    fn prop_overlap_add_reconstructs_perfectly(size_idx in 0usize..SIZES.len(), blocks in 1usize..6, seed in 0u64..u64::MAX / 2) {
        // The transform chain without quantization is lossless: analyze
        // then synthesize must return the input to within f32 noise.
        let n = SIZES[size_idx];
        let mdct = Mdct::new(n);
        let signal = random_signal(blocks * n, seed);
        let rec = synthesize(&mdct, &analyze(&mdct, &signal));
        proptest::prop_assert_eq!(rec.len(), signal.len());
        for (i, (&a, &b)) in signal.iter().zip(&rec).enumerate() {
            proptest::prop_assert!((a - b).abs() < 1e-3, "sample {}: {} vs {}", i, a, b);
        }
    }

    /// TDAC across packet boundaries. A continuous random signal, cut
    /// into packets of random lengths and framed the way OVL frames a
    /// stream, without quantization: each packet analyzes the stream
    /// grid's windows that end inside it, from the frames held from the
    /// packet before and its own; synthesizes them into its span; and
    /// completes the span's head with the tail the packet before left.
    /// What plays is the stream `DELAY` frames late, silence before it,
    /// within the overlap-add tolerance at every sample, boundaries
    /// included.
    #[test]
    fn prop_lapped_packets_rebuild_the_stream_across_every_boundary(
        lengths in proptest::collection::vec(1usize..=3_000, 1..8),
        seed in 0u64..u64::MAX / 2,
    ) {
        let mdct = Mdct::new(BLOCK);
        let signal = random_signal(lengths.iter().sum(), seed);
        let (mut held, mut tail, mut played) = (vec![0.0f32; BLOCK], Vec::new(), Vec::new());
        let mut at = 0;
        for &len in &lengths {
            let phase = at % BLOCK;
            let windows = (phase + len) / BLOCK;
            let mut plane = held;
            plane.extend_from_slice(&signal[at..at + len]);
            let mut span = vec![0.0f32; len + DELAY - (phase + len) % BLOCK];
            if windows > 0 {
                let covered = (windows + 1) * BLOCK;
                let mut coeffs = vec![0.0f32; windows * BLOCK];
                mdct.analyze_plane(&plane[..covered], &mut coeffs);
                mdct.synthesize_plane(&coeffs, &mut span[BLOCK - phase..][..covered]);
            }
            for (s, &t) in span.iter_mut().zip(&tail) {
                *s += t;
            }
            played.extend_from_slice(&span[..len]);
            tail = span.split_off(len);
            held = plane.split_off(windows * BLOCK);
            at += len;
        }
        let late = std::iter::repeat_n(0.0, DELAY).chain(signal.iter().copied());
        for (i, (want, &got)) in late.zip(&played).enumerate() {
            proptest::prop_assert!((want - got).abs() < 1e-3, "{:?}: sample {}: {} vs {}", lengths, i, want, got);
        }
    }

    /// The codec frames a stream like the transform above, so cutting
    /// it into packets moves no window: coded in random packet lengths,
    /// each packet completed by the one before, a tonal signal plays
    /// bit for bit what it plays coded as one packet, and that is the
    /// signal `DELAY` frames late with quantization noise only.
    #[test]
    fn prop_ovl_stream_plays_the_same_in_any_packets(
        lengths in proptest::collection::vec(1usize..=3_000, 1..6),
        channels in 1u8..3,
        seed in 0u64..u64::MAX / 2,
    ) {
        let ch = channels as usize;
        let frames: usize = lengths.iter().sum();
        let samples = random_tonal(frames * ch, seed);
        let play = |lengths: &[usize]| {
            let codec = OvlCodec::new();
            let (mut span, mut tail, mut next) = (OvlSpan::default(), OvlTail::default(), OvlTail::default());
            let (mut played, mut out, mut at) = (Vec::new(), Vec::new(), 0);
            for &len in lengths {
                let enc = codec.encode(&samples[at..at + len * ch], channels, MAX_QUALITY);
                at += len * ch;
                codec.decode_span(&enc.bytes, &mut span).expect("own packet decodes");
                span.complete(Some(&tail), &mut out, &mut next);
                std::mem::swap(&mut tail, &mut next);
                played.extend_from_slice(&out);
            }
            played
        };
        let played = play(&lengths);
        proptest::prop_assert!(played == play(&[frames]), "{:?}", lengths);
        proptest::prop_assert_eq!(played.len(), samples.len());
        // Max quality only adds quantization noise; tonal content must
        // come back close to the original.
        let delay = DELAY * ch;
        let err = samples
            .iter()
            .zip(played.get(delay..).unwrap_or_default())
            .map(|(&a, &b)| (a as i32 - b as i32).abs())
            .max()
            .unwrap_or(0);
        proptest::prop_assert!(err < 2_048, "max sample error {}", err);
    }

    #[test]
    fn prop_fft_equals_the_in_place_form(size_idx in 0usize..FFT_SIZES.len(), kind in 0usize..KINDS, seed in 0u64..u64::MAX / 2) {
        let len = FFT_SIZES[size_idx];
        let input = complex_lanes(len, kind, seed);
        let mut want = input.clone();
        oracle::Fft::new(len).forward(&mut want);
        let mut got = vec![Complex32::ZERO; len];
        Fft::new(len).forward(&input, &mut got);
        let diff = first_bit_difference(&complex_parts(&got), &complex_parts(&want));
        proptest::prop_assert!(diff.is_none(), "len {} kind {}: {:?}", len, kind, diff);
    }

    #[test]
    fn prop_mdct_equals_the_copying_form(size_idx in 0usize..EXACT_SIZES.len(), kind in 0usize..KINDS, seed in 0u64..u64::MAX / 2) {
        let n = EXACT_SIZES[size_idx];
        let fast = Mdct::new(n);
        let old = oracle::Mdct::new(n);
        let time = lanes(2 * n, kind, seed);
        let (mut got, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
        fast.forward(&time, &mut got);
        old.forward(&time, &mut want);
        let diff = first_bit_difference(&got, &want);
        proptest::prop_assert!(diff.is_none(), "forward n {} kind {}: {:?}", n, kind, diff);
        // The inverse of those coefficients and of raw lanes.
        for coeffs in [want.clone(), lanes(n, kind, seed ^ 0x5EED)] {
            let (mut got, mut want) = (vec![0.0f32; 2 * n], vec![0.0f32; 2 * n]);
            fast.inverse(&coeffs, &mut got);
            old.inverse(&coeffs, &mut want);
            let diff = first_bit_difference(&got, &want);
            proptest::prop_assert!(diff.is_none(), "inverse n {} kind {}: {:?}", n, kind, diff);
        }
    }

    /// Encode's front end: one deinterleave pass into framed planes and
    /// analysis in place, against a per-channel deinterleave into a
    /// padded buffer and assembled windows.
    #[test]
    fn prop_framed_analysis_equals_assembled_windows(
        size_idx in 0usize..EXACT_SIZES.len(),
        ch in 1usize..=8,
        frames in 0usize..4_096,
        seed in 0u64..u64::MAX / 2,
    ) {
        let n = EXACT_SIZES[size_idx];
        let frames = frames % (3 * n + 1);
        let samples = random_i16(frames * ch, seed);
        let padded_len = frames.div_ceil(n) * n;
        let fast = Mdct::new(n);
        let wn = fast.analyze_windows(padded_len) * n;

        let old = oracle::Mdct::new(n);
        let mut want = vec![0.0f32; ch * wn];
        let mut padded = vec![0.0f32; padded_len];
        for (c, out) in want.chunks_exact_mut(wn).enumerate() {
            oracle::deinterleave_normalize(&samples, ch, c, &mut padded[..frames]);
            old.analyze_into(&padded, out);
        }

        let plane_len = fast.plane_len(padded_len);
        let mut planes = vec![0.0f32; ch * plane_len];
        dsp::deinterleave_normalize(&samples, ch, &mut planes[n..], plane_len);
        let mut got = vec![0.0f32; ch * wn];
        for (plane, out) in planes.chunks_exact(plane_len).zip(got.chunks_exact_mut(wn)) {
            fast.analyze_plane(plane, out);
        }
        let diff = first_bit_difference(&got, &want);
        proptest::prop_assert!(diff.is_none(), "n {} ch {} frames {}: {:?}", n, ch, frames, diff);
    }

    /// Decode's back end: IMDCTs added straight into a framed plane,
    /// against windows assembled and overlap-added into a zeroed
    /// buffer — the same samples to the bit, and the same i16 frames.
    #[test]
    fn prop_framed_synthesis_equals_overlap_add(
        size_idx in 0usize..EXACT_SIZES.len(),
        ch in 1usize..=8,
        frames in 0usize..4_096,
        kind in 0usize..KINDS,
        seed in 0u64..u64::MAX / 2,
    ) {
        let n = EXACT_SIZES[size_idx];
        let frames = frames % (3 * n + 1);
        let padded_len = frames.div_ceil(n) * n;
        let fast = Mdct::new(n);
        let wn = fast.analyze_windows(padded_len) * n;
        let coeffs = lanes(ch * wn, kind, seed);

        let old = oracle::Mdct::new(n);
        let mut want = vec![0i16; frames * ch];
        let mut synth = Vec::new();
        // A dirty plane: synthesis must zero it first.
        let mut plane = vec![f32::NAN; wn + n];
        let mut got = vec![0i16; frames * ch];
        for (c, coeffs) in coeffs.chunks_exact(wn).enumerate() {
            old.synthesize_into(coeffs, &mut synth);
            dsp::scalar::interleave_denormalize(&synth[..frames], ch, c, &mut want);
            fast.synthesize_plane(coeffs, &mut plane);
            let diff = first_bit_difference(&plane[n..n + padded_len], &synth);
            proptest::prop_assert!(diff.is_none(), "n {} ch {} kind {}: {:?}", n, ch, kind, diff);
            dsp::scalar::interleave_denormalize(&plane[n..][..frames], ch, c, &mut got);
        }
        proptest::prop_assert_eq!(got, want);
    }
}

/// A random mixture of tones — the content transform coders are built
/// for, used where a quality floor is asserted.
fn random_tonal(len: usize, seed: u64) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tones: Vec<(f32, f32, f32)> = (0..4)
        .map(|_| {
            (
                rng.gen::<f32>() * 0.02 + 0.001, // angular step
                rng.gen::<f32>() * core::f32::consts::TAU,
                rng.gen::<f32>() * 0.2 + 0.05,
            )
        })
        .collect();
    (0..len)
        .map(|t| {
            let v: f32 = tones
                .iter()
                .map(|&(step, phase, amp)| (t as f32 * step + phase).sin() * amp)
                .sum();
            (v.clamp(-1.0, 1.0) * 32_000.0) as i16
        })
        .collect()
}
