//! Batch DSP kernels over flat `f32` slices.
//!
//! The OVL hot path (deinterleave → window → MDCT → quantize on
//! encode; dequantize → IMDCT → overlap-add → interleave on decode)
//! used to run as per-sample indexed loops inside `ovl.rs`/`mdct.rs`.
//! Each kernel here is the chunked, bounds-check-free form of one of
//! those loops: iteration is expressed with `zip`/`chunks_exact` so
//! the autovectorizer can SIMD it, while the *elementwise expression
//! is kept literally identical* to the scalar original — so output is
//! bit-identical, not merely close, and the determinism
//! fingerprints are unaffected by this refactor. The one exception is
//! the conversion back to i16, whose vectorizable form equals the
//! original's `as` for every input.
//!
//! The scalar originals are retained in [`scalar`] as the
//! property-test oracle (`tests/dsp_kernels_prop.rs` asserts bit
//! identity across block sizes, qualities and channel layouts).

/// Deinterleaves `ch`-channel interleaved `samples` into per-channel
/// planes in one pass over the frames, normalizing i16 to ±1.0: frame
/// `f` of channel `c` lands in `planes[c * stride + f]`. Writes
/// `samples.len() / ch` frames per channel.
///
/// # Panics
///
/// Panics if a channel's frames would run past `stride` or past the
/// end of `planes`.
pub fn deinterleave_normalize(samples: &[i16], ch: usize, planes: &mut [f32], stride: usize) {
    let frames = samples.len() / ch;
    assert!(
        frames <= stride && (ch - 1) * stride + frames <= planes.len(),
        "planes must hold every frame"
    );
    match ch {
        1 => {
            for (o, &s) in planes.iter_mut().zip(samples) {
                *o = s as f32 / 32_768.0;
            }
        }
        2 => {
            let (left, right) = planes.split_at_mut(stride);
            let outs = left.iter_mut().zip(right.iter_mut());
            for ((l, r), frame) in outs.zip(samples.chunks_exact(2)) {
                *l = frame[0] as f32 / 32_768.0;
                *r = frame[1] as f32 / 32_768.0;
            }
        }
        _ => {
            for (f, frame) in samples.chunks_exact(ch).enumerate() {
                for (plane, &s) in planes.chunks_mut(stride).zip(frame) {
                    plane[f] = s as f32 / 32_768.0;
                }
            }
        }
    }
}

/// [`deinterleave_normalize`] of channel `c` alone into `out`: its
/// first `out.len()` frames.
pub(crate) fn deinterleave_channel(samples: &[i16], ch: usize, c: usize, out: &mut [f32]) {
    if ch == 2 {
        let (frames, _) = samples.as_chunks::<2>();
        for (o, frame) in out.iter_mut().zip(frames) {
            *o = frame[c & 1] as f32 / 32_768.0;
        }
    } else {
        for (o, frame) in out.iter_mut().zip(samples.chunks_exact(ch)) {
            *o = frame[c] as f32 / 32_768.0;
        }
    }
}

/// One reconstructed sample from ±1.0 to i16, with the codec's
/// saturating clamp. The OVL completion (`OvlSpan::complete`) converts
/// each coded channel with it and writes each twin channel in the same
/// pass.
#[inline]
pub(crate) fn denormalize(v: f32) -> i16 {
    truncate_to_i16((v * 32_767.0).clamp(-32_768.0, 32_767.0))
}

/// `x as i16` for `x` in `[-32_768, 32_767]` (or NaN, which maps to 0),
/// in operations that vectorize on the baseline x86-64 target, where
/// the saturating `as` is a scalar sequence per lane: `|x| + 2^23`
/// holds `|x|` rounded to an integer, ties to even, in the low bits of
/// its mantissa, one too many where that rounded up. Checked against
/// `as` for every `f32` input of [`denormalize`].
#[inline]
fn truncate_to_i16(x: f32) -> i16 {
    const MAGIC: f32 = 8_388_608.0;
    let y = x.abs();
    let m = y + MAGIC;
    let k = (m.to_bits() as i32 - MAGIC.to_bits() as i32) - i32::from(m - MAGIC > y);
    let k = if x < 0.0 { -k } else { k };
    (if x.is_nan() { 0 } else { k }) as i16
}

/// Quantizes one band of coefficients: `out[i]` is `band[i]` scaled by
/// `inv_scale`, stretched to the `qmax` grid, rounded and clamped.
///
/// OVL's scales are powers of two, so multiplying by the reciprocal
/// rounds to the same value dividing by the scale would.
///
/// Rounding is half away from zero, bit-identical to the
/// `f32::round() as i32` of [`scalar::quantize_band`] but inline:
/// `f64` holds `|x| + 0.5` exactly for any `f32` below 2^52 (and `x`
/// is an integer already above), NaN maps to 0 and out-of-range values
/// saturate into the clamp — whereas `round` is an out-of-line libm
/// `roundf` per coefficient on the baseline x86-64 target.
pub fn quantize_band(band: &[f32], inv_scale: f32, qmax: i32, out: &mut [i32]) {
    let qmax_f = qmax as f32;
    for (o, &c) in out.iter_mut().zip(band) {
        let x = (c * inv_scale * qmax_f) as f64;
        let r = (x.abs() + 0.5) as i32;
        *o = (if x < 0.0 { -r } else { r }).clamp(-qmax, qmax);
    }
}

/// Inverse of [`quantize_band`]: rescales quantized values back to
/// coefficients. The expression matches the historical decode loop
/// (`q as f32 * scale / qmax as f32`) exactly.
pub fn dequantize_band(quantized: &[i32], scale: f32, qmax: i32, out: &mut [f32]) {
    let qmax_f = qmax as f32;
    for (o, &q) in out.iter_mut().zip(quantized) {
        *o = q as f32 * scale / qmax_f;
    }
}

/// Largest absolute value in `band` (0.0 for an empty band); NaNs are
/// skipped.
///
/// Eight independent running maxima instead of one serial chain: max is
/// exact and order-free, so the split changes no bit. `a > m` keeps `m`
/// when `a` is NaN, which is what `f32::max` does for the `m` here: an
/// accumulator seeded with `+0.0` that only ever takes an `abs`.
pub fn peak_abs(band: &[f32]) -> f32 {
    fn keep_max(m: f32, a: f32) -> f32 {
        if a > m {
            a
        } else {
            m
        }
    }
    let mut lanes = [0.0f32; 8];
    let chunks = band.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &c) in lanes.iter_mut().zip(chunk) {
            *m = keep_max(*m, c.abs());
        }
    }
    for (m, &c) in lanes.iter_mut().zip(tail) {
        *m = keep_max(*m, c.abs());
    }
    lanes.into_iter().fold(0.0, keep_max)
}

/// Scalar reference implementations — the exact per-sample indexed
/// loops the batch kernels replaced, retained as the property-test
/// oracle. Not used by the hot path.
pub mod scalar {
    /// Reference for [`super::deinterleave_normalize`], one channel
    /// (`c` of `ch`) at a time: the per-channel pass it replaced.
    pub fn deinterleave_normalize(samples: &[i16], ch: usize, c: usize, out: &mut [f32]) {
        let frames = out.len().min(samples.len() / ch);
        for (f, o) in out.iter_mut().enumerate().take(frames) {
            *o = samples[f * ch + c] as f32 / 32_768.0;
        }
    }

    /// Scatters one reconstructed channel into `ch`-channel interleaved
    /// i16 `out` (channel `c`): the per-channel conversion the OVL
    /// completion replaced, and the reference for its output.
    pub fn interleave_denormalize(synth: &[f32], ch: usize, c: usize, out: &mut [i16]) {
        let frames = synth.len().min(out.len() / ch);
        for (f, &v) in synth.iter().enumerate().take(frames) {
            out[f * ch + c] = (v * 32_767.0).clamp(-32_768.0, 32_767.0) as i16;
        }
    }

    /// Reference for [`super::quantize_band`].
    pub fn quantize_band(band: &[f32], inv_scale: f32, qmax: i32, out: &mut [i32]) {
        for (i, &c) in band.iter().enumerate() {
            out[i] = ((c * inv_scale * qmax as f32).round() as i32).clamp(-qmax, qmax);
        }
    }

    /// Reference for [`super::dequantize_band`].
    pub fn dequantize_band(quantized: &[i32], scale: f32, qmax: i32, out: &mut [f32]) {
        for (i, &q) in quantized.iter().enumerate() {
            out[i] = q as f32 * scale / qmax as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deinterleave_matches_scalar_stereo() {
        let samples: Vec<i16> = (0..64).map(|i| (i * 997 - 16_000) as i16).collect();
        // Planes 40 apart: the 8 values past each channel's 32 frames
        // stay untouched.
        let mut fast = vec![9.0f32; 80];
        deinterleave_normalize(&samples, 2, &mut fast, 40);
        for c in 0..2 {
            let mut slow = vec![0.0f32; 32];
            scalar::deinterleave_normalize(&samples, 2, c, &mut slow);
            assert_eq!(fast[c * 40..][..32], slow[..]);
            assert!(fast[c * 40 + 32..][..8].iter().all(|&v| v == 9.0));
        }
    }

    #[test]
    fn deinterleave_one_channel_matches_scalar() {
        let samples: Vec<i16> = (0..96).map(|i| (i * 991 - 16_000) as i16).collect();
        for ch in 1..=4 {
            for c in 0..ch {
                // Ten frames asked for, the rest left untouched.
                let mut fast = [9.0f32; 12];
                deinterleave_channel(&samples, ch, c, &mut fast[..10]);
                let mut slow = vec![0.0f32; 10];
                scalar::deinterleave_normalize(&samples, ch, c, &mut slow);
                assert_eq!(fast[..10], slow[..], "channel {c} of {ch}");
                assert_eq!(fast[10..], [9.0; 2]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "every frame")]
    fn deinterleave_checks_the_planes_fit() {
        deinterleave_normalize(&[0; 12], 3, &mut [0.0; 11], 4);
    }

    #[test]
    fn denormalize_clamps_and_matches_scalar() {
        let synth: Vec<f32> = (0..33).map(|i| (i as f32 - 16.0) / 8.0).collect();
        let mut slow = vec![0i16; 66];
        scalar::interleave_denormalize(&synth, 2, 1, &mut slow);
        let fast: Vec<i16> = synth.iter().map(|&v| denormalize(v)).collect();
        let want: Vec<i16> = slow.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(fast, want);
        // Out-of-range inputs saturate, never wrap.
        assert_eq!(fast[0], -32_768);
        assert_eq!(fast[32], 32_767);
    }

    #[test]
    fn truncation_matches_as_at_every_boundary() {
        // Every integer an i16 conversion can see, one ulp either side
        // of it, both signs, plus NaN and the signed zeros.
        let check = |x: f32| assert_eq!(truncate_to_i16(x), x as i16, "{x:e}");
        for k in 0..=32_768i32 {
            let x = k as f32;
            for x in [x, x.next_up(), x.next_down(), x + 0.5] {
                if x <= 32_767.0 {
                    check(x);
                }
                if x <= 32_768.0 {
                    check(-x);
                }
            }
        }
        for x in [0.0, -0.0, f32::NAN, f32::MIN_POSITIVE, 0.99999994] {
            check(x);
            check(-x);
        }
        // And through the conversion the codec uses, past its range.
        for v in [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.5,
            -1.5,
            1.0,
            -1.0,
        ] {
            let want = (v * 32_767.0).clamp(-32_768.0, 32_767.0) as i16;
            assert_eq!(denormalize(v), want, "{v:e}");
        }
    }

    #[test]
    fn quant_dequant_match_scalar() {
        let band: Vec<f32> = (0..37)
            .map(|i| ((i * 31) % 17) as f32 / 7.0 - 1.0)
            .collect();
        let mut q_fast = vec![0i32; 37];
        let mut q_slow = vec![0i32; 37];
        quantize_band(&band, 2.0, 127, &mut q_fast);
        scalar::quantize_band(&band, 2.0, 127, &mut q_slow);
        assert_eq!(q_fast, q_slow);
        let mut d_fast = vec![0.0f32; 37];
        let mut d_slow = vec![0.0f32; 37];
        dequantize_band(&q_fast, 0.5, 127, &mut d_fast);
        scalar::dequantize_band(&q_slow, 0.5, 127, &mut d_slow);
        assert_eq!(d_fast, d_slow);
    }

    #[test]
    fn peak_abs_finds_magnitude() {
        assert_eq!(peak_abs(&[]), 0.0);
        assert_eq!(peak_abs(&[0.25, -0.75, 0.5]), 0.75);
        // Past the eight lanes, NaNs skipped wherever they sit.
        let mut band: Vec<f32> = (0..19).map(|i| i as f32 * -0.5).collect();
        band[3] = f32::NAN;
        band[17] = f32::NAN;
        assert_eq!(peak_abs(&band), 9.0);
        assert_eq!(peak_abs(&[f32::NAN; 9]).to_bits(), 0.0f32.to_bits());
    }
}
