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
//! fingerprints are unaffected by this refactor.
//!
//! The scalar originals are retained in [`scalar`] as the
//! property-test oracle (`tests/dsp_kernels_prop.rs` asserts bit
//! identity across block sizes, qualities and channel layouts).

// es-hot-path

/// Deinterleaves channel `c` out of `ch`-channel interleaved
/// `samples` into `out`, normalizing i16 to ±1.0. Writes
/// `min(out.len(), samples.len() / ch)` frames.
pub fn deinterleave_normalize(samples: &[i16], ch: usize, c: usize, out: &mut [f32]) {
    debug_assert!(c < ch);
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

/// Scatters one reconstructed channel back into `ch`-channel
/// interleaved i16 `out` (channel `c`), denormalizing from ±1.0 with
/// the codec's saturating clamp. Writes
/// `min(synth.len(), out.len() / ch)` frames.
pub fn interleave_denormalize(synth: &[f32], ch: usize, c: usize, out: &mut [i16]) {
    debug_assert!(c < ch);
    if ch == 1 {
        for (o, &v) in out.iter_mut().zip(synth) {
            *o = (v * 32_767.0).clamp(-32_768.0, 32_767.0) as i16;
        }
    } else {
        for (frame, &v) in out.chunks_exact_mut(ch).zip(synth) {
            frame[c] = (v * 32_767.0).clamp(-32_768.0, 32_767.0) as i16;
        }
    }
}

/// Quantizes one band of coefficients: `out[i]` is `band[i]` scaled by
/// `1/scale`, stretched to the `qmax` grid, rounded and clamped.
///
/// Rounding is half away from zero, bit-identical to the
/// `f32::round() as i32` of [`scalar::quantize_band`] but inline:
/// `f64` holds `|x| + 0.5` exactly for any `f32` below 2^52 (and `x`
/// is an integer already above), NaN maps to 0 and out-of-range values
/// saturate into the clamp — whereas `round` is an out-of-line libm
/// `roundf` per coefficient on the baseline x86-64 target.
pub fn quantize_band(band: &[f32], scale: f32, qmax: i32, out: &mut [i32]) {
    let qmax_f = qmax as f32;
    for (o, &c) in out.iter_mut().zip(band) {
        let x = (c / scale * qmax_f) as f64;
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

/// Elementwise `acc[i] += add[i]` over the overlapping region — the
/// overlap-add inner loop. Adds `min(acc.len(), add.len())` values.
pub fn accumulate(acc: &mut [f32], add: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(add) {
        *a += v;
    }
}

/// Largest absolute value in `band` (0.0 for an empty band).
pub fn peak_abs(band: &[f32]) -> f32 {
    band.iter().fold(0.0f32, |m, &c| m.max(c.abs()))
}

// es-hot-path-end

/// Scalar reference implementations — the exact per-sample indexed
/// loops the batch kernels replaced, retained as the property-test
/// oracle. Not used by the hot path.
pub mod scalar {
    /// Reference for [`super::deinterleave_normalize`].
    pub fn deinterleave_normalize(samples: &[i16], ch: usize, c: usize, out: &mut [f32]) {
        let frames = out.len().min(samples.len() / ch);
        for (f, o) in out.iter_mut().enumerate().take(frames) {
            *o = samples[f * ch + c] as f32 / 32_768.0;
        }
    }

    /// Reference for [`super::interleave_denormalize`].
    pub fn interleave_denormalize(synth: &[f32], ch: usize, c: usize, out: &mut [i16]) {
        let frames = synth.len().min(out.len() / ch);
        for (f, &v) in synth.iter().enumerate().take(frames) {
            out[f * ch + c] = (v * 32_767.0).clamp(-32_768.0, 32_767.0) as i16;
        }
    }

    /// Reference for [`super::quantize_band`].
    pub fn quantize_band(band: &[f32], scale: f32, qmax: i32, out: &mut [i32]) {
        for (i, &c) in band.iter().enumerate() {
            out[i] = ((c / scale * qmax as f32).round() as i32).clamp(-qmax, qmax);
        }
    }

    /// Reference for [`super::dequantize_band`].
    pub fn dequantize_band(quantized: &[i32], scale: f32, qmax: i32, out: &mut [f32]) {
        for (i, &q) in quantized.iter().enumerate() {
            out[i] = q as f32 * scale / qmax as f32;
        }
    }

    /// Reference for [`super::accumulate`].
    pub fn accumulate(acc: &mut [f32], add: &[f32]) {
        let n = acc.len().min(add.len());
        for i in 0..n {
            acc[i] += add[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deinterleave_matches_scalar_stereo() {
        let samples: Vec<i16> = (0..64).map(|i| (i * 997 - 16_000) as i16).collect();
        for c in 0..2 {
            let mut fast = vec![0.0f32; 32];
            let mut slow = vec![0.0f32; 32];
            deinterleave_normalize(&samples, 2, c, &mut fast);
            scalar::deinterleave_normalize(&samples, 2, c, &mut slow);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn interleave_clamps_and_matches_scalar() {
        let synth: Vec<f32> = (0..33).map(|i| (i as f32 - 16.0) / 8.0).collect();
        let mut fast = vec![0i16; 66];
        let mut slow = vec![0i16; 66];
        interleave_denormalize(&synth, 2, 1, &mut fast);
        scalar::interleave_denormalize(&synth, 2, 1, &mut slow);
        assert_eq!(fast, slow);
        // Out-of-range inputs saturate, never wrap.
        assert_eq!(fast[1], -32_768);
        assert_eq!(fast[65], 32_767);
    }

    #[test]
    fn quant_dequant_match_scalar() {
        let band: Vec<f32> = (0..37)
            .map(|i| ((i * 31) % 17) as f32 / 7.0 - 1.0)
            .collect();
        let mut q_fast = vec![0i32; 37];
        let mut q_slow = vec![0i32; 37];
        quantize_band(&band, 0.5, 127, &mut q_fast);
        scalar::quantize_band(&band, 0.5, 127, &mut q_slow);
        assert_eq!(q_fast, q_slow);
        let mut d_fast = vec![0.0f32; 37];
        let mut d_slow = vec![0.0f32; 37];
        dequantize_band(&q_fast, 0.5, 127, &mut d_fast);
        scalar::dequantize_band(&q_slow, 0.5, 127, &mut d_slow);
        assert_eq!(d_fast, d_slow);
    }

    #[test]
    fn accumulate_matches_scalar() {
        let add: Vec<f32> = (0..48).map(|i| i as f32 * 0.125).collect();
        let mut fast: Vec<f32> = (0..48).map(|i| 1.0 - i as f32 * 0.0625).collect();
        let mut slow = fast.clone();
        accumulate(&mut fast, &add);
        scalar::accumulate(&mut slow, &add);
        assert_eq!(fast, slow);
    }

    #[test]
    fn peak_abs_finds_magnitude() {
        assert_eq!(peak_abs(&[]), 0.0);
        assert_eq!(peak_abs(&[0.25, -0.75, 0.5]), 0.75);
    }
}
