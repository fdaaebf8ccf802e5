//! Property tests for the batch DSP kernels (`es_codec::dsp`).
//!
//! The batch kernels are the chunked, autovectorizer-friendly forms
//! of the per-sample loops the codec used to run inline; the scalar
//! originals are retained in `dsp::scalar` as the oracle. The contract
//! is *bit identity*, not closeness: each kernel keeps its elementwise
//! expression literally identical to the scalar original, so every
//! output must match to the last bit across block sizes (64..512),
//! channel layouts (mono to 7.1) and the full quality range —
//! that is what keeps the determinism fingerprints stable.
//!
//! The final test closes the loop end-to-end: a full OVL
//! encode → decode built from the kernels is byte/bit-identical
//! between independent codec instances, whatever the buffer decoded
//! into held before.

use es_codec::{dsp, OvlCodec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_f32(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f32>() * 2.4 - 1.2).collect()
}

fn random_i16(len: usize, seed: u64) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<i16>()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `quantize_band` rounds inline instead of calling libm `roundf`; the
/// scalar oracle still calls `f32::round`. With `inv_scale == 1/qmax`
/// (a power of two) the scaling is exact, so the band values are the
/// values rounded: every half-integer boundary in the i16 range, one
/// ulp either side, both signs, and the values `as i32` special-cases.
#[test]
fn quantize_rounding_matches_scalar_at_every_half_integer() {
    let mut band = vec![
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        0.49999997,
        8_388_607.5,
    ];
    for k in -32_768i32..32_768 {
        let half = k as f32 + 0.5;
        for x in [half, half.next_up(), half.next_down()] {
            band.extend([x, -x]);
        }
    }
    let qmax = 1i32 << 24;
    let mut fast = vec![0i32; band.len()];
    let mut slow = vec![0i32; band.len()];
    dsp::quantize_band(&band, 1.0 / qmax as f32, qmax, &mut fast);
    dsp::scalar::quantize_band(&band, 1.0 / qmax as f32, qmax, &mut slow);
    for ((x, f), s) in band.iter().zip(&fast).zip(&slow) {
        assert_eq!(f, s, "{x:e}");
    }
}

proptest::proptest! {
    /// One pass for all channels against the scalar loop run once per
    /// channel; the planes sit `stride` apart and the gap after each
    /// channel's frames stays untouched.
    #[test]
    fn prop_deinterleave_matches_scalar(
        n in 64usize..=512,
        ch in 1usize..=8,
        gap in 0usize..4,
        seed in 0u64..u64::MAX / 2,
    ) {
        let samples = random_i16(n * ch, seed);
        let stride = n + gap;
        let mut fast = vec![-2.0f32; ch * stride];
        dsp::deinterleave_normalize(&samples, ch, &mut fast, stride);
        for (c, plane) in fast.chunks_exact(stride).enumerate() {
            let mut slow = vec![-2.0f32; stride];
            dsp::scalar::deinterleave_normalize(&samples, ch, c, &mut slow[..n]);
            proptest::prop_assert_eq!(bits(plane), bits(&slow));
        }
    }

    #[test]
    fn prop_quantize_roundtrip_matches_scalar(
        n in 64usize..=512,
        bits_alloc in 2u32..=12,
        seed in 0u64..u64::MAX / 2,
    ) {
        let band = random_f32(n, seed);
        let scale = dsp::peak_abs(&band).max(1e-6);
        let qmax = (1i32 << (bits_alloc - 1)) - 1;
        let mut q_fast = vec![0i32; n];
        let mut q_slow = vec![0i32; n];
        dsp::quantize_band(&band, 1.0 / scale, qmax, &mut q_fast);
        dsp::scalar::quantize_band(&band, 1.0 / scale, qmax, &mut q_slow);
        proptest::prop_assert_eq!(&q_fast, &q_slow);
        let mut d_fast = vec![0.0f32; n];
        let mut d_slow = vec![0.0f32; n];
        dsp::dequantize_band(&q_fast, scale, qmax, &mut d_fast);
        dsp::scalar::dequantize_band(&q_slow, scale, qmax, &mut d_slow);
        proptest::prop_assert_eq!(bits(&d_fast), bits(&d_slow));
    }

    /// OVL quantizes by the reciprocal of a power-of-two scale; the
    /// oracle is the division it replaced, `c / scale`, at every scale
    /// a 6-bit exponent can name, on coefficients that reach down into
    /// the subnormals and up past the largest scale.
    #[test]
    fn prop_reciprocal_of_a_power_of_two_quantizes_like_dividing(
        e in -32i32..=31,
        bits_alloc in 2u32..=12,
        magnitude in -150i32..=40,
        seed in 0u64..u64::MAX / 2,
    ) {
        let scale = (e as f32).exp2();
        let band: Vec<f32> = random_f32(96, seed).iter().map(|c| c * (magnitude as f32).exp2()).collect();
        let qmax = (1i32 << (bits_alloc - 1)) - 1;
        let mut fast = vec![0i32; band.len()];
        dsp::quantize_band(&band, 1.0 / scale, qmax, &mut fast);
        let divided: Vec<i32> = band
            .iter()
            .map(|&c| ((c / scale * qmax as f32).round() as i32).clamp(-qmax, qmax))
            .collect();
        proptest::prop_assert_eq!(fast, divided);
    }

    #[test]
    fn prop_peak_abs_matches_naive_max(n in 0usize..=512, seed in 0u64..u64::MAX / 2) {
        let band = random_f32(n, seed);
        let mut naive = 0.0f32;
        for &c in &band {
            naive = naive.max(c.abs());
        }
        proptest::prop_assert_eq!(dsp::peak_abs(&band).to_bits(), naive.to_bits());
    }

    /// The composed contract: OVL decode built from the batch kernels
    /// is deterministic across codec instances (fresh arenas, same
    /// bits) and whatever the output buffer held before — across frame
    /// counts that exercise partial windows, mono/stereo, and every
    /// quality.
    #[test]
    fn prop_ovl_decode_is_instance_and_buffer_invariant(
        frames in 64usize..=512,
        stereo in proptest::bool::ANY,
        quality in 0u8..=10,
        seed in 0u64..u64::MAX / 2,
    ) {
        let ch = if stereo { 2 } else { 1 };
        let samples = random_i16(frames * ch, seed);
        let a = OvlCodec::new();
        let b = OvlCodec::new();
        let ea = a.encode(&samples, ch as u8, quality);
        let eb = b.encode(&samples, ch as u8, quality);
        proptest::prop_assert_eq!(&ea.bytes, &eb.bytes, "encode must not depend on arena history");
        let mut da = Vec::new();
        let (ch_a, _) = a.decode_into(&ea.bytes, &mut da).expect("decode");
        let mut into = vec![1i16; 7]; // dirty, wrong-sized: decode_into must reset it
        let (ch_into, _) = b.decode_into(&ea.bytes, &mut into).expect("decode_into");
        proptest::prop_assert_eq!(ch_a, ch_into);
        proptest::prop_assert_eq!(&da, &into);
        // Same instance, second decode: the warm arena must not leak
        // state between packets.
        let mut again = Vec::new();
        a.decode_into(&ea.bytes, &mut again).expect("redecode");
        proptest::prop_assert_eq!(&da, &again);
    }
}
