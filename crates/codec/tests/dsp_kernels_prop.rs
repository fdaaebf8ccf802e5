//! Property tests for the batch DSP kernels (`es_codec::dsp`).
//!
//! The batch kernels are the chunked, autovectorizer-friendly forms
//! of the per-sample loops the codec used to run inline; the scalar
//! originals are retained in `dsp::scalar` as the oracle. The contract
//! is *bit identity*, not closeness: each kernel keeps its elementwise
//! expression literally identical to the scalar original, so every
//! output must match to the last bit across block sizes (64..512),
//! channel layouts (mono/stereo/5.1-ish) and the full quality range —
//! that is what keeps the determinism fingerprints stable.
//!
//! The final test closes the loop end-to-end: a full OVL
//! encode → decode built from the kernels is byte/bit-identical
//! between independent codec instances and between the allocating and
//! arena (`decode_into`) decode surfaces.

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
/// scalar oracle still calls `f32::round`. With `scale == qmax` (a
/// power of two) the scaling is exact, so the band values are the
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
    dsp::quantize_band(&band, qmax as f32, qmax, &mut fast);
    dsp::scalar::quantize_band(&band, qmax as f32, qmax, &mut slow);
    for ((x, f), s) in band.iter().zip(&fast).zip(&slow) {
        assert_eq!(f, s, "{x:e}");
    }
}

proptest::proptest! {
    #[test]
    fn prop_deinterleave_matches_scalar(
        n in 64usize..=512,
        ch in 1usize..=6,
        c in 0usize..6,
        seed in 0u64..u64::MAX / 2,
    ) {
        let c = c % ch;
        let samples = random_i16(n * ch, seed);
        let mut fast = vec![0.0f32; n];
        let mut slow = vec![0.0f32; n];
        dsp::deinterleave_normalize(&samples, ch, c, &mut fast);
        dsp::scalar::deinterleave_normalize(&samples, ch, c, &mut slow);
        proptest::prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn prop_interleave_matches_scalar(
        n in 64usize..=512,
        ch in 1usize..=6,
        c in 0usize..6,
        seed in 0u64..u64::MAX / 2,
    ) {
        let c = c % ch;
        let synth = random_f32(n, seed);
        let mut fast = vec![0i16; n * ch];
        let mut slow = vec![0i16; n * ch];
        dsp::interleave_denormalize(&synth, ch, c, &mut fast);
        dsp::scalar::interleave_denormalize(&synth, ch, c, &mut slow);
        proptest::prop_assert_eq!(fast, slow);
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
        dsp::quantize_band(&band, scale, qmax, &mut q_fast);
        dsp::scalar::quantize_band(&band, scale, qmax, &mut q_slow);
        proptest::prop_assert_eq!(&q_fast, &q_slow);
        let mut d_fast = vec![0.0f32; n];
        let mut d_slow = vec![0.0f32; n];
        dsp::dequantize_band(&q_fast, scale, qmax, &mut d_fast);
        dsp::scalar::dequantize_band(&q_slow, scale, qmax, &mut d_slow);
        proptest::prop_assert_eq!(bits(&d_fast), bits(&d_slow));
    }

    #[test]
    fn prop_accumulate_matches_scalar(n in 64usize..=512, seed in 0u64..u64::MAX / 2) {
        let add = random_f32(n, seed);
        let mut fast = random_f32(n, seed ^ 0xDEAD_BEEF);
        let mut slow = fast.clone();
        dsp::accumulate(&mut fast, &add);
        dsp::scalar::accumulate(&mut slow, &add);
        proptest::prop_assert_eq!(bits(&fast), bits(&slow));
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
    /// bits) and identical between the allocating `decode` and the
    /// arena `decode_into` surfaces — across frame counts that
    /// exercise partial windows, mono/stereo, and every quality.
    #[test]
    fn prop_ovl_decode_is_instance_and_surface_invariant(
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
        let da = a.decode(&ea.bytes).expect("decode");
        let mut into = vec![1i16; 7]; // dirty, wrong-sized: decode_into must reset it
        let (ch_into, _) = b.decode_into(&ea.bytes, &mut into).expect("decode_into");
        proptest::prop_assert_eq!(da.channels, ch_into);
        proptest::prop_assert_eq!(&da.samples, &into);
        // Same instance, second decode: the warm arena must not leak
        // state between packets.
        let again = a.decode(&ea.bytes).expect("redecode");
        proptest::prop_assert_eq!(&da.samples, &again.samples);
    }
}
