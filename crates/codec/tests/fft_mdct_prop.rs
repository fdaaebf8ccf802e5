//! Property tests for the FFT-based MDCT fast path.
//!
//! The fast path must be indistinguishable (to a few ulps of the
//! signal scale: 8e-6 forward, 6e-7 inverse — 4× the worst error seen)
//! from the retained direct O(N²) reference, from the smallest size
//! that has a fast path up to the codec's block, and the full OVL
//! encode/decode chain must keep its perfect-reconstruction property
//! at default settings: the windowed transform itself is lossless, so
//! a max-quality roundtrip only carries quantization noise.

use es_codec::mdct::{analyze, synthesize, Mdct};
use es_codec::reference::DirectMdct;
use es_codec::{OvlCodec, MAX_QUALITY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 8] = [4, 8, 16, 32, 64, 128, 256, 512];

fn random_signal(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
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

proptest::proptest! {
    #[test]
    fn prop_fft_forward_matches_direct_reference(size_idx in 0usize..SIZES.len(), seed in 0u64..u64::MAX / 2) {
        let n = SIZES[size_idx];
        let fast = Mdct::new(n);
        proptest::prop_assert!(fast.uses_fft());
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

    #[test]
    fn prop_ovl_roundtrip_at_default_settings(frames in 1usize..3_000, channels in 1u8..3, seed in 0u64..u64::MAX / 2) {
        let codec = OvlCodec::new();
        let samples = random_tonal(frames * channels as usize, seed);
        let enc = codec.encode(&samples, channels, MAX_QUALITY);
        let dec = codec.decode(&enc.bytes).expect("roundtrip must decode");
        proptest::prop_assert_eq!(dec.channels, channels);
        proptest::prop_assert_eq!(dec.samples.len(), samples.len());
        // Max quality only adds quantization noise; tonal content must
        // come back close to the original.
        let err = samples
            .iter()
            .zip(&dec.samples)
            .map(|(&a, &b)| (a as i32 - b as i32).abs())
            .max()
            .unwrap_or(0);
        proptest::prop_assert!(err < 2_048, "max sample error {}", err);
    }
}
