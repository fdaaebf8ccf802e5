//! Sample-format conversion: G.711 companding and linear PCM packing.
//!
//! The canonical in-memory representation throughout the workspace is
//! interleaved signed 16-bit samples (`&[i16]`). This module converts
//! between that representation and the on-the-wire byte layouts of each
//! [`Encoding`], including ITU-T G.711 µ-law and A-law implemented from
//! the standard's reference algorithm.

use crate::encoding::Encoding;

const ULAW_BIAS: i32 = 0x84;
const ULAW_CLIP: i32 = 32_635;

/// [`linear_to_ulaw`] computed from the G.711 reference algorithm;
/// kept `const` so the encode table is built at compile time.
const fn ulaw_compress(sample: i16) -> u8 {
    let mut s = sample as i32;
    let sign: u8 = if s < 0 {
        s = -s;
        0x80
    } else {
        0
    };
    if s > ULAW_CLIP {
        s = ULAW_CLIP;
    }
    s += ULAW_BIAS;
    // `s` is now in [0x84, 0x7FFF]; the exponent is the position of its
    // highest set bit relative to bit 7.
    let top = 31 - (s as u32).leading_zeros();
    let exponent = top - 7;
    let mantissa = ((s >> (exponent + 3)) & 0x0F) as u8;
    !(sign | ((exponent as u8) << 4) | mantissa)
}

/// Every 16-bit sample's µ-law code, precomputed: encode becomes one
/// table load per sample instead of sign/clip/bias/priority-encode
/// arithmetic. 64 KiB buys the hot producer path (every outgoing
/// companded packet walks it) a branch-free inner loop.
static ULAW_ENCODE_TABLE: [u8; 65_536] = {
    let mut t = [0u8; 65_536];
    let mut i = 0;
    while i < 65_536 {
        t[i] = ulaw_compress(i as u16 as i16);
        i += 1;
    }
    t
};

/// Compands one linear sample to G.711 µ-law.
#[inline]
pub fn linear_to_ulaw(sample: i16) -> u8 {
    ULAW_ENCODE_TABLE[sample as u16 as usize]
}

/// [`ulaw_to_linear`] computed from the G.711 reference algorithm;
/// kept `const` so the decode table is built at compile time.
const fn ulaw_expand(ulaw: u8) -> i16 {
    let u = !ulaw;
    let sign = u & 0x80;
    let exponent = (u >> 4) & 0x07;
    let mantissa = (u & 0x0F) as i32;
    let magnitude = (((mantissa << 3) + ULAW_BIAS) << exponent) - ULAW_BIAS;
    if sign != 0 {
        -magnitude as i16
    } else {
        magnitude as i16
    }
}

/// All 256 µ-law expansions, precomputed: decode is one table load
/// instead of shift/add arithmetic per byte.
static ULAW_TABLE: [i16; 256] = {
    let mut t = [0i16; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = ulaw_expand(i as u8);
        i += 1;
    }
    t
};

/// Expands one G.711 µ-law byte to a linear sample.
#[inline]
pub fn ulaw_to_linear(ulaw: u8) -> i16 {
    ULAW_TABLE[ulaw as usize]
}

/// [`linear_to_alaw`] computed from the G.711 reference algorithm;
/// kept `const` so the encode table is built at compile time.
const fn alaw_compress(sample: i16) -> u8 {
    let mut ix: i32 = if sample < 0 {
        ((!sample) >> 4) as i32
    } else {
        (sample >> 4) as i32
    };
    if ix > 15 {
        let mut iexp = 1;
        while ix > 16 + 15 {
            ix >>= 1;
            iexp += 1;
        }
        ix -= 16;
        ix += iexp << 4;
    }
    if sample >= 0 {
        ix |= 0x80;
    }
    (ix as u8) ^ 0x55
}

/// Every 16-bit sample's A-law code, precomputed like
/// [`ULAW_ENCODE_TABLE`].
static ALAW_ENCODE_TABLE: [u8; 65_536] = {
    let mut t = [0u8; 65_536];
    let mut i = 0;
    while i < 65_536 {
        t[i] = alaw_compress(i as u16 as i16);
        i += 1;
    }
    t
};

/// Compands one linear sample to G.711 A-law.
#[inline]
pub fn linear_to_alaw(sample: i16) -> u8 {
    ALAW_ENCODE_TABLE[sample as u16 as usize]
}

/// [`alaw_to_linear`] computed from the G.711 reference algorithm;
/// kept `const` so the decode table is built at compile time.
const fn alaw_expand(alaw: u8) -> i16 {
    let ix = alaw ^ 0x55;
    let positive = ix & 0x80 != 0;
    let ix = (ix & 0x7F) as i32;
    let iexp = ix >> 4;
    let mut mant = ix & 0x0F;
    if iexp > 0 {
        mant += 16;
    }
    mant = (mant << 4) + 8;
    if iexp > 1 {
        mant <<= iexp - 1;
    }
    if positive {
        mant as i16
    } else {
        -mant as i16
    }
}

/// All 256 A-law expansions, precomputed like [`ULAW_TABLE`].
static ALAW_TABLE: [i16; 256] = {
    let mut t = [0i16; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = alaw_expand(i as u8);
        i += 1;
    }
    t
};

/// Expands one G.711 A-law byte to a linear sample.
#[inline]
pub fn alaw_to_linear(alaw: u8) -> i16 {
    ALAW_TABLE[alaw as usize]
}

/// Fills a preallocated output with one 2-byte pattern per sample —
/// a single resize plus straight-line stores per frame, instead of a
/// length-checked `extend_from_slice` call per sample.
#[inline]
fn pack_16(samples: &[i16], out: &mut Vec<u8>, pack: impl Fn(i16) -> [u8; 2]) {
    out.resize(samples.len() * 2, 0);
    for (dst, &s) in out.chunks_exact_mut(2).zip(samples) {
        dst.copy_from_slice(&pack(s));
    }
}

/// Packs interleaved linear samples into the byte layout of `enc`.
pub fn encode_samples(samples: &[i16], enc: Encoding) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * enc.bytes_per_sample() as usize);
    encode_samples_into(samples, enc, &mut out);
    out
}

/// [`encode_samples`] into a caller-owned buffer, so steady-state
/// callers can recycle one allocation across packets. The buffer is
/// cleared first.
pub fn encode_samples_into(samples: &[i16], enc: Encoding, out: &mut Vec<u8>) {
    out.clear();
    match enc {
        Encoding::ULaw => out.extend(samples.iter().map(|&s| linear_to_ulaw(s))),
        Encoding::ALaw => out.extend(samples.iter().map(|&s| linear_to_alaw(s))),
        Encoding::Slinear8 => out.extend(samples.iter().map(|&s| (s >> 8) as u8)),
        Encoding::Ulinear8 => out.extend(samples.iter().map(|&s| (((s >> 8) as i32) + 128) as u8)),
        Encoding::Slinear16Le => pack_16(samples, out, |s| s.to_le_bytes()),
        Encoding::Slinear16Be => pack_16(samples, out, |s| s.to_be_bytes()),
        Encoding::Ulinear16Le => pack_16(samples, out, |s| ((s as u16) ^ 0x8000).to_le_bytes()),
        Encoding::Ulinear16Be => pack_16(samples, out, |s| ((s as u16) ^ 0x8000).to_be_bytes()),
    }
}

/// Unpacks a byte stream in the layout of `enc` into linear samples.
///
/// For 16-bit encodings a trailing odd byte (a torn frame from a
/// truncated packet) is ignored.
pub fn decode_samples(bytes: &[u8], enc: Encoding) -> Vec<i16> {
    let mut out = Vec::new();
    decode_samples_into(bytes, enc, &mut out);
    out
}

/// [`decode_samples`] into a caller-provided buffer (cleared first).
/// Reusing `out` across packets makes steady-state decode
/// allocation-free; each arm extends from a LUT-mapped iterator the
/// autovectorizer can unroll.
pub fn decode_samples_into(bytes: &[u8], enc: Encoding, out: &mut Vec<i16>) {
    out.clear();
    match enc {
        Encoding::ULaw => out.extend(bytes.iter().map(|&b| ulaw_to_linear(b))),
        Encoding::ALaw => out.extend(bytes.iter().map(|&b| alaw_to_linear(b))),
        Encoding::Slinear8 => out.extend(bytes.iter().map(|&b| ((b as i8) as i16) << 8)),
        Encoding::Ulinear8 => out.extend(bytes.iter().map(|&b| ((b as i16) - 128) << 8)),
        Encoding::Slinear16Le => out.extend(
            bytes
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes([c[0], c[1]])),
        ),
        Encoding::Slinear16Be => out.extend(
            bytes
                .chunks_exact(2)
                .map(|c| i16::from_be_bytes([c[0], c[1]])),
        ),
        Encoding::Ulinear16Le => out.extend(
            bytes
                .chunks_exact(2)
                .map(|c| (u16::from_le_bytes([c[0], c[1]]) ^ 0x8000) as i16),
        ),
        Encoding::Ulinear16Be => out.extend(
            bytes
                .chunks_exact(2)
                .map(|c| (u16::from_be_bytes([c[0], c[1]]) ^ 0x8000) as i16),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulaw_roundtrip_error_is_bounded() {
        // Companding is lossy but the error must shrink relative to
        // magnitude (that is the point of the log curve).
        for s in (-32_768i32..=32_767).step_by(17) {
            let s = s as i16;
            let rt = ulaw_to_linear(linear_to_ulaw(s));
            let err = (rt as i32 - s as i32).abs();
            let bound = (s as i32).abs() / 16 + 36;
            assert!(err <= bound, "s={s} rt={rt} err={err}");
        }
    }

    #[test]
    fn alaw_roundtrip_error_is_bounded() {
        for s in (-32_768i32..=32_767).step_by(13) {
            let s = s as i16;
            let rt = alaw_to_linear(linear_to_alaw(s));
            let err = (rt as i32 - s as i32).abs();
            let bound = (s as i32).abs() / 16 + 64;
            assert!(err <= bound, "s={s} rt={rt} err={err}");
        }
    }

    #[test]
    fn ulaw_decode_is_monotone_in_code_magnitude() {
        // Within the positive half, a numerically larger decoded code
        // must never come from a smaller linear value.
        let mut prev = i16::MIN;
        for s in (0..=32_767).step_by(97) {
            let v = ulaw_to_linear(linear_to_ulaw(s as i16));
            assert!(v >= prev, "non-monotone at {s}");
            prev = v;
        }
    }

    #[test]
    fn companding_is_odd_symmetric_enough() {
        for s in [1i16, 100, 1000, 10_000, 30_000] {
            let pos = ulaw_to_linear(linear_to_ulaw(s)) as i32;
            let neg = ulaw_to_linear(linear_to_ulaw(-s)) as i32;
            assert!((pos + neg).abs() <= 1, "ulaw asymmetric at {s}");
            let pos = alaw_to_linear(linear_to_alaw(s)) as i32;
            let neg = alaw_to_linear(linear_to_alaw(-s)) as i32;
            assert!(
                (pos + neg).abs() <= 16,
                "alaw asymmetric at {s}: {pos} vs {neg}"
            );
        }
    }

    #[test]
    fn ulaw_silence_is_near_zero() {
        let z = ulaw_to_linear(linear_to_ulaw(0));
        assert!(z.abs() <= 8, "{z}");
    }

    #[test]
    fn linear16_roundtrips_exactly() {
        let samples: Vec<i16> = vec![0, 1, -1, i16::MAX, i16::MIN, 12_345, -23_456];
        for enc in [
            Encoding::Slinear16Le,
            Encoding::Slinear16Be,
            Encoding::Ulinear16Le,
            Encoding::Ulinear16Be,
        ] {
            let bytes = encode_samples(&samples, enc);
            assert_eq!(bytes.len(), samples.len() * 2);
            assert_eq!(decode_samples(&bytes, enc), samples, "{enc}");
        }
    }

    #[test]
    fn linear8_roundtrip_preserves_high_byte() {
        let samples: Vec<i16> = vec![0, 256, -256, 32_512, -32_768];
        for enc in [Encoding::Slinear8, Encoding::Ulinear8] {
            let rt = decode_samples(&encode_samples(&samples, enc), enc);
            for (a, b) in samples.iter().zip(&rt) {
                assert_eq!(a & !0xFFi16, *b, "{enc}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn endianness_actually_differs() {
        let bytes_le = encode_samples(&[0x0102], Encoding::Slinear16Le);
        let bytes_be = encode_samples(&[0x0102], Encoding::Slinear16Be);
        assert_eq!(bytes_le, vec![0x02, 0x01]);
        assert_eq!(bytes_be, vec![0x01, 0x02]);
    }

    #[test]
    fn torn_frame_is_ignored() {
        let bytes = vec![0x01, 0x02, 0x03];
        assert_eq!(decode_samples(&bytes, Encoding::Slinear16Le).len(), 1);
    }

    #[test]
    fn decode_tables_match_reference_algorithm() {
        for code in 0..=255u8 {
            assert_eq!(ulaw_to_linear(code), ulaw_expand(code), "ulaw {code}");
            assert_eq!(alaw_to_linear(code), alaw_expand(code), "alaw {code}");
        }
    }

    #[test]
    fn encode_tables_match_reference_algorithm() {
        for s in i16::MIN..=i16::MAX {
            assert_eq!(linear_to_ulaw(s), ulaw_compress(s), "ulaw {s}");
            assert_eq!(linear_to_alaw(s), alaw_compress(s), "alaw {s}");
        }
    }

    #[test]
    fn companded_stream_length_matches() {
        let samples = vec![100i16; 50];
        assert_eq!(encode_samples(&samples, Encoding::ULaw).len(), 50);
        assert_eq!(encode_samples(&samples, Encoding::ALaw).len(), 50);
        assert_eq!(
            decode_samples(&encode_samples(&samples, Encoding::ALaw), Encoding::ALaw).len(),
            50
        );
    }
}
