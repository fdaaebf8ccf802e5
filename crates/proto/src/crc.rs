//! CRC-32 (IEEE 802.3) for packet integrity.
//!
//! §5.1: "we want to prevent malicious hosts from injecting packets
//! into an audio stream. We do this by allowing the ES to perform
//! integrity checks on the incoming packets." The CRC is the
//! *accidental-corruption* layer of that defence (the cryptographic
//! layer lives in [`crate::auth`]); it also catches torn packets from
//! the fragmentation path.

/// Computes the IEEE CRC-32 of `data` (reflected, init all-ones,
/// final xor all-ones — the Ethernet FCS polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes per lane: one of a round's three independent chains.
const LANE: usize = 256;

/// Bytes per round: three lanes side by side.
const ROUND: usize = 3 * LANE;

/// Slice-by-16 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so sixteen input bytes fold into the state with sixteen
/// independent lookups instead of 128 shift-and-xor steps.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// The state after [`LANE`] zero bytes, byte by byte of the state:
/// `SHIFT[k][b]` is where state `b << 8k` lands. Running zeros through
/// the register multiplies the state by x^2048 mod P, which is linear
/// over GF(2), so the four bytes' images xor to the whole state's. Each
/// image is the xor of its set bits' images, and those are the 32
/// one-bit states run through the zeros.
const SHIFT: [[u32; 256]; 4] = {
    let mut bits = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut s = 1u32 << i;
        let mut n = 0;
        while n < LANE {
            s = (s >> 8) ^ TABLES[0][(s & 0xFF) as usize];
            n += 1;
        }
        bits[i] = s;
        i += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut image = 0;
            let mut bit = 0;
            while bit < 8 {
                if b >> bit & 1 != 0 {
                    image ^= bits[8 * k + bit];
                }
                bit += 1;
            }
            t[k][b] = image;
            b += 1;
        }
        k += 1;
    }
    t
};

/// One table lookup. The mask keeps the index below 256, so the
/// checked access can never miss (and compiles to a plain load).
#[inline(always)]
fn lut(table: &[u32; 256], index: u32) -> u32 {
    table.get((index & 0xFF) as usize).copied().unwrap_or(0)
}

/// Folds sixteen bytes into `state`.
#[inline(always)]
fn fold16(state: u32, bytes: &[u8; 16]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let [a, b, c, d, rest @ ..] = *bytes;
    let [e, f, g, h, i, j, k, l, m, n, o, p] = rest;
    let lo = u32::from_le_bytes([a, b, c, d]) ^ state;
    (lut(t15, lo) ^ lut(t14, lo >> 8) ^ lut(t13, lo >> 16) ^ lut(t12, lo >> 24))
        ^ (lut(t11, e as u32) ^ lut(t10, f as u32) ^ lut(t9, g as u32) ^ lut(t8, h as u32))
        ^ (lut(t7, i as u32) ^ lut(t6, j as u32) ^ lut(t5, k as u32) ^ lut(t4, l as u32))
        ^ (lut(t3, m as u32) ^ lut(t2, n as u32) ^ lut(t1, o as u32) ^ lut(t0, p as u32))
}

/// `state` run through [`LANE`] zero bytes: four lookups.
#[inline(always)]
fn shift(state: u32) -> u32 {
    let [s0, s1, s2, s3] = &SHIFT;
    lut(s0, state) ^ lut(s1, state >> 8) ^ lut(s2, state >> 16) ^ lut(s3, state >> 24)
}

/// Streams additional bytes into a running CRC state (pass
/// `0xFFFF_FFFF` to start; xor the result with `0xFFFF_FFFF` to
/// finish).
///
/// A lone slice-by-16 chain is latency-bound: each 16 bytes wait on the
/// loads and xors of the 16 before. So each 768-byte round of the input
/// is three 256-byte lanes folded side by side, the first from `state`
/// and the others from 0, and joined by linearity: the CRC of `a ‖ b` from
/// `s` is the CRC of `a` from `s` run through `b`'s length of zeros,
/// xor the CRC of `b` from 0. The bytes after the last round take one
/// chain, sixteen at a time and then one at a time.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let (rounds, rest) = data.as_chunks::<ROUND>();
    for round in rounds {
        let (blocks, _) = round.as_chunks::<16>();
        let (a, bc) = blocks.split_at(LANE / 16);
        let (b, c) = bc.split_at(LANE / 16);
        let (mut sa, mut sb, mut sc) = (state, 0, 0);
        for ((a, b), c) in a.iter().zip(b).zip(c) {
            sa = fold16(sa, a);
            sb = fold16(sb, b);
            sc = fold16(sc, c);
        }
        state = shift(shift(sa) ^ sb) ^ sc;
    }
    let (blocks, tail) = rest.as_chunks::<16>();
    for block in blocks {
        state = fold16(state, block);
    }
    let t0 = &TABLES[0];
    for &byte in tail {
        state = (state >> 8) ^ lut(t0, state ^ byte as u32);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bit-at-a-time reference the table kernel is checked against.
    fn bitwise_update(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        state
    }

    proptest::proptest! {
        /// The lane join on its own: the shift table is the state run
        /// through one lane of zeros.
        #[test]
        fn prop_shift_is_a_lane_of_zeros(state in proptest::num::u32::ANY) {
            proptest::prop_assert_eq!(shift(state), bitwise_update(state, &[0; LANE]));
        }

        #[test]
        fn prop_table_kernel_matches_bitwise_oracle(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..9_001),
            init in proptest::num::u32::ANY,
        ) {
            let want = bitwise_update(init, &data);
            proptest::prop_assert_eq!(crc32_update(init, &data), want);
            // Streaming: every split point, so each head length meets
            // the rounds, the 16-byte chain and the byte tail at every
            // offset into a lane.
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                proptest::prop_assert_eq!(
                    crc32_update(crc32_update(init, a), b),
                    want,
                    "split at {} of {}",
                    split,
                    data.len()
                );
            }
        }
    }

    /// Deterministic bytes for the fixed-length checks.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    /// Start states: all-ones (how [`crc32`] starts), 0, and two
    /// arbitrary ones.
    const STATES: [u32; 4] = [0xFFFF_FFFF, 0, 0x1234_5678, 0x8000_0001];

    #[test]
    fn every_length_through_three_rounds_matches_the_oracle() {
        // Three whole rounds and a tail that meets both the 16-byte
        // chain and the byte loop; each prefix is one length.
        let data = noise(3 * ROUND + 47, 1);
        for (i, &init) in STATES.iter().enumerate() {
            let mut want = init;
            for len in 0..=data.len() {
                assert_eq!(
                    crc32_update(init, &data[..len]),
                    want,
                    "state {i}, length {len}"
                );
                if let Some(&byte) = data.get(len) {
                    want = bitwise_update(want, &[byte]);
                }
            }
        }
    }

    #[test]
    fn splits_at_every_lane_and_round_boundary_match_the_oracle() {
        let data = noise(3 * ROUND + 47, 2);
        let want: Vec<u32> = STATES.iter().map(|&s| bitwise_update(s, &data)).collect();
        for boundary in (0..=3 * ROUND).step_by(LANE) {
            for split in [boundary.saturating_sub(1), boundary, boundary + 1] {
                let (a, b) = data.split_at(split);
                for (&init, &want) in STATES.iter().zip(&want) {
                    assert_eq!(
                        crc32_update(crc32_update(init, a), b),
                        want,
                        "split at {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_long_input_matches_the_oracle() {
        // 64 KiB and an odd tail: 85 rounds, then both tail loops.
        let data = noise((64 << 10) + 29, 3);
        for &init in &STATES {
            assert_eq!(crc32_update(init, &data), bitwise_update(init, &data));
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the ethernet speaker system";
        let one = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, one);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"audio block payload".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), good, "missed flip at {byte}.{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
