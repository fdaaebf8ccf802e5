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

/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of 64 shift-and-xor steps.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
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
    while k < 8 {
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

/// One table lookup. The mask keeps the index below 256, so the
/// checked access can never miss (and compiles to a plain load).
#[inline(always)]
fn lut(table: &[u32; 256], index: u32) -> u32 {
    table.get((index & 0xFF) as usize).copied().unwrap_or(0)
}

/// Streams additional bytes into a running CRC state (pass
/// `0xFFFF_FFFF` to start; xor the result with `0xFFFF_FFFF` to
/// finish).
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in words {
        let lo = u32::from_le_bytes([a, b, c, d]) ^ state;
        state = lut(t7, lo)
            ^ lut(t6, lo >> 8)
            ^ lut(t5, lo >> 16)
            ^ lut(t4, lo >> 24)
            ^ lut(t3, e as u32)
            ^ lut(t2, f as u32)
            ^ lut(t1, g as u32)
            ^ lut(t0, h as u32);
    }
    for &byte in tail {
        state = (state >> 8) ^ lut(t0, state ^ byte as u32);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

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
        #[test]
        fn prop_table_kernel_matches_bitwise_oracle(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..9_001),
            init in proptest::num::u32::ANY,
        ) {
            let want = bitwise_update(init, &data);
            proptest::prop_assert_eq!(crc32_update(init, &data), want);
            // Streaming: every split point, so each head/tail length
            // residue mod 8 meets the word loop and the byte tail.
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
