//! Bit-level I/O and Rice/Golomb coding.
//!
//! The OVL transform codec (this workspace's stand-in for Ogg Vorbis,
//! see [`crate::ovl`]) packs quantized coefficients with Rice coding;
//! this module provides the MSB-first bit writer/reader plus the
//! zig-zag signed mapping both the OVL and ADPCM paths use.

/// MSB-first bit writer.
///
/// Bits accumulate in a 64-bit register and spill to the byte vector
/// eight bytes at a time, so a Rice code (flag + unary + remainder)
/// costs a couple of shifts instead of one loop iteration per bit.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    // Pending bits, left-aligned: the MSB of `acc` is the next bit to
    // reach the stream.
    acc: u64,
    // Number of valid bits in `acc` (0..64).
    fill: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer backed by `bytes` (cleared), reusing its
    /// allocation across packets.
    pub fn with_buffer(mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        BitWriter {
            bytes,
            acc: 0,
            fill: 0,
        }
    }

    #[inline]
    fn flush_acc(&mut self) {
        // Spill whole bytes from the top of the accumulator.
        while self.fill >= 8 {
            self.bytes.push((self.acc >> 56) as u8);
            self.acc <<= 8;
            self.fill -= 8;
        }
    }

    /// Appends the low `n` bits of `value`, MSB first. `n` may be 0..=32.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u8) {
        assert!(n <= 32, "cannot write more than 32 bits at once");
        if n == 0 {
            return;
        }
        let n = n as u32;
        let masked = (value as u64) & (u64::MAX >> (64 - n));
        if self.fill + n > 64 {
            self.flush_acc();
        }
        self.acc |= masked << (64 - n - self.fill);
        self.fill += n;
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.fill == 64 {
            self.flush_acc();
        }
        self.acc |= (bit as u64) << (63 - self.fill);
        self.fill += 1;
    }

    /// Writes `value` in unary: `value` one-bits then a zero-bit.
    #[inline]
    pub fn write_unary(&mut self, value: u32) {
        let mut ones = value;
        // Runs of up to 32 set bits go out as one masked write.
        while ones >= 32 {
            self.write_bits(u32::MAX, 32);
            ones -= 32;
        }
        // `ones` one-bits followed by the terminating zero-bit.
        if ones == 31 {
            self.write_bits(u32::MAX - 1, 32);
        } else {
            self.write_bits((1u32 << (ones + 1)) - 2, (ones + 1) as u8);
        }
    }

    /// Writes a non-negative value Rice-coded with parameter `k`:
    /// quotient in unary, remainder in `k` raw bits.
    #[inline]
    pub fn write_rice(&mut self, value: u32, k: u8) {
        assert!(k < 32, "rice parameter must be < 32");
        let q = value >> k;
        self.write_unary(q);
        self.write_bits(value & ((1u32 << k) - 1), k);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.fill as usize
    }

    /// Finishes the stream, padding the final byte with zero bits.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_acc();
        if self.fill > 0 {
            self.bytes.push((self.acc >> 56) as u8);
        }
        self.bytes
    }

    /// Finishes the stream into `out` (appending), returning the
    /// writer's buffer for reuse. Zero-allocation counterpart of
    /// [`BitWriter::into_bytes`].
    pub fn drain_into(mut self, out: &mut Vec<u8>) -> Vec<u8> {
        self.flush_acc();
        if self.fill > 0 {
            self.bytes.push((self.acc >> 56) as u8);
        }
        out.extend_from_slice(&self.bytes);
        self.bytes
    }
}

/// MSB-first bit reader over a byte slice.
///
/// Mirrors [`BitWriter`]: bytes stream into a left-aligned 64-bit
/// accumulator, so Rice decodes resolve their unary run with one
/// `leading_zeros` instead of a per-bit loop.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    // Next byte to load into the accumulator.
    byte_pos: usize,
    // Loaded bits, left-aligned; bits below `fill` are zero.
    acc: u64,
    // Number of valid bits in `acc` (0..=64).
    fill: u32,
}

/// Error returned when a read runs past the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl core::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("bitstream exhausted")
    }
}

impl std::error::Error for OutOfBits {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            acc: 0,
            fill: 0,
        }
    }

    /// Remaining readable bits.
    pub fn remaining(&self) -> usize {
        (self.bytes.len() - self.byte_pos) * 8 + self.fill as usize
    }

    #[inline]
    fn refill(&mut self) {
        while self.fill <= 56 && self.byte_pos < self.bytes.len() {
            self.acc |= (self.bytes[self.byte_pos] as u64) << (56 - self.fill);
            self.fill += 8;
            self.byte_pos += 1;
        }
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, OutOfBits> {
        if self.fill == 0 {
            self.refill();
            if self.fill == 0 {
                return Err(OutOfBits);
            }
        }
        let bit = self.acc >> 63;
        self.acc <<= 1;
        self.fill -= 1;
        Ok(bit == 1)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u32, OutOfBits> {
        assert!(n <= 32, "cannot read more than 32 bits at once");
        if n == 0 {
            return Ok(0);
        }
        let n = n as u32;
        if self.fill < n {
            self.refill();
            if self.fill < n {
                return Err(OutOfBits);
            }
        }
        let v = (self.acc >> (64 - n)) as u32;
        self.acc <<= n;
        self.fill -= n;
        Ok(v)
    }

    /// Reads a unary-coded value, bounded to guard against corrupt
    /// streams (fails after 2^20 consecutive one-bits).
    #[inline]
    pub fn read_unary(&mut self) -> Result<u32, OutOfBits> {
        let mut v = 0u32;
        loop {
            if self.fill == 0 {
                self.refill();
                if self.fill == 0 {
                    return Err(OutOfBits);
                }
            }
            // Bits below `fill` are zero, so `!acc` has a set bit at or
            // above position `fill` and this count never overshoots.
            let ones = (!self.acc).leading_zeros();
            if ones < self.fill {
                // The run terminates inside the loaded bits: consume the
                // ones plus the terminating zero in one shift.
                v += ones;
                // `ones + 1` can reach 64 (a 63-one run filling the
                // accumulator); shift in two steps to stay in range.
                self.acc = (self.acc << ones) << 1;
                self.fill -= ones + 1;
                if v > (1 << 20) {
                    return Err(OutOfBits);
                }
                return Ok(v);
            }
            // The whole accumulator is ones; drain it and keep going.
            v += self.fill;
            self.acc = 0;
            self.fill = 0;
            if v > (1 << 20) {
                return Err(OutOfBits);
            }
        }
    }

    /// Reads a Rice-coded value with parameter `k`.
    #[inline]
    pub fn read_rice(&mut self, k: u8) -> Result<u32, OutOfBits> {
        let q = self.read_unary()?;
        let r = self.read_bits(k)?;
        Ok((q << k) | r)
    }
}

/// Maps a signed integer to an unsigned one with small magnitudes
/// staying small: 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4.
pub fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Picks a Rice parameter close to optimal for values with the given
/// mean magnitude.
pub fn rice_param_for_mean(mean: f64) -> u8 {
    if mean < 1.0 {
        return 0;
    }
    (mean.log2().ceil() as i64).clamp(0, 24) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF_FFFF, 32);
        w.write_bits(0, 1);
        w.write_bits(0b01, 2);
        assert_eq!(w.bit_len(), 38);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xFFFF_FFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
    }

    #[test]
    fn reading_past_end_fails() {
        let mut r = BitReader::new(&[0xAA]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAA);
        assert_eq!(r.read_bits(1), Err(OutOfBits));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for v in [0u32, 1, 5, 40] {
            w.write_unary(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in [0u32, 1, 5, 40] {
            assert_eq!(r.read_unary().unwrap(), v);
        }
    }

    #[test]
    fn corrupt_unary_is_bounded() {
        let bytes = vec![0xFF; 1 << 18];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_unary(), Err(OutOfBits));
    }

    #[test]
    fn rice_roundtrip_various_params() {
        for k in 0..12u8 {
            let mut w = BitWriter::new();
            let values = [0u32, 1, 7, 100, 1_000];
            for &v in &values {
                w.write_rice(v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(r.read_rice(k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn zigzag_examples() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(4), 2);
    }

    #[test]
    fn rice_param_heuristic() {
        assert_eq!(rice_param_for_mean(0.3), 0);
        assert_eq!(rice_param_for_mean(1.0), 0);
        assert_eq!(rice_param_for_mean(7.9), 3);
        assert_eq!(rice_param_for_mean(1e12), 24);
    }

    proptest! {
        #[test]
        fn prop_bits_roundtrip(values in proptest::collection::vec((0u32..=u32::MAX, 1u8..=32), 0..64)) {
            let mut w = BitWriter::new();
            for &(v, n) in &values {
                let masked = if n == 32 { v } else { v & ((1u32 << n) - 1) };
                w.write_bits(masked, n);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &values {
                let masked = if n == 32 { v } else { v & ((1u32 << n) - 1) };
                prop_assert_eq!(r.read_bits(n).unwrap(), masked);
            }
        }

        #[test]
        fn prop_zigzag_roundtrip(v in i32::MIN..=i32::MAX) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        #[test]
        fn prop_rice_roundtrip(values in proptest::collection::vec(0u32..100_000, 0..32), k in 0u8..16) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.write_rice(v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.read_rice(k).unwrap(), v);
            }
        }
    }
}
