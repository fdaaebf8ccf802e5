//! The hardware-independent driver's block ring buffer.
//!
//! OpenBSD's high-level audio driver stores written data in a ring
//! buffer and hands it to the low-level driver one *block* at a time;
//! when the ring runs dry mid-playback it inserts silence (§2.1.1).
//! Writers that outrun the consumer fill the ring and then block —
//! which is exactly the behaviour the VAD *loses* by having no hardware
//! behind it (§3.1), so both properties must be modelled precisely.

/// A byte ring buffer with block-granular consumption.
#[derive(Debug)]
pub struct AudioRing {
    buf: std::collections::VecDeque<u8>,
    capacity: usize,
    blocksize: usize,
    total_written: u64,
    total_consumed: u64,
    underruns: u64,
    silence_bytes: u64,
}

impl AudioRing {
    /// Creates a ring. `capacity` is rounded up to a whole number of
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocksize` is zero or larger than `capacity`.
    pub fn new(capacity: usize, blocksize: usize) -> Self {
        assert!(blocksize > 0, "blocksize must be non-zero");
        assert!(
            capacity >= blocksize,
            "capacity must hold at least one block"
        );
        let capacity = capacity.div_ceil(blocksize) * blocksize;
        AudioRing {
            buf: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            blocksize,
            total_written: 0,
            total_consumed: 0,
            underruns: 0,
            silence_bytes: 0,
        }
    }

    /// The block size in bytes.
    pub fn blocksize(&self) -> usize {
        self.blocksize
    }

    /// Changes the block size (takes effect for subsequent blocks).
    ///
    /// # Panics
    ///
    /// Panics if `blocksize` is zero or exceeds capacity.
    pub fn set_blocksize(&mut self, blocksize: usize) {
        assert!(blocksize > 0, "blocksize must be non-zero");
        assert!(blocksize <= self.capacity, "blocksize exceeds capacity");
        self.blocksize = blocksize;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently buffered.
    pub fn used(&self) -> usize {
        self.buf.len()
    }

    /// Bytes of free space.
    pub fn free(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// True if at least one full block is available.
    pub fn has_block(&self) -> bool {
        self.buf.len() >= self.blocksize
    }

    /// Appends as much of `data` as fits; returns the number of bytes
    /// accepted (the `write(2)` short-write semantics — the caller
    /// blocks/retries for the rest).
    pub fn write(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        self.buf.extend(&data[..n]);
        self.total_written += n as u64;
        n
    }

    /// Removes one block. With `fill_silence`, an empty or partial ring
    /// still yields a full block padded with zeros and the underrun is
    /// counted — the hardware path, which must feed the DAC something.
    /// Without it, `None` is returned unless a full block is buffered —
    /// the VAD path, which must not invent data (§2.1.1 vs §3.3).
    pub fn take_block(&mut self, fill_silence: bool) -> Option<Vec<u8>> {
        let have = self.buf.len().min(self.blocksize);
        if have < self.blocksize && !fill_silence {
            return None;
        }
        // The block leaves as at most two slice copies — the ring's
        // contiguous halves — never byte by byte.
        let mut block = Vec::with_capacity(self.blocksize);
        let (front, back) = self.buf.as_slices();
        let front = front.get(..have).unwrap_or(front);
        let back = back.get(..have - front.len()).unwrap_or(back);
        block.extend_from_slice(front);
        block.extend_from_slice(back);
        self.buf.drain(..have);
        self.total_consumed += have as u64;
        if have < self.blocksize {
            // Partial data padded with silence.
            block.resize(self.blocksize, 0);
            self.silence_bytes += (self.blocksize - have) as u64;
            self.underruns += 1;
        }
        Some(block)
    }

    /// Discards all buffered data (the `AUDIO_FLUSH` ioctl).
    pub fn flush(&mut self) {
        self.buf.clear();
    }

    /// Bytes ever accepted by [`AudioRing::write`].
    pub fn total_written(&self) -> u64 {
        self.total_written
    }

    /// Bytes ever removed as real data (silence padding not included).
    pub fn total_consumed(&self) -> u64 {
        self.total_consumed
    }

    /// Number of underruns (blocks that needed silence padding).
    pub fn underruns(&self) -> u64 {
        self.underruns
    }

    /// Total silence bytes inserted on underruns.
    pub fn silence_bytes(&self) -> u64 {
        self.silence_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_take_roundtrip() {
        let mut r = AudioRing::new(64, 16);
        assert_eq!(r.write(&[1u8; 20]), 20);
        assert!(r.has_block());
        let b = r.take_block(false).unwrap();
        assert_eq!(b, vec![1u8; 16]);
        assert_eq!(r.used(), 4);
        assert!(!r.has_block());
        assert_eq!(r.take_block(false), None);
    }

    #[test]
    fn short_write_when_full() {
        let mut r = AudioRing::new(32, 16);
        assert_eq!(r.write(&[9u8; 40]), 32);
        assert_eq!(r.free(), 0);
        assert_eq!(r.write(&[9u8; 8]), 0, "full ring accepts nothing");
        r.take_block(false).unwrap();
        assert_eq!(r.write(&[9u8; 40]), 16, "one block freed");
    }

    #[test]
    fn silence_fill_counts_underruns() {
        let mut r = AudioRing::new(64, 16);
        r.write(&[7u8; 10]);
        let b = r.take_block(true).unwrap();
        assert_eq!(&b[..10], &[7u8; 10]);
        assert_eq!(&b[10..], &[0u8; 6]);
        assert_eq!(r.underruns(), 1);
        assert_eq!(r.silence_bytes(), 6);
        // Empty ring: a whole block of silence.
        let b = r.take_block(true).unwrap();
        assert_eq!(b, vec![0u8; 16]);
        assert_eq!(r.underruns(), 2);
        assert_eq!(r.silence_bytes(), 22);
    }

    #[test]
    fn capacity_rounds_to_blocks() {
        let r = AudioRing::new(33, 16);
        assert_eq!(r.capacity(), 48);
    }

    #[test]
    fn flush_discards() {
        let mut r = AudioRing::new(64, 16);
        r.write(&[1u8; 30]);
        r.flush();
        assert_eq!(r.used(), 0);
        assert_eq!(r.total_written(), 30, "counters keep history");
    }

    #[test]
    fn blocksize_change() {
        let mut r = AudioRing::new(64, 16);
        r.write(&[1u8; 10]);
        assert!(!r.has_block());
        r.set_blocksize(8);
        assert!(r.has_block());
        assert_eq!(r.take_block(false).unwrap().len(), 8);
    }

    #[test]
    fn accounting_is_consistent() {
        let mut r = AudioRing::new(128, 32);
        r.write(&[5u8; 100]);
        let mut real = 0u64;
        while let Some(_b) = r.take_block(false) {
            real += 32;
        }
        let _ = r.take_block(true);
        assert_eq!(r.total_consumed(), 100);
        assert_eq!(real, 96);
        assert_eq!(r.silence_bytes(), 28);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_blocksize_panics() {
        let _ = AudioRing::new(64, 0);
    }

    /// The ring as §2.1.1 words it, one byte at a time: the reference
    /// the slice-copying [`AudioRing`] must be indistinguishable from.
    struct ByteModel {
        buf: std::collections::VecDeque<u8>,
        capacity: usize,
        blocksize: usize,
        consumed: u64,
        underruns: u64,
        silence: u64,
    }

    impl ByteModel {
        fn write(&mut self, data: &[u8]) -> usize {
            let mut n = 0;
            for &b in data {
                if self.buf.len() == self.capacity {
                    break;
                }
                self.buf.push_back(b);
                n += 1;
            }
            n
        }

        fn take_block(&mut self, fill_silence: bool) -> Option<Vec<u8>> {
            if self.buf.len() < self.blocksize && !fill_silence {
                return None;
            }
            self.underruns += (self.buf.len() < self.blocksize) as u64;
            let mut block = Vec::new();
            for _ in 0..self.blocksize {
                match self.buf.pop_front() {
                    Some(b) => {
                        block.push(b);
                        self.consumed += 1;
                    }
                    None => {
                        block.push(0);
                        self.silence += 1;
                    }
                }
            }
            Some(block)
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_byte_at_a_time_model(
            ops in proptest::collection::vec((0u8..8, 0usize..80), 1..300)
        ) {
            let mut r = AudioRing::new(96, 32);
            let mut m = ByteModel {
                buf: std::collections::VecDeque::new(),
                capacity: 96,
                blocksize: 32,
                consumed: 0,
                underruns: 0,
                silence: 0,
            };
            let mut next = 0u8;
            let mut bytes = |len: usize| -> Vec<u8> {
                (0..len).map(|_| { next = next.wrapping_add(1); next }).collect()
            };
            // Park the read position mid-buffer and write past the
            // physical end, so every case starts with its data split
            // across both halves of the ring.
            for _ in 0..8 {
                let data = bytes(40);
                proptest::prop_assert_eq!(r.write(&data), m.write(&data));
                if !r.buf.as_slices().1.is_empty() {
                    break;
                }
                proptest::prop_assert_eq!(r.take_block(false), m.take_block(false));
            }
            proptest::prop_assert!(!r.buf.as_slices().1.is_empty(), "ring never wrapped");
            for (kind, len) in ops {
                match kind {
                    0..=2 => {
                        let data = bytes(len);
                        proptest::prop_assert_eq!(r.write(&data), m.write(&data));
                    }
                    3..=6 => {
                        let fill = kind < 5;
                        proptest::prop_assert_eq!(r.take_block(fill), m.take_block(fill));
                    }
                    _ if len % 5 == 0 => {
                        r.flush();
                        m.buf.clear();
                    }
                    _ => {
                        r.set_blocksize(1 + len % 48);
                        m.blocksize = 1 + len % 48;
                    }
                }
                proptest::prop_assert_eq!(r.used(), m.buf.len());
                proptest::prop_assert_eq!(r.total_consumed(), m.consumed);
                proptest::prop_assert_eq!(r.underruns(), m.underruns);
                proptest::prop_assert_eq!(r.silence_bytes(), m.silence);
            }
        }

        #[test]
        fn prop_conservation(ops in proptest::collection::vec((0usize..80, proptest::bool::ANY), 1..200)) {
            // Every byte written is eventually consumed exactly once or
            // still buffered; silence never counts as consumed data.
            let mut r = AudioRing::new(256, 32);
            let mut written = 0u64;
            let mut taken = 0u64;
            for (len, take) in ops {
                if take {
                    if let Some(_b) = r.take_block(len % 2 == 0) {
                        // Real bytes = blocksize - any padding this call added.
                    }
                    taken = r.total_consumed();
                } else {
                    written += r.write(&vec![1u8; len]) as u64;
                }
            }
            proptest::prop_assert_eq!(written, r.total_written());
            proptest::prop_assert_eq!(taken.max(r.total_consumed()), r.total_consumed());
            proptest::prop_assert_eq!(r.total_written(), r.total_consumed() + r.used() as u64);
        }
    }
}
