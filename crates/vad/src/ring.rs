//! The hardware-independent driver's block ring buffer.
//!
//! OpenBSD's high-level audio driver stores written data in a ring
//! buffer and hands it to the low-level driver one *block* at a time;
//! when the ring runs dry mid-playback it inserts silence (§2.1.1).
//! Writers that outrun the consumer fill the ring and then block —
//! which is exactly the behaviour the VAD *loses* by having no hardware
//! behind it (§3.1), so both properties must be modelled precisely.
//!
//! What the model keeps of the ring is its accounting — capacity,
//! occupancy, block-granular consumption, underruns — not its storage:
//! the bytes stay in the buffers they were written from, and the ring
//! queues *runs*, reference-counted handles to a range of such a
//! buffer. A block that lies inside one run leaves as a handle to that
//! range, so a played block is never copied (DESIGN.md §5).

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

/// A handle to a contiguous range of a shared buffer, read through
/// `Deref<Target = [u8]>`. Queued in an [`AudioRing`] it is a *run* —
/// the bytes one write was accepted for; returned by
/// [`AudioRing::take_block`] it is one block: a range of the writer's
/// own buffer when the block lay inside one run, all of a buffer
/// assembled for it otherwise.
#[derive(Debug)]
pub struct Block {
    buf: Rc<Vec<u8>>,
    range: Range<usize>,
}

impl Block {
    /// The block as an owned vector: the buffer itself when this block
    /// is all of it and nobody else holds it, a copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        if self.range == (0..self.buf.len()) {
            Rc::try_unwrap(self.buf).unwrap_or_else(|shared| shared.to_vec())
        } else {
            self[..].to_vec()
        }
    }
}

impl std::ops::Deref for Block {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

/// A byte ring buffer with block-granular consumption.
#[derive(Debug)]
pub struct AudioRing {
    /// Buffered data, oldest first; no run is empty.
    runs: VecDeque<Block>,
    /// Total length of `runs`.
    used: usize,
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
            runs: VecDeque::new(),
            used: 0,
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
        self.used
    }

    /// Bytes of free space.
    pub fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// True if at least one full block is available.
    pub fn has_block(&self) -> bool {
        self.used >= self.blocksize
    }

    /// Appends as much of `data` as fits; returns the number of bytes
    /// accepted (the `write(2)` short-write semantics — the caller
    /// blocks/retries for the rest). The caller keeps `data`, so what
    /// was accepted is copied once, into a run of its own.
    pub fn write(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        if n > 0 {
            self.push(Block {
                buf: Rc::new(data[..n].to_vec()),
                range: 0..n,
            });
        }
        n
    }

    // es-hot-path
    /// [`AudioRing::write`] by reference: appends as much of
    /// `buf[from..]` as fits and returns the number of bytes accepted.
    /// Nothing is copied; the ring holds `buf` until the range has
    /// been consumed or flushed, and the writer must not expect to
    /// reuse the allocation before then.
    pub fn write_shared(&mut self, buf: &Rc<Vec<u8>>, from: usize) -> usize {
        let n = buf.len().saturating_sub(from).min(self.free());
        if n > 0 {
            self.push(Block {
                buf: Rc::clone(buf),
                range: from..from + n,
            });
        }
        n
    }

    fn push(&mut self, run: Block) {
        self.used += run.range.len();
        self.total_written += run.range.len() as u64;
        self.runs.push_back(run);
    }

    /// Removes one block. With `fill_silence`, an empty or partial ring
    /// still yields a full block padded with zeros and the underrun is
    /// counted — the hardware path, which must feed the DAC something.
    /// Without it, `None` is returned unless a full block is buffered —
    /// the VAD path, which must not invent data (§2.1.1 vs §3.3).
    pub fn take_block(&mut self, fill_silence: bool) -> Option<Block> {
        let blocksize = self.blocksize;
        let have = self.used.min(blocksize);
        if have < blocksize && !fill_silence {
            return None;
        }
        self.used -= have;
        self.total_consumed += have as u64;
        // The steady state, a packet written per block played: the
        // block lies inside the front run and leaves as that run, or
        // as a handle to the head of it.
        let front_len = self.runs.front().map_or(0, |run| run.range.len());
        if front_len == blocksize {
            return self.runs.pop_front();
        }
        if front_len > blocksize {
            let front = self.runs.front_mut().expect("front_len is its length");
            let start = front.range.start;
            front.range.start += blocksize;
            return Some(Block {
                buf: Rc::clone(&front.buf),
                range: start..start + blocksize,
            });
        }
        // es-hot-path-end
        // The block straddles runs or the ring ran dry: it is assembled
        // in a buffer of its own, one slice copy per run it spans and
        // the silence padding of an underrun after them.
        let mut buf = Vec::with_capacity(blocksize);
        while buf.len() < have {
            let front = self.runs.front_mut().expect("`used` counts the runs");
            let n = front.range.len().min(have - buf.len());
            buf.extend_from_slice(&front[..n]);
            front.range.start += n;
            if front.range.is_empty() {
                self.runs.pop_front();
            }
        }
        if have < blocksize {
            buf.resize(blocksize, 0);
            self.silence_bytes += (blocksize - have) as u64;
            self.underruns += 1;
        }
        Some(Block {
            buf: Rc::new(buf),
            range: 0..blocksize,
        })
    }

    /// Discards all buffered data (the `AUDIO_FLUSH` ioctl).
    pub fn flush(&mut self) {
        self.runs.clear();
        self.used = 0;
    }

    /// Bytes ever accepted by [`AudioRing::write`] and
    /// [`AudioRing::write_shared`].
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
        assert_eq!(&b[..], &[1u8; 16]);
        assert_eq!(r.used(), 4);
        assert!(!r.has_block());
        assert!(r.take_block(false).is_none());
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
    fn shared_write_resumes_where_a_short_one_stopped() {
        let mut r = AudioRing::new(32, 16);
        let buf = Rc::new((0..40u8).collect::<Vec<u8>>());
        assert_eq!(r.write_shared(&buf, 0), 32);
        assert_eq!(r.write_shared(&buf, 32), 0, "full ring accepts nothing");
        assert_eq!(&r.take_block(false).unwrap()[..], &buf[..16]);
        assert_eq!(r.write_shared(&buf, 32), 8, "the rest, and no more");
        assert_eq!(r.write_shared(&buf, 40), 0);
        assert_eq!(r.write_shared(&buf, 99), 0, "past the end is nothing");
        assert_eq!((r.used(), r.total_written()), (24, 40));
        assert_eq!(&r.take_block(false).unwrap()[..], &buf[16..32]);
        assert_eq!(&r.take_block(true).unwrap()[..8], &buf[32..]);
        // The ring lets go of a buffer once its range is consumed.
        assert_eq!(Rc::strong_count(&buf), 1);
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
        assert_eq!(&b[..], &[0u8; 16]);
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
        let buf = Rc::new(vec![2u8; 20]);
        r.write(&[1u8; 10]);
        r.write_shared(&buf, 0);
        r.flush();
        assert_eq!((r.used(), r.free()), (0, 64));
        assert_eq!(r.total_written(), 30, "counters keep history");
        assert_eq!(Rc::strong_count(&buf), 1, "flushed runs are let go");
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

    #[test]
    fn into_vec_moves_a_whole_unshared_buffer_and_copies_anything_else() {
        let mut r = AudioRing::new(64, 16);
        // One write, one block: the run's buffer is the block's, and
        // nobody else holds it.
        r.write(&[3u8; 16]);
        let b = r.take_block(false).unwrap();
        let at = b.as_ptr();
        let v = b.into_vec();
        assert_eq!((v.as_ptr(), &v[..]), (at, &[3u8; 16][..]), "moved");
        // The writer still holds a shared buffer.
        let buf = Rc::new(vec![4u8; 16]);
        r.write_shared(&buf, 0);
        let b = r.take_block(false).unwrap();
        assert_eq!(b.as_ptr(), buf.as_ptr());
        let v = b.into_vec();
        assert_ne!(
            v.as_ptr(),
            buf.as_ptr(),
            "copied: the writer keeps its bytes"
        );
        assert_eq!(v, *buf);
        // Half of a run is not a whole buffer.
        r.write(&[5u8, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6]);
        r.set_blocksize(8);
        let b = r.take_block(false).unwrap();
        let at = b.as_ptr();
        let v = b.into_vec();
        assert_ne!(
            v.as_ptr(),
            at,
            "copied: the ring still queues the other half"
        );
        assert_eq!(v, [5u8; 8]);
        assert_eq!(r.take_block(false).unwrap().into_vec(), [6u8; 8]);
    }

    /// The ring as §2.1.1 words it, one byte at a time: the reference
    /// the run-queueing [`AudioRing`] must be indistinguishable from.
    /// Every byte remembers the write that brought it and its offset in
    /// that write's buffer, so the model also knows which blocks lie
    /// inside one run.
    struct ByteModel {
        buf: VecDeque<(u8, usize, usize)>,
        capacity: usize,
        blocksize: usize,
        consumed: u64,
        underruns: u64,
        silence: u64,
    }

    impl ByteModel {
        /// Write number `id` offers `data[from..]`.
        fn write(&mut self, id: usize, data: &[u8], from: usize) -> usize {
            let mut n = 0;
            for (at, &b) in data.iter().enumerate().skip(from) {
                if self.buf.len() == self.capacity {
                    break;
                }
                self.buf.push_back((b, id, at));
                n += 1;
            }
            n
        }

        fn take_block(&mut self, fill_silence: bool) -> Option<ModelBlock> {
            if self.buf.len() < self.blocksize && !fill_silence {
                return None;
            }
            self.underruns += (self.buf.len() < self.blocksize) as u64;
            let mut bytes = Vec::new();
            let mut origins = Vec::new();
            for _ in 0..self.blocksize {
                match self.buf.pop_front() {
                    Some((b, id, at)) => {
                        bytes.push(b);
                        origins.push((id, at));
                        self.consumed += 1;
                    }
                    None => {
                        bytes.push(0);
                        self.silence += 1;
                    }
                }
            }
            let first = origins.first().copied().unwrap_or_default();
            let one_run = origins.len() == self.blocksize && origins.iter().all(|o| o.0 == first.0);
            Some(ModelBlock {
                bytes,
                one_run: one_run.then_some(first),
            })
        }
    }

    struct ModelBlock {
        bytes: Vec<u8>,
        /// If every byte came from one write: that write and the offset
        /// of the first byte in its buffer.
        one_run: Option<(usize, usize)>,
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_byte_at_a_time_model(
            ops in proptest::collection::vec((0u8..9, 0usize..80, 0usize..90), 1..300)
        ) {
            let mut r = AudioRing::new(96, 32);
            let mut m = ByteModel {
                buf: VecDeque::new(),
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
            // The buffer each write offered, by write number; `None`
            // for a copying write, whose run nobody else can name.
            let mut writes: Vec<Option<Rc<Vec<u8>>>> = Vec::new();
            for (kind, len, from) in ops {
                match kind {
                    0 | 1 => {
                        let data = bytes(len);
                        proptest::prop_assert_eq!(r.write(&data), m.write(writes.len(), &data, 0));
                        writes.push(None);
                    }
                    2 => {
                        let data = Rc::new(bytes(len));
                        proptest::prop_assert_eq!(
                            r.write_shared(&data, from),
                            m.write(writes.len(), &data, from)
                        );
                        writes.push(Some(data));
                    }
                    3..=6 => {
                        let fill = kind < 5;
                        let got = r.take_block(fill);
                        let want = m.take_block(fill);
                        proptest::prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            // Straddling, padded or not: the model's bytes.
                            proptest::prop_assert_eq!(&got[..], &want.bytes[..]);
                            // Inside one shared run: that allocation,
                            // at that offset, not a copy of it.
                            if let Some((id, at)) = want.one_run {
                                if let Some(shared) = &writes[id] {
                                    proptest::prop_assert!(Rc::ptr_eq(&got.buf, shared));
                                    proptest::prop_assert_eq!(got.range.clone(), at..at + got.len());
                                }
                            }
                        }
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
                proptest::prop_assert_eq!(r.free(), 96 - m.buf.len());
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
