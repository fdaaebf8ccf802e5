//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates registry, so the
//! subset of `bytes` 1.x the wire-protocol code uses is implemented
//! here: a cheaply clonable immutable [`Bytes`], a growable
//! [`BytesMut`], and the little-endian [`Buf`]/[`BufMut`] accessors the
//! packet codecs call. Semantics match the real crate for this subset
//! (including panics on underflow), so swapping the real dependency
//! back in is a one-line manifest change.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer.
///
/// Backed by `Arc<Vec<u8>>` so both `From<Vec<u8>>` and
/// [`BytesMut::freeze`] take ownership of the allocation instead of
/// copying it: a payload encoded once is shared by reference across
/// every receiver of a multicast fan-out.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: Arc::new(Vec::new()),
        }
    }

    /// Wraps a static slice (copied once; the real crate borrows, but
    /// nothing here depends on that optimization).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: Arc::new(data.to_vec()),
        }
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::new(data.to_vec()),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // Zero-copy: the Vec's allocation becomes the shared buffer.
        Bytes { data: Arc::new(v) }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data[..] == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Spare capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Clears the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Takes the written bytes out, leaving this buffer empty (and,
    /// unlike the real crate, without its allocation — callers that
    /// recycle the buffer rebuild capacity on the next `reserve`).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            data: std::mem::take(&mut self.data),
        }
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Sequential little-endian reads from a byte source.
///
/// All `get_*` accessors panic if the source has too few bytes
/// remaining, exactly like the real crate; callers bounds-check with
/// [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// True while unread bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.chunk()[..2].try_into().unwrap());
        self.advance(2);
        v
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Sequential little-endian writes into a byte sink.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_little_endian() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(0xAB);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(0x0102_0304_0506_0708);
        b.put_slice(&[1, 2, 3]);
        let frozen = b.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.remaining(), 18);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(r.chunk(), &[1, 2, 3]);
        r.advance(3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_equality_and_clone() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        let c = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.len(), 3);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy")[..], b"xy"[..]);
    }

    #[test]
    #[should_panic]
    fn get_past_end_panics() {
        let mut r: &[u8] = &[1];
        let _ = r.get_u16_le();
    }

    #[test]
    fn freeze_and_clone_share_one_allocation() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(b"payload");
        let backing = b.as_ref().as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ptr(), backing, "freeze must not copy");
        let clones: Vec<Bytes> = (0..8).map(|_| frozen.clone()).collect();
        for c in &clones {
            assert_eq!(c.as_ptr(), backing, "clones must share the buffer");
        }
    }

    #[test]
    fn split_hands_off_without_copying() {
        let mut b = BytesMut::new();
        b.reserve(32);
        assert!(b.capacity() >= 32);
        b.put_slice(b"abc");
        let backing = b.as_ref().as_ptr();
        let sealed = b.split().freeze();
        assert_eq!(sealed.as_ptr(), backing);
        assert_eq!(&sealed[..], b"abc");
        assert!(b.is_empty());
        b.clear();
        b.put_slice(b"next");
        assert_eq!(&b[..], b"next");
    }
}
