//! # es-codec — audio compression substrate
//!
//! The paper compresses CD-quality streams with Ogg Vorbis before
//! multicasting them (§2.2). This crate provides the codecs the
//! rebroadcaster's selective-compression policy chooses between, in
//! the two forms §2.2 names: low-bit-rate channels go uncompressed (or
//! companded), CD channels through the lossy codec. Wire codec id 2 is
//! retired (it was IMA ADPCM, which no policy chose) and decodes as an
//! unknown id.
//!
//! - [`codec::CodecId::Pcm`]: raw PCM (what the early system sent at
//!   ~1.3 Mbps per stream).
//! - [`codec::CodecId::ULaw`]: G.711 companding, 2:1, free.
//! - [`codec::CodecId::Ovl`]: the from-scratch MDCT transform codec
//!   standing in for Ogg Vorbis — quality index 0..=10, the best ratio,
//!   and (by design) the highest CPU cost, which is what Figure 4
//!   measures.
//!
//! Every encode reports *work units* so the `es-sim` CPU model can
//! price it on Geode-class hardware.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod bitstream;
pub mod codec;
pub mod dsp;
pub mod fft;
pub mod mdct;
pub mod ovl;
pub mod reference;

pub use codec::{CodecError, CodecId, Codecs, Encoded};
pub use ovl::{OvlCodec, OvlSpan, OvlTail, MAX_QUALITY};
