//! # es-audio — audio substrate
//!
//! The formats, conversions, signals and measurements everything else
//! is built on:
//!
//! - [`encoding`]: `audio(4)`-style stream configuration
//!   ([`AudioConfig`], [`Encoding`]) and the rate arithmetic the rate
//!   limiter and synchronization depend on.
//! - [`convert`]: G.711 µ-law/A-law companding and linear PCM packing.
//! - [`gen`]: deterministic signal generators standing in for the
//!   paper's off-the-shelf audio applications.
//! - [`analysis`]: RMS/SNR/cross-correlation/dropout metrics that turn
//!   the paper's listening tests into numbers.
//! - [`wav`]: minimal RIFF reader/writer so simulated playback can be
//!   auditioned.
//! - [`mix`]: dB/linear gain conversion and the saturating gain the
//!   speaker applies (auto-volume, §5.2, picks its level).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod analysis;
pub mod convert;
pub mod encoding;
pub mod gen;
pub mod mix;
pub mod wav;

pub use encoding::{AudioConfig, ConfigError, Encoding};
