//! # es-vad — the virtual audio device and the OpenBSD audio model
//!
//! The paper's central artifact (§2.1): a kernel pseudo-device pair
//! that lets *unmodified* audio applications feed the Ethernet Speaker
//! system. This crate models the whole OpenBSD audio stack the VAD
//! lives in:
//!
//! - [`ring::AudioRing`]: the hardware-independent driver's block ring
//!   with silence insertion; it queues handles to the writers' buffers
//!   and hands out [`ring::Block`]s, so a played block is not copied.
//! - [`device::AudioDevice`] / [`device::LowLevelDriver`]: the
//!   two-level `audio(4)`/`audio(9)` split, including the
//!   only-triggered-once contract that makes pseudo-devices awkward
//!   (§3.3).
//! - [`hw::HwDriver`]: a simulated sound card (rate-limited DMA loop,
//!   output tap with playback timestamps).
//! - [`vad::vad_pair`]: the master/slave VAD in both §3.3 designs
//!   (kernel thread vs. master-driven).
//! - [`input::input_pair`]: the capture direction the paper left as a
//!   limitation ("currently vads only supports audio output").

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod device;
pub mod hw;
pub mod input;
pub mod ring;
pub mod vad;

pub use device::{AudioDevice, BlockSource, DevError, DevStats, Intr, Ioctl, LowLevelDriver};
pub use hw::{HwDriver, OutputTap, Retention};
pub use input::{input_pair, InputMaster, InputSlave, InputStats};
pub use ring::{AudioRing, Block};
pub use vad::{vad_pair, vad_pair_with_geometry, MasterItem, VadMaster, VadMode, VadStats};
