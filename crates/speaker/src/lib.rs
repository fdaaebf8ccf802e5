//! # es-speaker — the Ethernet Speaker (consumer side)
//!
//! The receive-only playback device of §2.3/§3.2:
//!
//! - [`sync`]: producer wall-clock tracking and the sleep/play/discard
//!   rule with its epsilon leeway.
//! - [`speaker`]: the full receive → verify → decode → play pipeline,
//!   including control-packet gating, channel tuning, ring-overflow
//!   accounting and optional CPU-model billing (§3.4). Parse and
//!   codec decode are memoized per datagram, so a fleet on one group
//!   decodes each packet once.
//! - [`autovol`]: the §5.2 ambient-noise automatic volume control with
//!   a simulated microphone.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod autovol;
pub mod speaker;
pub mod sync;

pub use autovol::{AmbientProfile, AutoVolume, AutoVolumeConfig, ContentKind};
pub use speaker::{rx_memo_stats, EthernetSpeaker, RxMemoStats, SpeakerConfig, SpeakerStats};
pub use sync::{decide, ClockSync, PlayDecision};

/// Converts decode work units to Geode-class CPU cycles (same
/// calibration as the encode path; see `es-bench::calib`).
pub fn decode_work_to_cycles(work_units: u64) -> u64 {
    work_units * 21 / 100
}
