//! # es-speaker — the Ethernet Speaker (consumer side)
//!
//! The receive-only playback device of §2.3/§3.2:
//!
//! - [`sync`]: producer wall-clock tracking and the sleep/play/discard
//!   rule with its epsilon leeway.
//! - [`rx`]: the receive protocol — auth gate, control-packet
//!   gating, dedupe, FEC recovery, the hole table behind NACK and
//!   concealment — as a state machine with no clock or socket, stepped
//!   by a driver.
//! - [`speaker`]: its simulator driver, the receive → decode → play
//!   pipeline: channel tuning, concealment, ring-overflow accounting
//!   and optional CPU-model billing (§3.4). Parse and codec decode are
//!   memoized per datagram, so a fleet decodes each packet once.
//! - [`autovol`]: the §5.2 ambient-noise automatic volume control with
//!   a simulated microphone.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod autovol;
pub mod rx;
pub mod speaker;
pub mod sync;

pub use autovol::{AmbientProfile, AutoVolume, AutoVolumeConfig, ContentKind};
pub use rx::{RxBlock, RxEvent, SpeakerRx, SpeakerStats, NACK_REASK};
pub use speaker::{rx_memo_stats, EthernetSpeaker, RxMemoStats, SpeakerConfig};
pub use sync::{decide, ClockSync, PlayDecision, DEFAULT_EPSILON};

/// Converts decode work units to Geode-class CPU cycles (same
/// calibration as the encode path; see `es-bench::calib`).
pub fn decode_work_to_cycles(work_units: u64) -> u64 {
    work_units * 21 / 100
}
