//! # es-speaker — the Ethernet Speaker (consumer side)
//!
//! The receive-only playback device of §2.3/§3.2:
//!
//! - [`sync`]: producer wall-clock tracking and the sleep/play/discard
//!   rule with its epsilon leeway.
//! - [`node`]: one speaker as a sans-IO core with no clock, socket or
//!   device — the receive protocol, §3.2's sleep/play/discard rule,
//!   concealment, the §3.4 single-threaded player, volume, NACK
//!   addressing and the session client — stepped by an adapter that
//!   decodes, plays and sends what it decides.
//! - [`rx`]: the node's receive half — auth gate, control-packet
//!   gating, dedupe, FEC recovery, the hole table behind NACK and
//!   concealment — and the speaker's counters.
//! - [`speaker`]: its simulator adapter, the receive → decode → play
//!   pipeline on the simulated LAN and audio device, with channel
//!   tuning, ring-overflow accounting and optional CPU-model billing
//!   (§3.4). Parse and codec decode are memoized per datagram, so a
//!   fleet decodes each packet once.
//! - [`autovol`]: the §5.2 ambient-noise automatic volume control with
//!   a simulated microphone.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod autovol;
pub mod node;
pub mod rx;
pub mod speaker;
pub mod sync;

pub use autovol::{AmbientProfile, AutoVolume, AutoVolumeConfig};
pub use node::{Action, Decoder, Note, Pcm, Play, PlayMode, SharedBlock, SpeakerNode};
pub use rx::{SpeakerStats, NACK_REASK};
pub use speaker::{
    rx_memo_stats, EthernetSpeaker, MemoDecoder, RxMemoStats, SessionStatus, SpeakerConfig,
};
pub use sync::{decide, ClockSync, PlayDecision, DEFAULT_EPSILON};
