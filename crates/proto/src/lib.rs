//! # es-proto — the Ethernet Speaker wire protocol
//!
//! Everything that crosses the LAN, plus its integrity and
//! authentication layers:
//!
//! - [`packet`]: control / data / announce packets (§2.3, §3.2, §4.3)
//!   and the speaker's NACK, CRC-32 framed, stateless-producer
//!   semantics.
//! - [`crc`]: IEEE CRC-32.
//! - [`sha256`]: SHA-256 + HMAC-SHA-256 (FIPS/RFC test-vector
//!   validated), the primitive under the auth scheme.
//! - [`auth`]: TESLA-style delayed-key-disclosure stream
//!   authentication with a cheap, DoS-bounded verification path (§5.1).
//! - [`fec`]: XOR-parity single-loss recovery (extension for lossy
//!   links, keeping the producer stateless and speakers receive-only).
//! - [`monitor`]: RFC 3550-style reception quality (jitter, loss,
//!   reorder) — the numbers §5.3's management MIB would export.
//! - [`session`]: the negotiated control plane — discovery, capability
//!   negotiation, per-receiver sessions with keepalive/flush/teardown —
//!   as pure, deterministic state machines over the same framing.
//! - [`server`]: the producer side of that plane, [`SessionServer`] —
//!   line-up, per-stream session tables, grants and expiry as
//!   `(now, packet) → actions`, stepped by a simulator driver and a UDP
//!   driver.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod auth;
pub mod crc;
pub mod fec;
pub mod monitor;
pub mod packet;
pub mod server;
pub mod session;
pub mod sha256;

pub use auth::{AuthTrailer, StreamSigner, StreamVerifier, TRAILER_LEN};
pub use fec::{FecRecoverer, ParityAccumulator, ParityPacket};
pub use monitor::{QualityReport, StreamMonitor};
pub use packet::{
    decode, encode_announce, encode_announce_into, encode_control, encode_control_into,
    encode_data, encode_data_into, encode_nack, encode_parity, encode_parity_into, AnnouncePacket,
    ControlPacket, DataPacket, Packet, StreamInfo, WireError, FLAG_AUTHENTICATED, FLAG_PRIORITY,
    MAX_NACK_RANGES, RECOMMENDED_MAX_PAYLOAD,
};
pub use server::{BrokerStats, ServerAction, SessionServer};
pub use session::{
    encode_session, encode_session_into, negotiate, Capabilities, ClientAction, ClientPhase,
    DeviceClass, Grant, RefuseReason, SessionClient, SessionClientConfig, SessionEntry,
    SessionError, SessionPacket, SessionTable, TeardownReason, PARAM_FEC_MAX_GROUP, PARAM_FEC_OFF,
    PARAM_FEC_UNCHANGED, PARAM_VOLUME_UNCHANGED, SESSION_TIMEOUT_US,
};
