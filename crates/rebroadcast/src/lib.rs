//! # es-rebroadcast — the Audio Stream Rebroadcaster (producer side)
//!
//! The user-level half of the paper's producer (Figure 3): an
//! application plays into the VAD slave; this crate reads the master,
//! paces the stream to real time, compresses it per policy, and
//! multicasts it to the Ethernet Speakers with periodic control
//! packets.
//!
//! - [`app`]: the stand-in for the unmodified audio application.
//! - [`rate`]: the §3.1 rate limiter ("why does a 5 minute song take
//!   5 minutes?").
//! - [`policy`]: §2.2's selective compression.
//! - [`tx`]: the send protocol itself — clock-free, socket-free.
//! - [`producer`]: the stateless single-threaded rebroadcaster, the
//!   simulator's driver of [`tx`].

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod app;
pub mod policy;
pub mod producer;
pub mod rate;
pub mod relay;
pub mod tx;

pub use app::{AppPacing, AppStats, AudioApp};
pub use policy::CompressionPolicy;
pub use producer::{Rebroadcaster, RebroadcasterConfig};
pub use rate::RateLimiter;
pub use relay::{RelayConfig, RelayStats, SegmentRelay};
pub use tx::{ProducerStats, StreamTx, StreamTxConfig};
