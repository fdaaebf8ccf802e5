//! # es-net — the network substrate
//!
//! Two transports for one protocol:
//!
//! - [`lan`]: a deterministic discrete-event switched-Ethernet model
//!   (line-rate serialization, propagation, optional jitter and loss,
//!   multicast groups) used by every experiment.
//! - [`udp`]: real `std::net` UDP multicast for live runs on an actual
//!   network interface (the `real_udp` example).
//!
//! §2.3 of the paper justifies the single-LAN scope: friendly packet
//! arrival and free multicast. [`lan::LanConfig`] defaults to that
//! friendly environment and lets experiments dial in the hostile one.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod lan;
pub mod udp;

pub use lan::{
    BurstLossConfig, Datagram, Dest, Lan, LanConfig, LanStats, McastGroup, MediumMode, NodeId,
    WIRE_OVERHEAD,
};
