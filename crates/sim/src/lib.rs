//! # es-sim — discrete-event simulation substrate
//!
//! The Ethernet Speaker reproduction runs its experiments against a
//! deterministic discrete-event simulator rather than a campus LAN and
//! a rack of Geode thin clients. This crate is the foundation every
//! other simulated subsystem builds on:
//!
//! - [`SimTime`]/[`SimDuration`]: nanosecond virtual time.
//! - [`Sim`]: the event engine (closure events, seeded RNG).
//! - [`RepeatingTimer`]: cancellable periodic callbacks.
//! - [`TimeSeries`]/[`BucketAccumulator`]: experiment output series and
//!   `vmstat`-style interval sampling.
//! - [`SimCpu`]: a cycle-budget CPU model (Figure 4, §3.4 experiments).
//! - [`sched`]: a kernel-scheduler model with context-switch accounting
//!   (Figure 5).
//!
//! Nothing here knows about audio or networks; see `es-net`, `es-vad`
//! and the crates above them.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod cpu;
pub mod engine;
pub mod random;
pub mod sched;
pub mod series;
pub mod time;

pub use cpu::{CostModel, SimCpu};
#[doc(hidden)]
pub use engine::ShardRouter;
pub use engine::{shared, RepeatingTimer, Shared, Sim};
pub use series::{BucketAccumulator, TimeSeries};
pub use time::{SimDuration, SimTime};
