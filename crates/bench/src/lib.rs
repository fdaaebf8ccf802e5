//! # es-bench — the experiment harnesses
//!
//! One module per figure/experiment in DESIGN.md's index; the bench
//! targets under `benches/` are thin mains over these. Everything is
//! deterministic (seeded) and runs in virtual time; `ES_BENCH_QUICK=1`
//! shortens the windows for CI.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
// The bench harness is the sanctioned wall-clock consumer (es-analyze
// allowlists the whole crate): measuring real time is its job.
#![allow(clippy::disallowed_methods)]

pub mod auth_exp;
pub mod avol_exp;
pub mod buf_exp;
pub mod bw;
pub mod calib;
pub mod fig4;
pub mod fig5;
pub mod join_exp;
pub mod loss_exp;
pub mod rate_exp;
pub mod report;
pub mod sync_exp;
