//! The paper's evaluation as tests: one module per figure and
//! quantitative claim of *The Ethernet Speaker System* (EXPERIMENTS.md
//! has the index). Each module holds the seeded, virtual-time run and
//! the shape tests that assert the claim; a test prints the rows
//! EXPERIMENTS.md quotes, so
//! `cargo test --release --test paper <test> -- --nocapture` re-takes a
//! table. `calib` holds the Geode-class calibration constants and their
//! derivations.

mod auth_exp;
mod avol_exp;
mod buf_exp;
mod bw;
mod calib;
mod fig4;
mod fig5;
mod join_exp;
mod loss_exp;
mod rate_exp;
mod sync_exp;
