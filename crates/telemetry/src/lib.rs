//! Unified observability for the Ethernet Speaker system.
//!
//! §5.3 of the paper calls for central fleet management ("create an
//! SNMP MIB to allow any NMS console to manage ESs"). A MIB is two
//! things: a namespace of numbers and a stream of notifications. This
//! crate provides both, for every component in the stack:
//!
//! - [`Registry`] / [`MetricsSnapshot`] — counters, gauges, and
//!   log-scale histograms keyed `component/instance/name`, exportable
//!   as JSON lines for dashboards;
//! - [`Journal`] — a structured event log (severity, timestamp,
//!   component, message, `key=value` fields) with pluggable sinks,
//!   replacing ad-hoc `eprintln!` diagnostics;
//! - the [`Telemetry`] trait — implemented by each component's stats
//!   snapshot so new components surface in `EsSystem::metrics()`
//!   without touching `es-core`.
//!
//! # Time sources
//!
//! The crate is deliberately time-source-agnostic: nothing here reads a
//! clock on its own. Every journal event carries an explicit
//! [`Stamp`] — a nanosecond count plus a [`TimeDomain`] saying whether
//! it came from the simulator's virtual clock or the machine's wall
//! clock — so the same instrumented code path works unchanged in
//! `es-sim` experiments and in `es-core::live`. Metric values are
//! plain numbers and need no clock at all.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod journal;
pub mod json;
mod metrics;

pub use journal::{Event, Journal, JournalSink, Severity, Stamp, TimeDomain};
pub use json::{JsonError, JsonValue};
pub use metrics::{
    Histogram, Label, Metric, MetricKey, MetricValue, MetricsSnapshot, Registry, Scope,
};

/// A component whose statistics can be recorded into a [`Registry`].
///
/// Implementations call [`Registry::component`] with their fixed
/// component name and emit counters/gauges/histograms under it; the
/// caller selects the instance label (which speaker, which link) via
/// [`Registry::set_instance`] before invoking `record`.
pub trait Telemetry {
    /// Records this snapshot's values into `registry`.
    fn record(&self, registry: &mut Registry);
}
