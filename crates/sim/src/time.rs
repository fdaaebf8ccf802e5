//! Virtual time for the discrete-event simulator.
//!
//! All simulated subsystems (the network, the audio hardware, the rate
//! limiter, the speaker playback deadlines) schedule against a single
//! nanosecond-resolution virtual clock. Nothing in a simulated code path
//! may read the wall clock; this is what makes a 60-second experiment
//! run in milliseconds and produce bit-identical results for a fixed
//! RNG seed.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is ordered and supports arithmetic with [`SimDuration`].
/// The simulation epoch (`SimTime::ZERO`) is the moment the simulator
/// was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far"
    /// sentinel for run-until bounds.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the
    /// nearest nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The duration needed to transfer `bytes` at `bits_per_sec`,
    /// rounded up to the next nanosecond.
    ///
    /// This is the serialization-delay helper used by both the network
    /// model and the audio rate limiter. Returns zero for a zero rate
    /// (treated as "infinitely fast").
    pub fn for_bytes_at_rate(bytes: u64, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration(0);
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(10)).as_millis(), 5);
        assert_eq!((t - SimDuration::from_millis(15)), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn serialization_delay() {
        // 1500 bytes at 100 Mbps = 120 microseconds.
        let d = SimDuration::for_bytes_at_rate(1500, 100_000_000);
        assert_eq!(d.as_micros(), 120);
        // Zero rate means "no delay" by convention.
        assert_eq!(SimDuration::for_bytes_at_rate(1500, 0), SimDuration::ZERO);
        // Rounds up: 1 byte at 1 Gbps is 8 ns exactly.
        assert_eq!(
            SimDuration::for_bytes_at_rate(1, 1_000_000_000).as_nanos(),
            8
        );
    }

    #[test]
    fn secs_f64_conversion() {
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(15)), "15.0us");
        assert_eq!(format!("{}", SimDuration::from_millis(20)), "20.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }
}
