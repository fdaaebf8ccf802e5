//! The rate limiter (§3.1, "why does a 5 minute song take 5 minutes?").
//!
//! The VAD deliberately does no pacing — "we did not want to limit the
//! functionality of the VAD by slowing it down unnecessarily" — so an
//! application that decodes a file writes it at wire speed and the
//! speakers' buffers overflow. The fix lives here, in the
//! rebroadcaster: "instruct the rebroadcaster to sleep for the exact
//! duration of time that it would take to actually play the data",
//! computed from the encoding parameters.

use es_audio::AudioConfig;
use es_sim::{SimDuration, SimTime};
use es_telemetry::{Histogram, Registry, Telemetry};

/// How often and for how long the limiter put the producer to sleep.
#[derive(Debug, Clone, Default)]
pub struct RateStats {
    /// Chunks whose send time was pushed past `now`.
    pub sleeps: u64,
    /// Total virtual time spent sleeping.
    pub total_sleep: SimDuration,
    /// Distribution of individual sleep durations, in microseconds.
    pub sleep_us: Histogram,
}

impl Telemetry for RateStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("rebroadcast");
        s.counter("rate_sleeps", self.sleeps)
            .counter("rate_sleep_total_us", self.total_sleep.as_micros())
            .histogram("rate_sleep_us", &self.sleep_us);
    }
}

/// Paces sends so bytes leave no faster than they play.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    enabled: bool,
    /// The stream clock: the earliest time the *next* byte may be sent.
    next_due: Option<SimTime>,
    /// Allowed head start: how far ahead of real time the sender may
    /// run (fills receiver buffers without overflowing them).
    lead: SimDuration,
    stats: RateStats,
}

impl RateLimiter {
    /// Creates an enabled limiter with a small default lead of 100 ms
    /// (roughly two audio blocks of buffer build-up at the receivers).
    pub fn new() -> Self {
        Self::with_lead(SimDuration::from_millis(100))
    }

    /// Creates an enabled limiter with an explicit lead.
    pub fn with_lead(lead: SimDuration) -> Self {
        RateLimiter {
            enabled: true,
            next_due: None,
            lead,
            stats: RateStats::default(),
        }
    }

    /// Creates a disabled limiter — the failure mode the paper
    /// describes, kept for the E-RATE experiment.
    pub fn disabled() -> Self {
        RateLimiter {
            enabled: false,
            next_due: None,
            lead: SimDuration::ZERO,
            stats: RateStats::default(),
        }
    }

    /// Sleep statistics accumulated by [`Self::pace`].
    pub fn stats(&self) -> &RateStats {
        &self.stats
    }

    /// Accounts for `bytes` of audio in `cfg` and returns the time at
    /// which they may be sent (`now` if the stream is keeping up or the
    /// limiter is disabled).
    ///
    /// The limiter keeps a stream clock `next_due` — the playback
    /// deadline of the chunk being offered. A chunk may leave up to
    /// `lead` before its deadline; a source that stalls past its own
    /// deadline is resynchronized instead of bursting the backlog.
    pub fn pace(&mut self, now: SimTime, cfg: &AudioConfig, bytes: usize) -> SimTime {
        if !self.enabled {
            return now;
        }
        let mut due = self.next_due.unwrap_or(now);
        if due < now {
            // The source fell behind real time (gap in the input);
            // restart the stream clock from now.
            due = now;
        }
        let playtime = SimDuration::from_nanos(cfg.nanos_for_bytes(bytes as u64));
        self.next_due = Some(due + playtime);
        // Send up to `lead` ahead of the deadline, never before now.
        let send_at = SimTime::from_nanos(due.as_nanos().saturating_sub(self.lead.as_nanos()));
        let send_at = send_at.max(now);
        if send_at > now {
            let sleep = send_at.saturating_since(now);
            self.stats.sleeps += 1;
            self.stats.total_sleep += sleep;
            self.stats.sleep_us.observe(sleep.as_micros());
        }
        send_at
    }
}

impl Default for RateLimiter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_seconds_takes_five_seconds() {
        let mut rl = RateLimiter::with_lead(SimDuration::ZERO);
        let cfg = AudioConfig::CD;
        let chunk = 8_820usize; // 50 ms of CD audio.
        let mut t = SimTime::ZERO;
        let mut last_send = SimTime::ZERO;
        for _ in 0..100 {
            // The producer is "infinitely fast": it asks immediately.
            last_send = rl.pace(t, &cfg, chunk);
            t = last_send; // It sends, then loops.
        }
        // 100 chunks * 50 ms = 5 s; the 100th chunk leaves at 4.95 s.
        assert_eq!(last_send, SimTime::from_millis(4_950));
    }

    #[test]
    fn disabled_limiter_never_delays() {
        let mut rl = RateLimiter::disabled();
        let cfg = AudioConfig::CD;
        for _ in 0..1_000 {
            assert_eq!(
                rl.pace(SimTime::from_millis(1), &cfg, 8_820),
                SimTime::from_millis(1)
            );
        }
    }

    #[test]
    fn lead_allows_initial_burst() {
        let mut rl = RateLimiter::with_lead(SimDuration::from_millis(100));
        let cfg = AudioConfig::CD;
        // The first 100 ms worth of audio goes out immediately.
        let a = rl.pace(SimTime::ZERO, &cfg, 8_820);
        let b = rl.pace(SimTime::ZERO, &cfg, 8_820);
        let c = rl.pace(SimTime::ZERO, &cfg, 8_820);
        assert_eq!(a, SimTime::ZERO);
        assert_eq!(b, SimTime::ZERO);
        assert_eq!(c, SimTime::ZERO, "deadline 100ms minus lead 100ms");
        // The fourth chunk must wait: its deadline is at 150 ms.
        let d = rl.pace(SimTime::ZERO, &cfg, 8_820);
        assert_eq!(d, SimTime::from_millis(50));
    }

    #[test]
    fn slow_source_is_not_penalized() {
        let mut rl = RateLimiter::with_lead(SimDuration::ZERO);
        let cfg = AudioConfig::CD;
        let _ = rl.pace(SimTime::ZERO, &cfg, 8_820);
        // Source stalls for 10 seconds, then resumes: no burst debt,
        // the next chunk goes out immediately.
        let send = rl.pace(SimTime::from_secs(10), &cfg, 8_820);
        assert_eq!(send, SimTime::from_secs(10));
        // And pacing continues from there.
        let send2 = rl.pace(SimTime::from_secs(10), &cfg, 8_820);
        assert_eq!(send2, SimTime::from_secs(10) + SimDuration::from_millis(50));
    }

    #[test]
    fn phone_rate_paces_slower_stream() {
        let mut rl = RateLimiter::with_lead(SimDuration::ZERO);
        let cfg = AudioConfig::PHONE; // 8000 B/s.
        let _ = rl.pace(SimTime::ZERO, &cfg, 800); // 100 ms of audio.
        let next = rl.pace(SimTime::ZERO, &cfg, 800);
        assert_eq!(next, SimTime::from_millis(100));
    }
}
