//! Per-stream reception quality monitoring.
//!
//! §5.3 plans central management of speaker fleets ("create an SNMP MIB
//! to allow any NMS console to manage ESs"). A MIB needs numbers; this
//! module computes the standard reception-quality set from the packet
//! stream alone — no producer cooperation, keeping §2.3's stateless
//! design:
//!
//! - **interarrival jitter**, RFC 3550 §6.4.1 style: the smoothed
//!   difference between packet spacing on the wire and spacing on the
//!   producer's timeline,
//! - **loss** from sequence-number gaps,
//! - **reordering** and **duplicates**,
//! - a one-line health grade a console can threshold on.

/// Running reception-quality state for one stream.
#[derive(Debug, Clone, Default)]
pub struct StreamMonitor {
    highest_seq: Option<u32>,
    received: u64,
    duplicates: u64,
    reordered: u64,
    /// Sum of gap sizes observed (packets presumed lost).
    lost: u64,
    /// RFC 3550 smoothed jitter, in microseconds.
    jitter_us: f64,
    last_transit_us: Option<i64>,
    seen_window: std::collections::VecDeque<u32>,
}

/// A snapshot of reception quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Packets received (including duplicates).
    pub received: u64,
    /// Packets presumed lost (sequence gaps net of late arrivals).
    pub lost: u64,
    /// Loss fraction in `[0, 1]`.
    pub loss_fraction: f64,
    /// Duplicate packets.
    pub duplicates: u64,
    /// Packets that arrived after a later sequence number.
    pub reordered: u64,
    /// Smoothed interarrival jitter, microseconds.
    pub jitter_us: f64,
}

impl QualityReport {
    /// A coarse health grade for dashboards: `"good"` (loss < 1%,
    /// jitter < 20 ms), `"degraded"` (loss < 5%), else `"bad"`.
    pub fn grade(&self) -> &'static str {
        if self.loss_fraction < 0.01 && self.jitter_us < 20_000.0 {
            "good"
        } else if self.loss_fraction < 0.05 {
            "degraded"
        } else {
            "bad"
        }
    }
}

impl StreamMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a data packet: its sequence number, its producer-side
    /// timestamp, and the local arrival time (both microseconds).
    pub fn on_packet(&mut self, seq: u32, play_at_us: u64, arrival_us: u64) {
        self.received += 1;

        // Duplicate / reorder bookkeeping over a short memory window.
        if self.seen_window.contains(&seq) {
            self.duplicates += 1;
            return;
        }
        self.seen_window.push_back(seq);
        if self.seen_window.len() > 64 {
            self.seen_window.pop_front();
        }

        // Serial-number arithmetic: "ahead of the highest seen" is the
        // sign of the wrapped distance, so the stream counts on across
        // the `u32` wrap.
        match self.highest_seq.map(|h| seq.wrapping_sub(h) as i32) {
            None => self.highest_seq = Some(seq),
            Some(ahead) if ahead > 0 => {
                self.lost += ahead as u64 - 1;
                self.highest_seq = Some(seq);
            }
            Some(_) => {
                // Arrived after a higher sequence number: late. It was
                // provisionally counted lost; correct that.
                self.reordered += 1;
                self.lost = self.lost.saturating_sub(1);
            }
        }

        // RFC 3550 jitter: J += (|D| - J) / 16, with D the difference
        // in (arrival - timestamp) transit between consecutive packets.
        // The timestamp is wire input; wrapping keeps a forged one a
        // wrong number instead of an overflow.
        let transit = (arrival_us as i64).wrapping_sub(play_at_us as i64);
        if let Some(prev) = self.last_transit_us {
            let d = transit.wrapping_sub(prev).unsigned_abs() as f64;
            self.jitter_us += (d - self.jitter_us) / 16.0;
        }
        self.last_transit_us = Some(transit);
    }

    /// Starts over on a new stream (a channel switch): forgets the
    /// sequence and transit baseline so the new stream's numbering
    /// reads as neither loss nor reordering, and keeps the cumulative
    /// totals, which are counters and never go backwards.
    pub fn restart_stream(&mut self) {
        self.highest_seq = None;
        self.seen_window.clear();
        self.last_transit_us = None;
    }

    /// The current quality snapshot.
    pub fn report(&self) -> QualityReport {
        let expected = self.received - self.duplicates + self.lost;
        QualityReport {
            received: self.received,
            lost: self.lost,
            loss_fraction: if expected == 0 {
                0.0
            } else {
                self.lost as f64 / expected as f64
            },
            duplicates: self.duplicates,
            reordered: self.reordered,
            jitter_us: self.jitter_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_clean(m: &mut StreamMonitor, n: u32, spacing_us: u64, jitter: impl Fn(u32) -> i64) {
        for i in 0..n {
            let ts = i as u64 * spacing_us;
            let arrival = (ts as i64 + 100 + jitter(i)).max(0) as u64;
            m.on_packet(i, ts, arrival);
        }
    }

    #[test]
    fn clean_stream_is_good() {
        let mut m = StreamMonitor::new();
        feed_clean(&mut m, 200, 50_000, |_| 0);
        let r = m.report();
        assert_eq!(r.received, 200);
        assert_eq!(r.lost, 0);
        assert_eq!(r.duplicates, 0);
        assert_eq!(r.reordered, 0);
        assert!(r.jitter_us < 1.0);
        assert_eq!(r.grade(), "good");
    }

    #[test]
    fn gaps_count_as_loss() {
        let mut m = StreamMonitor::new();
        for seq in [0u32, 1, 2, 5, 6, 10] {
            m.on_packet(seq, seq as u64 * 50_000, seq as u64 * 50_000 + 100);
        }
        let r = m.report();
        assert_eq!(r.lost, 5, "seqs 3,4,7,8,9");
        assert!(r.loss_fraction > 0.4);
        assert_eq!(r.grade(), "bad");
    }

    #[test]
    fn late_arrival_corrects_loss_into_reorder() {
        let mut m = StreamMonitor::new();
        for seq in [0u32, 1, 3, 2, 4] {
            m.on_packet(seq, seq as u64 * 50_000, seq as u64 * 50_000 + 100);
        }
        let r = m.report();
        assert_eq!(r.lost, 0, "2 arrived late, not lost");
        assert_eq!(r.reordered, 1);
        assert_eq!(r.grade(), "good");
    }

    #[test]
    fn loss_and_reordering_are_counted_across_the_sequence_wrap() {
        let mut m = StreamMonitor::new();
        let at = |k: u32| (u32::MAX - 3).wrapping_add(k);
        // Stream positions 0..=9 carry u32::MAX - 3 ..= 5. Clean up to
        // u32::MAX, then positions 4..=6 (seq 0, 1, 2) go missing and
        // position 5 (seq 1) turns up late.
        for k in [0u32, 1, 2, 3, 7, 5, 8, 9] {
            m.on_packet(at(k), k as u64 * 50_000, k as u64 * 50_000 + 100);
        }
        let r = m.report();
        assert_eq!(r.received, 8);
        assert_eq!(r.lost, 2, "seq 0 and 2; seq 1 was late, not lost");
        assert_eq!(r.reordered, 1);
        assert_eq!(r.duplicates, 0);
        assert_eq!(m.highest_seq, Some(5), "the highest follows the wrap");
    }

    #[test]
    fn duplicates_are_counted_once() {
        let mut m = StreamMonitor::new();
        for seq in [0u32, 1, 1, 1, 2] {
            m.on_packet(seq, seq as u64 * 50_000, seq as u64 * 50_000 + 100);
        }
        let r = m.report();
        assert_eq!(r.duplicates, 2);
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn jitter_tracks_arrival_variance() {
        let mut steady = StreamMonitor::new();
        feed_clean(&mut steady, 200, 50_000, |_| 0);
        let mut shaky = StreamMonitor::new();
        feed_clean(&mut shaky, 200, 50_000, |i| {
            if i % 2 == 0 {
                8_000
            } else {
                -8_000
            }
        });
        let s = steady.report().jitter_us;
        let j = shaky.report().jitter_us;
        assert!(j > s + 5_000.0, "jitter {j} vs steady {s}");
        // RFC smoothing converges toward the mean |D| = 16 ms.
        assert!((10_000.0..20_000.0).contains(&j), "{j}");
    }

    #[test]
    fn grades_threshold_sensibly() {
        let mk = |loss: f64, jitter: f64| QualityReport {
            received: 100,
            lost: 0,
            loss_fraction: loss,
            duplicates: 0,
            reordered: 0,
            jitter_us: jitter,
        };
        assert_eq!(mk(0.0, 0.0).grade(), "good");
        assert_eq!(mk(0.001, 50_000.0).grade(), "degraded");
        assert_eq!(mk(0.03, 0.0).grade(), "degraded");
        assert_eq!(mk(0.2, 0.0).grade(), "bad");
    }

    #[test]
    fn empty_monitor_reports_zero() {
        let r = StreamMonitor::new().report();
        assert_eq!(r.received, 0);
        assert_eq!(r.loss_fraction, 0.0);
        assert_eq!(r.grade(), "good");
    }
}
