//! Live mode: the same protocol over real UDP multicast.
//!
//! The simulator proves properties; this module proves the system runs
//! on an actual network, with no protocol code of its own: a producer
//! loop steps the [`StreamTx`] core the simulated rebroadcaster drives
//! from a generated signal and the wall clock; a speaker loop joins the
//! group and steps the [`SpeakerNode`] the simulated speaker drives, so
//! it plays each block at its §3.2 deadline — sleeping, playing or
//! discarding — and conceals what is missing when told to.
//! `examples/real_udp.rs` wires both over the loopback interface and
//! writes what the speaker played to a WAV file.

use std::time::{Duration, Instant};

use bytes::Bytes;

use es_audio::convert::encode_samples_into;
use es_audio::gen::{render_interleaved, Signal};
use es_audio::AudioConfig;
use es_net::udp::{McastReceiver, McastSender};
use es_net::McastGroup;
use es_rebroadcast::{ProducerStats, StreamTx, StreamTxConfig};
use es_sim::SimTime;
use es_speaker::{Action, MemoDecoder, PlayMode, SpeakerConfig, SpeakerNode, SpeakerStats};
use es_telemetry::{Histogram, Journal, Registry, Severity, Stamp, Telemetry};

/// Producer-side settings for a live run.
pub struct LiveProducerConfig {
    /// Multicast channel number (maps to `239.77.83.<n>`).
    pub channel: u8,
    /// UDP port.
    pub port: u16,
    /// Audio format.
    pub config: AudioConfig,
    /// Audio per data packet.
    pub chunk: Duration,
    /// Protocol settings, as a simulated channel's rebroadcaster takes.
    pub tx: StreamTxConfig,
    /// Structured diagnostics sink (wall-clock stamps).
    pub journal: Option<Journal>,
}

impl LiveProducerConfig {
    /// CD audio in 50 ms chunks, stream 1 of [`StreamTxConfig::new`].
    pub fn new(channel: u8, port: u16) -> Self {
        LiveProducerConfig {
            channel,
            port,
            config: AudioConfig::CD,
            chunk: Duration::from_millis(50),
            tx: StreamTxConfig::new(1),
            journal: None,
        }
    }
}

/// What a live producer run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveProducerReport {
    /// The counters every rebroadcaster keeps.
    pub stats: ProducerStats,
    /// Datagrams handed to the socket: data, control and parity.
    pub datagrams: u64,
    /// Wall time taken: clip + playout (the 5-minute-song property).
    pub elapsed: Duration,
}

impl Telemetry for LiveProducerReport {
    fn record(&self, registry: &mut Registry) {
        self.stats.record(registry);
        registry
            .component("rebroadcast")
            .gauge("elapsed_ms", self.elapsed.as_millis() as f64);
    }
}

/// The live producer without its socket or its clock: a signal in,
/// sealed datagrams and the time they may leave out.
pub struct LiveProducer {
    tx: StreamTx,
    config: AudioConfig,
    frames_per_chunk: usize,
    next_control: SimTime,
    chunk: Vec<u8>,
}

impl LiveProducer {
    /// A producer about to stream `cfg.config` audio.
    pub fn new(cfg: &LiveProducerConfig) -> Self {
        let mut tx = StreamTx::new(cfg.tx.clone(), false);
        tx.on_config(cfg.config);
        let frames = cfg.config.sample_rate as u128 * cfg.chunk.as_nanos() / 1_000_000_000;
        LiveProducer {
            tx,
            config: cfg.config,
            frames_per_chunk: frames as usize,
            next_control: SimTime::ZERO,
            chunk: Vec::new(),
        }
    }

    /// Offers the next chunk of `signal` to the §3.1 limiter at `now`
    /// and seals it, behind a due control packet, for the returned time.
    pub fn step(&mut self, now: SimTime, signal: &mut dyn Signal, out: &mut Vec<Bytes>) -> SimTime {
        let samples = render_interleaved(signal, self.config.channels, self.frames_per_chunk);
        encode_samples_into(&samples, self.config.encoding, &mut self.chunk);
        let Some(mut block) = self.tx.pace(now, self.chunk.len()) else {
            return now;
        };
        let send_at = block.send_at;
        if send_at >= self.next_control {
            self.tx.control(send_at, out);
            self.next_control = send_at + self.tx.config().control_interval;
        }
        self.tx.encode(&self.chunk, &mut block);
        self.tx.seal(send_at, block, out);
        send_at
    }

    /// The protocol core, for its counters and its stream clock.
    pub fn tx(&self) -> &StreamTx {
        &self.tx
    }
}

/// Streams `signal` for `duration`, pacing against the wall clock, and
/// returns once the stream clock says the last chunk has played.
/// Blocking; spawn a thread for concurrent producer/speaker runs.
#[expect(
    clippy::disallowed_methods,
    reason = "the live producer paces real playback against the host clock (DESIGN.md §8)"
)]
pub fn run_live_producer(
    cfg: &LiveProducerConfig,
    signal: &mut dyn Signal,
    duration: Duration,
) -> Result<LiveProducerReport, crate::Error> {
    let socket = McastSender::new(cfg.channel, cfg.port)?;
    let start = Instant::now();
    let wait_until = |at: SimTime| {
        if let Some(early) = Duration::from_nanos(at.as_nanos()).checked_sub(start.elapsed()) {
            std::thread::sleep(early);
        }
    };
    if let Some(j) = &cfg.journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "rebroadcast",
            "live producer started",
            &[
                ("channel", cfg.channel.to_string()),
                ("port", cfg.port.to_string()),
                ("duration_ms", duration.as_millis().to_string()),
            ],
        );
    }
    let mut producer = LiveProducer::new(cfg);
    let mut datagrams = 0u64;
    let mut out = Vec::new();
    for _ in 0..duration.as_nanos() / cfg.chunk.as_nanos().max(1) {
        let now = SimTime::from_nanos(start.elapsed().as_nanos() as u64);
        wait_until(producer.step(now, signal, &mut out));
        for datagram in out.drain(..) {
            socket.send(&datagram)?;
            datagrams += 1;
        }
    }
    if let Some(played_out) = producer.tx().played_out_at() {
        wait_until(played_out);
    }
    let report = LiveProducerReport {
        stats: producer.tx().stats,
        datagrams,
        elapsed: start.elapsed(),
    };
    if let Some(j) = &cfg.journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "rebroadcast",
            "live producer finished",
            &[
                ("data_packets", report.stats.data_packets.to_string()),
                ("elapsed_ms", report.elapsed.as_millis().to_string()),
            ],
        );
    }
    Ok(report)
}

/// What a live speaker heard.
#[derive(Debug, Clone, Default)]
pub struct LiveSpeakerReport {
    /// Stream configuration learned from the control packet.
    pub config: Option<AudioConfig>,
    /// The interleaved samples it played, in play order: each block at
    /// its deadline, each concealment replica in its hole's slot.
    pub samples: Vec<i16>,
    /// The counters every speaker keeps; `samples_played` counts
    /// `samples`.
    pub stats: SpeakerStats,
    /// How early blocks reached the §3.2 play decision, µs.
    pub deadline_slack_us: Histogram,
}

/// The live speaker without its socket: the socket adapter of
/// [`SpeakerNode`], the same speaker the simulator drives. Datagrams
/// and their arrival times in, the instants it asked to be woken at,
/// and what it played out. [`run_live_speaker`] steps it from a
/// multicast receiver and the wall clock; tests step it from a trace.
/// It has no way back to the producer and no session: a statically
/// tuned radio that asks for no repairs.
pub struct LiveSpeaker {
    node: SpeakerNode<(), MemoDecoder>,
    samples: Vec<i16>,
}

impl Default for LiveSpeaker {
    fn default() -> Self {
        LiveSpeaker::new(SpeakerConfig::new("live", McastGroup(0)))
    }
}

impl LiveSpeaker {
    /// A speaker playing as `cfg` says; its device geometry and tap
    /// are the simulator's and mean nothing here.
    pub fn new(cfg: SpeakerConfig) -> Self {
        let decoder = MemoDecoder::new(&cfg);
        LiveSpeaker {
            node: SpeakerNode::new(cfg, decoder),
            samples: Vec::new(),
        }
    }

    /// One datagram, received `now` after the speaker started.
    pub fn step(&mut self, now: SimTime, datagram: &[u8]) {
        let raw = Bytes::copy_from_slice(datagram);
        self.node.on_datagram(now, (), &raw);
        self.carry_out(now);
    }

    /// The earliest instant the speaker asks to be woken at.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.node.next_wake()
    }

    /// Serves every wakeup due at or before `now`.
    pub fn wake(&mut self, now: SimTime) {
        while self.node.next_wake().is_some_and(|at| at <= now) {
            self.node.on_wake(now);
            self.carry_out(now);
        }
    }

    /// Plays what the node handed out; the rest — device format,
    /// wakeups, journal notes — is the node's bookkeeping here.
    fn carry_out(&mut self, now: SimTime) {
        let mut batch = std::mem::take(&mut self.node.actions);
        loop {
            for action in batch.drain(..) {
                let Action::Play(play) = action else { continue };
                let from = self.samples.len();
                play.render_into(&mut self.samples);
                self.node.stats.samples_played += (self.samples.len() - from) as u64;
                if play.mode == PlayMode::Serial {
                    self.node.serial_done(now);
                }
            }
            // The §3.4 player's next block queues behind the batch.
            std::mem::swap(&mut batch, &mut self.node.actions);
            if batch.is_empty() {
                break;
            }
        }
    }

    /// Ends the run.
    pub fn finish(self) -> LiveSpeakerReport {
        let node = &self.node;
        LiveSpeakerReport {
            config: (node.stats.control_packets > 0).then(|| node.stream_config()),
            samples: self.samples,
            stats: node.stats,
            deadline_slack_us: self.node.deadline_slack_us,
        }
    }
}

/// Listens on a channel for `run_for`, playing what it hears at each
/// block's deadline. Blocking. Diagnostics go to `journal` (wall-clock
/// stamps) when one is supplied.
#[expect(
    clippy::disallowed_methods,
    reason = "the live speaker listens for a span of host time (DESIGN.md §8)"
)]
pub fn run_live_speaker(
    channel: u8,
    port: u16,
    run_for: Duration,
    journal: Option<Journal>,
) -> Result<LiveSpeakerReport, crate::Error> {
    let rx = McastReceiver::join(channel, port, Duration::from_millis(100))?;
    let start = Instant::now();
    if let Some(j) = &journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "speaker",
            "live speaker joined group",
            &[("channel", channel.to_string()), ("port", port.to_string())],
        );
    }
    let mut speaker = LiveSpeaker::default();
    let mut buf = vec![0u8; 65_536];
    let now = || SimTime::from_nanos(start.elapsed().as_nanos() as u64);
    while start.elapsed() < run_for {
        // Wait no longer than the speaker's next wakeup.
        let wake = speaker
            .next_wake()
            .map(|at| Duration::from_nanos(at.as_nanos()));
        let until = wake.map_or(run_for, |at| at.min(run_for));
        if let Some(n) = rx.recv_within(&mut buf, until.saturating_sub(start.elapsed()))? {
            speaker.step(now(), &buf[..n]);
        }
        speaker.wake(now());
    }
    rx.leave().ok();
    let report = speaker.finish();
    if let Some(j) = &journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "speaker",
            "live speaker run complete",
            &[
                ("data_packets", report.stats.data_packets.to_string()),
                ("bad_packets", report.stats.bad_packets.to_string()),
            ],
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::gen::Sine;

    /// End-to-end over real loopback multicast. Sandboxes that forbid
    /// multicast skip without failing, printing the `SKIPPED:` marker
    /// scripts/check.sh counts (as `tests/session_udp.rs` does).
    #[test]
    fn live_roundtrip_over_loopback() {
        let journal = Journal::new();
        let channel = 17;
        let port = 49_500;
        let j2 = journal.clone();
        let speaker = std::thread::spawn(move || {
            run_live_speaker(channel, port, Duration::from_millis(1_500), Some(j2))
        });
        std::thread::sleep(Duration::from_millis(150));
        let mut cfg = LiveProducerConfig::new(channel, port);
        cfg.journal = Some(journal.clone());
        let mut sig = Sine::new(440.0, 44_100, 0.5);
        let produced = match run_live_producer(&cfg, &mut sig, Duration::from_millis(800)) {
            Ok(r) => r,
            Err(e) => {
                println!("SKIPPED: live_roundtrip_over_loopback: producer: {e}");
                return;
            }
        };
        let heard = match speaker.join().expect("speaker thread") {
            Ok(r) => r,
            Err(e) => {
                println!("SKIPPED: live_roundtrip_over_loopback: speaker: {e}");
                return;
            }
        };
        // Both ends journaled their lifecycle under wall-clock stamps.
        assert!(journal
            .events()
            .iter()
            .all(|e| e.stamp.domain == es_telemetry::TimeDomain::Wall));
        assert!(journal.len() >= 3, "start/joined/finished events");
        // Pacing: back when 800 ms of audio + 200 ms playout has played.
        assert!(produced.elapsed >= Duration::from_millis(1_000));
        assert_eq!(produced.stats.data_packets, 16);
        if heard.stats.datagrams == 0 {
            println!("SKIPPED: live_roundtrip_over_loopback: no multicast loopback delivery");
            return;
        }
        assert_eq!(heard.config, Some(AudioConfig::CD));
        assert!(heard.samples.len() > 44_100 / 4);
        assert_eq!(heard.stats.bad_packets, 0);
    }
}
