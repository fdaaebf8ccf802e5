//! Live mode: the same protocol over real UDP multicast.
//!
//! The simulator proves properties; this module proves the system runs
//! on an actual network. A producer thread paces a generated signal in
//! *real* time (the §3.1 rate limiter against the wall clock) and
//! multicasts control + data packets; a speaker loop joins the group,
//! gates on the first control packet, decodes and collects the audio.
//! `examples/real_udp.rs` wires both over the loopback interface and
//! writes what the speaker heard to a WAV file.
//!
//! Live mode decodes inline on the receive thread: a real Ethernet
//! Speaker is one node with one stream, so the simulator's
//! decode-once-per-datagram sharing has nothing to share here.

use std::time::{Duration, Instant};

use bytes::Bytes;

use es_audio::gen::{f32_to_i16, Signal};
use es_audio::AudioConfig;
use es_codec::{CodecId, Codecs};
use es_net::udp::{McastReceiver, McastSender};
use es_proto::{encode_control, encode_data, ControlPacket, DataPacket, Packet};
use es_telemetry::{Journal, Registry, Severity, Stamp, Telemetry};

/// Producer-side settings for a live run.
pub struct LiveProducerConfig {
    /// Multicast channel number (maps to `239.77.83.<n>`).
    pub channel: u8,
    /// UDP port.
    pub port: u16,
    /// Stream id in packets.
    pub stream_id: u16,
    /// Audio format.
    pub config: AudioConfig,
    /// Codec for data payloads.
    pub codec: CodecId,
    /// OVL quality.
    pub quality: u8,
    /// Control packet period.
    pub control_interval: Duration,
    /// Audio per data packet.
    pub chunk: Duration,
    /// Playout delay granted to receivers.
    pub playout_delay: Duration,
    /// Structured diagnostics sink (wall-clock stamps).
    pub journal: Option<Journal>,
}

impl LiveProducerConfig {
    /// Defaults: CD audio, OVL max quality, 500 ms control interval,
    /// 50 ms chunks.
    pub fn new(channel: u8, port: u16) -> Self {
        LiveProducerConfig {
            channel,
            port,
            stream_id: 1,
            config: AudioConfig::CD,
            codec: CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
            control_interval: Duration::from_millis(500),
            chunk: Duration::from_millis(50),
            playout_delay: Duration::from_millis(200),
            journal: None,
        }
    }

    /// Attaches a journal for structured diagnostics.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }
}

/// What a live producer run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveProducerReport {
    /// Data packets sent.
    pub data_packets: u64,
    /// Control packets sent.
    pub control_packets: u64,
    /// Payload bytes sent.
    pub payload_bytes: u64,
    /// Wall time the run took (should approximate the clip length:
    /// the 5-minute-song property).
    pub elapsed: Duration,
}

impl Telemetry for LiveProducerReport {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("rebroadcast");
        s.counter("data_packets", self.data_packets)
            .counter("control_packets", self.control_packets)
            .counter("payload_bytes_out", self.payload_bytes)
            .gauge("elapsed_ms", self.elapsed.as_millis() as f64);
    }
}

/// Streams `signal` for `duration`, pacing against the wall clock.
/// Blocking; spawn a thread for concurrent producer/speaker runs.
#[allow(clippy::disallowed_methods)]
pub fn run_live_producer(
    cfg: &LiveProducerConfig,
    signal: &mut dyn Signal,
    duration: Duration,
) -> Result<LiveProducerReport, crate::Error> {
    let tx = McastSender::new(cfg.channel, cfg.port)?;
    let codecs = Codecs::new();
    let start = Instant::now();
    if let Some(j) = &cfg.journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "rebroadcast",
            "live producer started",
            &[
                ("channel", cfg.channel.to_string()),
                ("port", cfg.port.to_string()),
                ("codec", format!("{:?}", cfg.codec)),
                ("duration_ms", duration.as_millis().to_string()),
            ],
        );
    }
    let mut report = LiveProducerReport::default();
    let frames_per_chunk =
        (cfg.config.sample_rate as u128 * cfg.chunk.as_nanos() / 1_000_000_000) as usize;
    let total_chunks = (duration.as_nanos() / cfg.chunk.as_nanos().max(1)) as u64;
    let mut next_control = Instant::now();
    let mut control_seq = 0u32;

    for chunk_idx in 0..total_chunks {
        let now = Instant::now();
        if now >= next_control {
            let pkt = ControlPacket {
                stream_id: cfg.stream_id,
                seq: control_seq,
                producer_time_us: start.elapsed().as_micros() as u64,
                config: cfg.config,
                codec: cfg.codec.to_wire(),
                quality: cfg.quality,
                control_interval_ms: cfg.control_interval.as_millis() as u16,
                flags: 0,
            };
            tx.send(&encode_control(&pkt))?;
            control_seq += 1;
            report.control_packets += 1;
            next_control = now + cfg.control_interval;
        }

        // Generate and encode one chunk.
        let mut mono = vec![0.0f32; frames_per_chunk];
        signal.fill(&mut mono);
        let mut interleaved = Vec::with_capacity(frames_per_chunk * cfg.config.channels as usize);
        for v in mono {
            let s = f32_to_i16(v);
            for _ in 0..cfg.config.channels {
                interleaved.push(s);
            }
        }
        let enc = codecs.encode(cfg.codec, &interleaved, cfg.config.channels, cfg.quality);
        let play_at =
            (chunk_idx as u128 * cfg.chunk.as_nanos() + cfg.playout_delay.as_nanos()) / 1_000;
        let pkt = DataPacket {
            stream_id: cfg.stream_id,
            seq: chunk_idx as u32,
            play_at_us: play_at as u64,
            codec: cfg.codec.to_wire(),
            payload: Bytes::from(enc.bytes),
        };
        tx.send(&encode_data(&pkt))?;
        report.data_packets += 1;
        report.payload_bytes += pkt.payload.len() as u64;

        // The rate limiter: sleep until this chunk's stream deadline.
        let deadline = start + cfg.chunk * (chunk_idx as u32 + 1);
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
    report.elapsed = start.elapsed();
    if let Some(j) = &cfg.journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "rebroadcast",
            "live producer finished",
            &[
                ("data_packets", report.data_packets.to_string()),
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
    /// Decoded interleaved samples, in arrival order.
    pub samples: Vec<i16>,
    /// Control packets seen.
    pub control_packets: u64,
    /// Data packets decoded.
    pub data_packets: u64,
    /// Data packets dropped while waiting for the first control packet.
    pub dropped_waiting_control: u64,
    /// Packets that failed to parse.
    pub bad_packets: u64,
}

impl Telemetry for LiveSpeakerReport {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("speaker");
        s.counter("control_packets", self.control_packets)
            .counter("data_packets", self.data_packets)
            .counter("dropped_waiting_control", self.dropped_waiting_control)
            .counter("bad_packets", self.bad_packets)
            .counter("samples_played", self.samples.len() as u64);
    }
}

/// Listens on a channel for `run_for`, collecting decoded audio.
/// Blocking. Diagnostics go to `journal` (wall-clock stamps) when one
/// is supplied.
#[allow(clippy::disallowed_methods)]
pub fn run_live_speaker(
    channel: u8,
    port: u16,
    run_for: Duration,
    journal: Option<Journal>,
) -> Result<LiveSpeakerReport, crate::Error> {
    let rx = McastReceiver::join(channel, port, Duration::from_millis(100))?;
    let codecs = Codecs::new();
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
    let mut report = LiveSpeakerReport::default();
    let mut buf = vec![0u8; 65_536];
    while start.elapsed() < run_for {
        let Some(n) = rx.recv(&mut buf)? else {
            continue;
        };
        match es_proto::decode(&buf[..n]) {
            Ok(Packet::Control(c)) => {
                report.control_packets += 1;
                report.config = Some(c.config);
            }
            Ok(Packet::Data(d)) => {
                let Some(cfg) = report.config else {
                    report.dropped_waiting_control += 1;
                    continue;
                };
                match codecs.decode_wire(d.codec, &d.payload, cfg.channels) {
                    Ok((samples, _)) => {
                        report.data_packets += 1;
                        report.samples.extend_from_slice(&samples);
                    }
                    Err(_) => report.bad_packets += 1,
                }
            }
            Ok(Packet::Announce(_)) => {}
            // Loopback does not lose packets; the live collector skips
            // FEC recovery (the simulator exercises it under real loss).
            Ok(Packet::Parity(_)) => {}
            // The live collector is statically tuned; session control
            // is the negotiated path's concern.
            Ok(Packet::Session(_)) => {}
            Err(_) => report.bad_packets += 1,
        }
    }
    rx.leave().ok();
    if let Some(j) = &journal {
        j.emit(
            Stamp::wall_now(),
            Severity::Info,
            "speaker",
            "live speaker run complete",
            &[
                ("data_packets", report.data_packets.to_string()),
                ("bad_packets", report.bad_packets.to_string()),
            ],
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::gen::Sine;

    /// End-to-end over real loopback multicast. Skips (without
    /// failing) in sandboxes that forbid multicast.
    /// Journals an environment-dependent skip instead of printing.
    fn skip(journal: &Journal, reason: String) {
        journal.emit(
            Stamp::wall_now(),
            Severity::Warn,
            "core",
            "live test skipped",
            &[("reason", reason)],
        );
    }

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
        let mut cfg = LiveProducerConfig::new(channel, port).with_journal(journal.clone());
        cfg.codec = CodecId::Adpcm;
        let mut sig = Sine::new(440.0, 44_100, 0.5);
        let produced = match run_live_producer(&cfg, &mut sig, Duration::from_millis(800)) {
            Ok(r) => r,
            Err(e) => {
                skip(&journal, format!("producer: {e}"));
                return;
            }
        };
        let heard = match speaker.join().expect("speaker thread") {
            Ok(r) => r,
            Err(e) => {
                skip(&journal, format!("speaker: {e}"));
                return;
            }
        };
        // Both ends journaled their lifecycle under wall-clock stamps.
        assert!(journal
            .events()
            .iter()
            .all(|e| e.stamp.domain == es_telemetry::TimeDomain::Wall));
        assert!(journal.len() >= 3, "start/joined/finished events");
        // Pacing: 800 ms of audio takes ~800 ms to send.
        assert!(produced.elapsed >= Duration::from_millis(750));
        assert!(produced.data_packets >= 15);
        if heard.data_packets == 0 {
            skip(&journal, "no multicast loopback delivery".to_string());
            return;
        }
        assert_eq!(heard.config, Some(AudioConfig::CD));
        assert!(heard.samples.len() > 44_100 / 4);
        assert_eq!(heard.bad_packets, 0);
    }
}
