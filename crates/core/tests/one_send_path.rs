//! One send path, two drivers.
//!
//! The live producer steps `es_rebroadcast::StreamTx`, the core the
//! simulated rebroadcaster steps, so live mode paces with the §3.1
//! rate limiter, follows the compression policy, emits parity and
//! signs — none of which it did while it built its packets by hand.
//! The socket-free `LiveProducer` is stepped here under a fake clock
//! that jumps to each send time; its datagrams go, minus one, straight
//! into the socket-free `LiveSpeaker`. No socket is involved, so this
//! runs in sandboxes that forbid multicast.

use std::rc::Rc;

use bytes::Bytes;
use es_audio::gen::Sine;
use es_codec::CodecId;
use es_core::{LiveProducer, LiveProducerConfig, LiveSpeaker};
use es_proto::auth::StreamSigner;
use es_proto::{decode, Packet, TRAILER_LEN};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};
use es_speaker::SpeakerRx;

const CHUNKS: u64 = 24;
const CHUNK: SimDuration = SimDuration::from_millis(50);
/// `RateLimiter::new()`'s head start.
const LEAD: SimDuration = SimDuration::from_millis(100);
/// CD stereo: interleaved samples in one 50 ms chunk.
const SAMPLES_PER_CHUNK: u64 = 2 * 2_205;

fn config() -> LiveProducerConfig {
    let mut cfg = LiveProducerConfig::new(0, 0);
    cfg.tx.fec_group = Some(4);
    cfg.tx.policy = CompressionPolicy::Always {
        codec: CodecId::Adpcm,
        quality: 0,
    };
    cfg
}

/// Every datagram of a 24-chunk run with the time it left, the clock
/// advancing only as far as the producer asks.
fn stream(cfg: &LiveProducerConfig) -> Vec<(SimTime, Bytes)> {
    let mut producer = LiveProducer::new(cfg);
    let mut signal = Sine::new(440.0, 44_100, 0.5);
    let mut now = SimTime::ZERO;
    let mut trace = Vec::new();
    let mut out = Vec::new();
    for _ in 0..CHUNKS {
        now = now.max(producer.step(now, &mut signal, &mut out));
        trace.extend(out.drain(..).map(|datagram| (now, datagram)));
    }
    let stats = producer.tx().stats;
    assert_eq!(stats.data_packets, CHUNKS);
    assert_eq!(stats.audio_bytes_in, CHUNKS * SAMPLES_PER_CHUNK * 2);
    assert!(
        stats.payload_bytes_out * 3 < stats.audio_bytes_in,
        "ADPCM is 4 bits a sample: {stats:?}"
    );
    let played_out = SimTime::ZERO + CHUNK * CHUNKS + cfg.tx.playout_delay;
    assert_eq!(producer.tx().played_out_at(), Some(played_out));
    trace
}

fn data_seq(raw: &[u8]) -> Option<u32> {
    match decode(raw) {
        Ok(Packet::Data(d)) => Some(d.seq),
        _ => None,
    }
}

#[test]
fn live_producer_paces_compresses_and_protects_like_the_simulated_one() {
    let trace = stream(&config());

    // The rate limiter, not a private sleep: the lead's worth of
    // chunks leaves at once, every later one a chunk after the last
    // and no earlier than `lead` before its place in the stream.
    let sends: Vec<SimTime> = trace
        .iter()
        .filter(|(_, raw)| data_seq(raw).is_some())
        .map(|&(at, _)| at)
        .collect();
    assert_eq!(sends.len() as u64, CHUNKS);
    let burst = (LEAD.as_nanos() / CHUNK.as_nanos()) as usize + 1;
    assert!(sends[..burst].iter().all(|&at| at == SimTime::ZERO));
    for (k, pair) in sends.windows(2).enumerate().skip(burst - 1) {
        assert_eq!(pair[1] - pair[0], CHUNK, "send {}", k + 1);
        assert_eq!(pair[1] + LEAD, SimTime::ZERO + CHUNK * (k as u64 + 1));
    }
    let parity = trace
        .iter()
        .filter(|(_, raw)| matches!(decode(raw), Ok(Packet::Parity(_))))
        .count();
    assert_eq!(parity as u64, CHUNKS / 4);

    // One data packet lost on the wire; its group's parity survives.
    let mut speaker = LiveSpeaker::default();
    for (at, raw) in trace.iter().filter(|(_, raw)| data_seq(raw) != Some(5)) {
        speaker.step(*at, raw);
    }
    let heard = speaker.finish();
    assert_eq!(heard.stats.fec_recovered, 1);
    assert_eq!(heard.stats.dropped_duplicate, 0);
    assert_eq!(heard.stats.dropped_late, 0);
    assert_eq!(heard.stats.bad_packets, 0);
    assert_eq!(heard.stats.data_packets, CHUNKS, "every block plays");
    assert_eq!(heard.samples.len() as u64, CHUNKS * SAMPLES_PER_CHUNK);
}

#[test]
fn live_producer_signs_what_an_authenticating_speaker_accepts() {
    let signer = Rc::new(StreamSigner::new(b"live-key", 64, 1));
    let mut cfg = config();
    cfg.tx.signer = Some(signer.clone());
    let trace = stream(&cfg);

    let mut rx = SpeakerRx::new(Some(signer.anchor()));
    let mut events = Vec::new();
    let (mut controls, mut blocks) = (0, 0);
    for (at, raw) in &trace {
        assert!(decode(&raw[..raw.len() - TRAILER_LEN]).is_ok(), "trailer");
        for released in rx.admit(raw) {
            let packet = decode(&released).expect("a verified message parses");
            controls += u32::from(matches!(packet, Packet::Control(_)));
            rx.on_packet(*at, packet, &mut events);
        }
        blocks += events
            .drain(..)
            .filter(|e| matches!(e, es_speaker::RxEvent::Block(_)))
            .count();
    }
    assert_eq!(rx.stats.bad_packets, 0);
    assert_eq!(rx.stats.datagrams as usize, trace.len());
    // Keys are disclosed one 500 ms interval late: what the first
    // half-second carried is out by the end of the 1.1 s trace.
    assert!(controls >= 1 && blocks >= 10, "{controls} / {blocks}");
}
