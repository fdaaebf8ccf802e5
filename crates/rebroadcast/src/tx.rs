//! The send protocol without its clock or its network (§2.2, §2.3).
//!
//! [`StreamTx`] is everything the rebroadcaster decides from audio
//! bytes and a timestamp: play deadlines, §3.1 pacing, §2.2 codec
//! selection, sequence numbers, serialisation, the §5.1 signature,
//! parity and the retransmission window. Every method takes `now` as a
//! value and pushes sealed datagrams into a buffer the caller owns, so
//! its two drivers — [`crate::Rebroadcaster`] under virtual time,
//! `es_core::live::LiveProducer` under the wall clock — put the same
//! bytes on the wire.
//!
//! A block takes three steps, each at its own instant: [`StreamTx::pace`]
//! when it arrives, [`StreamTx::encode`] at the send time the limiter
//! named, [`StreamTx::seal`] when the encode is done. A process that
//! goes down between two steps loses the block there.

use std::collections::VecDeque;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};

use es_audio::convert::decode_samples_into;
use es_audio::AudioConfig;
use es_codec::{CodecId, Codecs};
use es_proto::auth::StreamSigner;
use es_proto::{
    encode_control_into, encode_data_into, encode_parity_into, ControlPacket, DataPacket,
    ParityAccumulator, FLAG_AUTHENTICATED,
};
use es_sim::{SimDuration, SimTime};
use es_telemetry::{Registry, Telemetry};

use crate::policy::CompressionPolicy;
use crate::rate::RateLimiter;

/// Most data packets kept for NACK retransmission. A packet leaves the
/// cache once its play deadline is no longer ahead of the producer's
/// clock — about playout delay ÷ block duration + 1 packets, 5 at the
/// defaults — so this cap binds only under a playout delay longer than
/// 64 blocks.
const RECENT_CACHE: usize = 64;

/// Producer time per §5.1 key-chain interval of a signed stream.
const AUTH_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// How long a packet that just went back out is not sent again: a
/// retransmission is multicast, so the speakers that lost the same
/// datagram — their NACKs arrive microseconds apart — are all served
/// by the first. Shorter than a speaker's re-ask interval
/// (`es_speaker::rx::NACK_REASK`), so a re-ask for a refill that was
/// itself lost is always served.
const REPAIR_HOLDOFF: SimDuration = SimDuration::from_millis(10);

/// The protocol settings of one stream — what both drivers embed.
#[derive(Clone)]
pub struct StreamTxConfig {
    /// Stream identifier carried in every packet.
    pub stream_id: u16,
    /// Control packet period (§2.3's "regular intervals").
    pub control_interval: SimDuration,
    /// Fixed playout delay granted to receivers: data packet `play_at`
    /// deadlines sit this far behind the producer stream clock.
    pub playout_delay: SimDuration,
    /// Rate limiter (disable to reproduce the §3.1 failure).
    pub rate_limiter: RateLimiter,
    /// Compression policy.
    pub policy: CompressionPolicy,
    /// Stream flags to advertise (e.g. [`es_proto::FLAG_PRIORITY`]).
    pub flags: u16,
    /// Optional signer; when set, packets carry auth trailers and the
    /// control flags advertise [`FLAG_AUTHENTICATED`].
    pub signer: Option<Rc<StreamSigner>>,
    /// Emit one XOR-parity packet per this many data packets (single-
    /// loss FEC, an extension for lossy links). `None` disables FEC.
    pub fec_group: Option<u8>,
}

impl StreamTxConfig {
    /// Sensible defaults for a stream: 500 ms control interval, 200 ms
    /// playout delay, paper-default compression, rate limiting on.
    pub fn new(stream_id: u16) -> Self {
        StreamTxConfig {
            stream_id,
            control_interval: SimDuration::from_millis(500),
            playout_delay: SimDuration::from_millis(200),
            rate_limiter: RateLimiter::new(),
            policy: CompressionPolicy::paper_default(),
            flags: 0,
            signer: None,
            fec_group: None,
        }
    }
}

/// Counters for one stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProducerStats {
    /// Data packets sent.
    pub data_packets: u64,
    /// Control packets sent.
    pub control_packets: u64,
    /// Raw audio bytes consumed from the source.
    pub audio_bytes_in: u64,
    /// Encoded payload bytes sent.
    pub payload_bytes_out: u64,
    /// Total encode work units counted.
    pub encode_work_units: u64,
    /// Configuration changes observed.
    pub config_changes: u64,
    /// Injected crashes ([`StreamTx::crash`]).
    pub crashes: u64,
    /// Audio blocks consumed but never sent because the process was
    /// down — each one is a sequence-number gap on the wire.
    pub crash_dropped_blocks: u64,
    /// NACKs this stream was asked to serve.
    pub nacks_received: u64,
    /// Cached data packets re-sent on NACK.
    pub retransmits_sent: u64,
    /// Times this instance was promoted from standby to primary.
    pub promotions: u64,
}

impl ProducerStats {
    /// Encoded-to-raw byte ratio (1.0 = no compression, lower is
    /// smaller). Zero until audio has flowed.
    pub fn compression_ratio(&self) -> f64 {
        if self.audio_bytes_in == 0 {
            0.0
        } else {
            self.payload_bytes_out as f64 / self.audio_bytes_in as f64
        }
    }
}

impl Telemetry for ProducerStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("rebroadcast");
        s.counter("data_packets", self.data_packets)
            .counter("control_packets", self.control_packets)
            .counter("audio_bytes_in", self.audio_bytes_in)
            .counter("payload_bytes_out", self.payload_bytes_out)
            .counter("encode_work_units", self.encode_work_units)
            .counter("config_changes", self.config_changes)
            .counter("crashes", self.crashes)
            .counter("crash_dropped_blocks", self.crash_dropped_blocks)
            .counter("retransmits_sent", self.retransmits_sent)
            .counter("promotions", self.promotions)
            .gauge("compression_ratio", self.compression_ratio());
        // Listed once some arrive, like the speakers' `nacks_sent`.
        if self.nacks_received > 0 {
            s.counter("nacks_received", self.nacks_received);
        }
    }
}

/// What a stream's packets say about its audio: the source's
/// configuration and the policy's selection for it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Format {
    config: AudioConfig,
    codec: CodecId,
    quality: u8,
}

/// One block on its way out, as [`StreamTx::pace`] accepted it: when
/// it may leave, its play deadline and the format it was offered
/// under (a reconfiguration does not re-describe audio already
/// accepted); [`StreamTx::encode`] adds the payload.
#[derive(Debug)]
pub struct Block {
    /// When the block may be encoded and sent.
    pub send_at: SimTime,
    /// Codec work performed, for drivers that bill a CPU model.
    pub work_units: u64,
    play_at: SimTime,
    format: Format,
    payload: Bytes,
}

/// What a promoted standby adopts from its primary: the §2.2
/// rebroadcaster keeps no speaker state, so the stream's description,
/// clock and sequence spaces are all a warm spare needs.
#[derive(Clone, Copy, Default)]
struct StreamState {
    /// `None` until the source has described its audio.
    format: Option<Format>,
    /// Cumulative stream duration (survives config changes, unlike a
    /// byte counter).
    pos_ns: u128,
    /// Producer-timeline origin: the first byte plays at
    /// `origin + playout_delay`.
    origin: Option<SimTime>,
    data_seq: u32,
    control_seq: u32,
}

/// The send-side protocol state of one stream.
pub struct StreamTx {
    cfg: StreamTxConfig,
    codecs: Codecs,
    /// The format of the stream `codecs` laps packets of, `None` when
    /// the next packet starts a fresh lap.
    lapping: Option<Format>,
    stream: StreamState,
    /// While down, audio drains into the void (sequence numbers still
    /// advance, so receivers see wire loss) and control packets stop.
    down: bool,
    /// A standby sends nothing until [`StreamTx::promote`]; the
    /// primary a promoted standby replaced stands by for good.
    standby: bool,
    /// What this stream has sent and lost so far.
    pub stats: ProducerStats,
    parity: Option<ParityAccumulator>,
    /// Sent data packets still ahead of their play deadline, oldest
    /// first — the window a NACK can reach into — each with when it
    /// last went back out. Payloads are shared `Bytes`.
    recent: VecDeque<(DataPacket, Option<SimTime>)>,
    /// Every outgoing packet is encoded and signed in place here, then
    /// split off as a shared [`Bytes`]: one allocation, zero copies.
    scratch: BytesMut,
    /// The encoder's linear-sample input, reused.
    samples: Vec<i16>,
}

impl StreamTx {
    /// A stream with nothing sent yet.
    pub fn new(cfg: StreamTxConfig, standby: bool) -> StreamTx {
        StreamTx {
            codecs: Codecs::new(),
            lapping: None,
            stream: StreamState::default(),
            down: false,
            standby,
            stats: ProducerStats::default(),
            parity: cfg.fec_group.map(ParityAccumulator::new),
            recent: VecDeque::new(),
            scratch: BytesMut::new(),
            samples: Vec::new(),
            cfg,
        }
    }

    /// The source (re)described its audio: returns the policy's codec
    /// and quality for it. The caller announces it with
    /// [`StreamTx::control`].
    pub fn on_config(&mut self, config: AudioConfig) -> (CodecId, u8) {
        if self.stream.format.is_some() {
            self.stats.config_changes += 1;
        }
        let (codec, quality) = self.cfg.policy.select(&config);
        self.stream.format = Some(Format {
            config,
            codec,
            quality,
        });
        (codec, quality)
    }

    /// Accepts `bytes` of audio offered at `now`: advances the stream
    /// clock, stamps the play deadline and asks the limiter when the
    /// block may leave. `None` when it goes nowhere — before any
    /// configuration it cannot be described, and while down only the
    /// stream clock and the sequence space advance, so post-restart
    /// deadlines stay continuous.
    pub fn pace(&mut self, now: SimTime, bytes: usize) -> Option<Block> {
        let format = self.stream.format?;
        self.stats.audio_bytes_in += bytes as u64;
        let origin = *self.stream.origin.get_or_insert(now);
        let play_at =
            origin + SimDuration::from_nanos(self.stream.pos_ns as u64) + self.cfg.playout_delay;
        self.stream.pos_ns += format.config.nanos_for_bytes(bytes as u64) as u128;
        if self.down {
            self.stream.data_seq = self.stream.data_seq.wrapping_add(1);
            self.stats.crash_dropped_blocks += 1;
            return None;
        }
        Some(Block {
            send_at: self.cfg.rate_limiter.pace(now, &format.config, bytes),
            work_units: 0,
            play_at,
            format,
            payload: Bytes::new(),
        })
    }

    /// Encodes a paced block: `raw` bytes in the application's encoding
    /// in, codec payload and its work-unit count into `block`. The
    /// first block of a format, and the first after a restart, starts a
    /// fresh OVL lap.
    pub fn encode(&mut self, raw: &[u8], block: &mut Block) {
        let f = block.format;
        if self.lapping != Some(f) {
            self.codecs.reset();
            self.lapping = Some(f);
        }
        decode_samples_into(raw, f.config.encoding, &mut self.samples);
        let enc = self
            .codecs
            .encode(f.codec, &self.samples, f.config.channels, f.quality);
        self.stats.encode_work_units += enc.work_units;
        block.work_units = enc.work_units;
        block.payload = Bytes::from(enc.bytes);
    }

    /// Gives an encoded block its sequence number and pushes the
    /// sealed data packet — and the parity packet, when it completes a
    /// group — into `out`. A block encoded before a crash and due
    /// after it dies with the process: the number is burnt.
    pub fn seal(&mut self, now: SimTime, block: Block, out: &mut Vec<Bytes>) {
        let seq = self.stream.data_seq;
        self.stream.data_seq = seq.wrapping_add(1);
        if self.down {
            self.stats.crash_dropped_blocks += 1;
            return;
        }
        self.stats.data_packets += 1;
        self.stats.payload_bytes_out += block.payload.len() as u64;
        let pkt = DataPacket {
            stream_id: self.cfg.stream_id,
            seq,
            play_at_us: block.play_at.as_micros(),
            codec: block.format.codec.to_wire(),
            payload: block.payload,
        };
        out.push(seal_with(&mut self.scratch, &self.cfg, now, |buf| {
            encode_data_into(&pkt, buf)
        }));
        if let Some(parity) = self.parity.as_mut().and_then(|acc| acc.absorb(&pkt)) {
            out.push(seal_with(&mut self.scratch, &self.cfg, now, |buf| {
                encode_parity_into(&parity, buf)
            }));
        }
        self.recent.push_back((pkt, None));
        self.expire(now);
        while self.recent.len() > RECENT_CACHE {
            self.recent.pop_front();
        }
    }

    /// Drops the cached packets whose play deadline is not ahead of
    /// `now`: a copy sent now reaches no speaker before the block is
    /// due. A relay hop delays the copy by the same hold it adds to its
    /// speakers' deadlines, so that holds behind relays too.
    fn expire(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        while self
            .recent
            .front()
            .is_some_and(|(p, _)| p.play_at_us <= now_us)
        {
            self.recent.pop_front();
        }
    }

    /// Pushes one control packet stamped `now` — on every
    /// configuration, timer tick, restart and promotion. Nothing
    /// before the first configuration, while down or standing by.
    pub fn control(&mut self, now: SimTime, out: &mut Vec<Bytes>) {
        if self.down || self.standby {
            return;
        }
        let Some(format) = self.stream.format else {
            return;
        };
        let seq = self.stream.control_seq;
        self.stream.control_seq = seq.wrapping_add(1);
        self.stats.control_packets += 1;
        let mut flags = self.cfg.flags;
        if self.cfg.signer.is_some() {
            flags |= FLAG_AUTHENTICATED;
        }
        let pkt = ControlPacket {
            stream_id: self.cfg.stream_id,
            seq,
            producer_time_us: now.as_micros(),
            config: format.config,
            codec: format.codec.to_wire(),
            quality: format.quality,
            control_interval_ms: self.cfg.control_interval.as_millis() as u16,
            flags,
        };
        out.push(seal_with(&mut self.scratch, &self.cfg, now, |buf| {
            encode_control_into(&pkt, buf)
        }));
    }

    /// Re-sends cached data packets covering the NACKed
    /// `(first_seq, count)` ranges; returns how many were pushed.
    /// Packets already due at `now` leave the cache first. Ranges are
    /// clamped to the window by serial-number distance from its oldest
    /// packet (so it may straddle the `u32` wrap) and a packet that
    /// went back out less than `REPAIR_HOLDOFF` ago — earlier in
    /// this request, or for a neighbour's — is not sent again: a
    /// request costs at most the cache, whatever it asks for. What is
    /// older is silently unfillable — FEC and concealment are the
    /// recourse.
    pub fn retransmit(&mut self, now: SimTime, ranges: &[(u32, u16)], out: &mut Vec<Bytes>) -> u64 {
        self.stats.nacks_received += 1;
        self.expire(now);
        let Some(oldest) = self.recent.front().map(|(p, _)| p.seq) else {
            return 0;
        };
        if self.down || self.standby {
            return 0;
        }
        let offset = |seq: u32| i64::from(seq.wrapping_sub(oldest));
        let mut sent = 0;
        for &(first, count) in ranges {
            // Signed: a range starting before the window has a
            // negative `lo` and is served from the window's start.
            let lo = i64::from(first.wrapping_sub(oldest) as i32);
            let hi = lo + i64::from(count);
            let start = self.recent.partition_point(|(p, _)| offset(p.seq) < lo);
            for (pkt, resent_at) in self.recent.iter_mut().skip(start) {
                if offset(pkt.seq) >= hi {
                    break;
                }
                if resent_at.is_some_and(|at| now < at.saturating_add(REPAIR_HOLDOFF)) {
                    continue;
                }
                *resent_at = Some(now);
                sent += 1;
                out.push(seal_with(&mut self.scratch, &self.cfg, now, |buf| {
                    encode_data_into(pkt, buf)
                }));
            }
        }
        self.stats.retransmits_sent += sent;
        sent
    }

    /// The process dies: data and control stop while the source keeps
    /// producing. False (and no effect) when already down.
    pub fn crash(&mut self) -> bool {
        if self.down {
            return false;
        }
        self.down = true;
        self.stats.crashes += 1;
        true
    }

    /// The process comes back; the caller announces it with
    /// [`StreamTx::control`]. False unless it was down. Blocks lost
    /// meanwhile stay lost, like wire loss (§3.2 handles them), and the
    /// first block after starts a fresh OVL lap.
    pub fn restart(&mut self) -> bool {
        let was_down = std::mem::take(&mut self.down);
        if was_down {
            self.lapping = None;
        }
        was_down
    }

    /// Promotes this standby: adopts `primary`'s stream clock, sequence
    /// spaces and format, so deadlines survive the failover bit-for-bit,
    /// and stands `primary` by in its place. Returns the sequence number
    /// its first data packet will carry.
    pub fn promote(&mut self, primary: &mut StreamTx) -> u32 {
        primary.standby = true;
        self.standby = false;
        self.stream = primary.stream;
        self.stats.promotions += 1;
        self.stream.data_seq
    }

    /// True while this instance is a warm spare awaiting promotion.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// The settings in force (`rate_limiter` carries its stats).
    pub fn config(&self) -> &StreamTxConfig {
        &self.cfg
    }

    /// The stream's current audio configuration (meaningful once
    /// [`ProducerStats::control_packets`] is non-zero).
    pub fn stream_config(&self) -> AudioConfig {
        self.stream.format.map(|f| f.config).unwrap_or_default()
    }

    /// When the receivers will have played every block accepted so
    /// far; `None` before any audio.
    pub fn played_out_at(&self) -> Option<SimTime> {
        let end = SimDuration::from_nanos(self.stream.pos_ns as u64) + self.cfg.playout_delay;
        self.stream.origin.map(|origin| origin + end)
    }
}

/// Serializes one packet in the scratch buffer, appends the §5.1 auth
/// trailer for the key-chain interval `now` falls in when signing is
/// configured, and splits the bytes off without copying.
fn seal_with(
    scratch: &mut BytesMut,
    cfg: &StreamTxConfig,
    now: SimTime,
    encode: impl FnOnce(&mut BytesMut),
) -> Bytes {
    scratch.clear();
    encode(scratch);
    if let Some(signer) = &cfg.signer {
        let interval =
            ((now.as_nanos() / AUTH_INTERVAL.as_nanos() + 1) as u32).min(signer.intervals());
        let trailer = signer.sign(interval, scratch);
        scratch.extend_from_slice(&trailer.encode());
    }
    scratch.split().freeze()
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use es_net::McastGroup;
    use es_proto::{decode, Packet, WireError};
    use es_speaker::{Decoder, Pcm, SharedBlock, SpeakerConfig, SpeakerNode};

    /// A speaker's decoder that counts the blocks its node clears.
    struct Blocks(Rc<Cell<usize>>);

    impl Decoder for Blocks {
        fn parse(&mut self, raw: &Bytes) -> Result<Packet, WireError> {
            decode(raw)
        }

        fn decode(
            &mut self,
            now: SimTime,
            _: CodecId,
            _: u8,
            _: &Bytes,
        ) -> Option<(Pcm, u64, SimTime)> {
            self.0.set(self.0.get() + 1);
            Some((SharedBlock::new(Vec::new()), 0, now))
        }
    }

    /// 50 ms of CD audio.
    const BLOCK: usize = 8_820;
    /// The play-out time of one [`BLOCK`].
    const BLOCK_TIME: SimDuration = SimDuration::from_millis(50);
    /// A playout delay of 1 200 blocks: nothing below falls due, so
    /// only the [`RECENT_CACHE`] cap leaves the cache.
    const LONG_PLAYOUT: SimDuration = SimDuration::from_secs(60);

    fn pcm_stream(fec_group: Option<u8>) -> StreamTx {
        pcm_stream_delayed(fec_group, StreamTxConfig::new(7).playout_delay)
    }

    fn pcm_stream_delayed(fec_group: Option<u8>, playout_delay: SimDuration) -> StreamTx {
        let mut cfg = StreamTxConfig::new(7);
        cfg.policy = CompressionPolicy::Never;
        cfg.fec_group = fec_group;
        cfg.playout_delay = playout_delay;
        let mut tx = StreamTx::new(cfg, false);
        assert_eq!(tx.on_config(AudioConfig::CD), (CodecId::Pcm, 0));
        tx
    }

    /// Streams `blocks` blocks, each through all three steps at its
    /// send time, and returns every datagram sealed after a leading
    /// control packet.
    fn stream(tx: &mut StreamTx, blocks: usize) -> Vec<(SimTime, Bytes)> {
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        tx.control(now, &mut out);
        let mut trace: Vec<(SimTime, Bytes)> = out.drain(..).map(|d| (now, d)).collect();
        for i in 0..blocks {
            let mut block = tx.pace(now, BLOCK).expect("configured and up");
            now = now.max(block.send_at);
            tx.encode(&vec![i as u8; BLOCK], &mut block);
            tx.seal(now, block, &mut out);
            trace.extend(out.drain(..).map(|d| (now, d)));
        }
        trace
    }

    fn data_seqs(datagrams: &[Bytes]) -> Vec<u32> {
        let seq = |raw: &Bytes| match decode(raw) {
            Ok(Packet::Data(d)) => d.seq,
            other => panic!("expected data, got {other:?}"),
        };
        datagrams.iter().map(seq).collect()
    }

    #[test]
    fn both_sequence_spaces_cross_the_wrap_and_parity_still_recovers() {
        let mut tx = pcm_stream(Some(4));
        tx.stream.data_seq = u32::MAX - 5;
        tx.stream.control_seq = u32::MAX;
        let trace = stream(&mut tx, 16);
        assert_eq!(tx.stream.data_seq, 10);
        assert_eq!(tx.stream.control_seq, 0);

        // Drop the second packet past the wrap; its group (0..=3) is
        // whole otherwise.
        let blocks = Rc::default();
        let cfg = SpeakerConfig::new("es", McastGroup(0));
        let mut rx = SpeakerNode::new(cfg, Blocks(Rc::clone(&blocks)));
        rx.request_repairs();
        for (at, raw) in &trace {
            if matches!(decode(raw), Ok(Packet::Data(d)) if d.seq == 1) {
                continue;
            }
            rx.on_datagram(*at, (), raw);
        }
        assert_eq!(blocks.get(), 16);
        assert_eq!(rx.stats.fec_recovered, 1);
        assert_eq!(rx.stats.dropped_duplicate, 0);
        assert_eq!(rx.stats.bad_packets, 0);
        assert_eq!(rx.table_sizes()[0], 0, "recovery left a hole");
        // Served at its instants, no wakeup finds a hole to ask for.
        while let Some(at) = rx.next_wake() {
            rx.on_wake(at);
        }
        assert_eq!(rx.stats.nacks_sent, 0);
    }

    #[test]
    fn retransmit_serves_each_cached_packet_at_most_once_per_request() {
        // Every request below falls before its packets are due.
        let mut tx = pcm_stream_delayed(None, LONG_PLAYOUT);
        stream(&mut tx, 40); // sealed by 1.9 s
        let mut out = Vec::new();
        // The widest request one NACK can carry.
        let mut now = SimTime::from_secs(3);
        assert_eq!(tx.retransmit(now, &[(0, u16::MAX); 16], &mut out), 40);
        assert_eq!(data_seqs(&out), (0..40).collect::<Vec<_>>());
        assert_eq!(tx.stats.retransmits_sent, 40);

        // Disjoint in-window ranges: served in request order, the part
        // of a range past the newest packet is nothing.
        out.clear();
        now += REPAIR_HOLDOFF;
        assert_eq!(
            tx.retransmit(now, &[(20, 3), (10, 2), (38, 9)], &mut out),
            7
        );
        assert_eq!(data_seqs(&out), [20, 21, 22, 10, 11, 38, 39]);
        out.clear();
        assert_eq!(tx.retransmit(now, &[(40, 100), (1 << 31, 7)], &mut out), 0);

        // Past 64 packets the window slides; a range that starts
        // before it is served from its oldest packet.
        stream(&mut tx, 60); // sealed by 4.9 s
        now = SimTime::from_secs(5);
        assert_eq!(tx.retransmit(now, &[(30, 10)], &mut out), 4);
        assert_eq!(data_seqs(&out), [36, 37, 38, 39]);

        // Silent while down: the request is counted, nothing is sent.
        let before = tx.stats.retransmits_sent;
        tx.crash();
        assert_eq!(tx.retransmit(now, &[(90, 5)], &mut out), 0);
        assert_eq!(tx.stats.retransmits_sent, before);
        assert_eq!(tx.stats.nacks_received, 5);
    }

    /// Two speakers lost the same datagrams and say so a moment apart;
    /// one of them loses the refill too and asks again, all before the
    /// first lost block is due at 600 ms.
    fn neighbours_then_a_reask(first: u32) {
        let mut tx = pcm_stream(None);
        tx.stream.data_seq = first;
        stream(&mut tx, 12); // sealed by 450 ms
        let lost = (first.wrapping_add(8), 3);
        let seqs = [8, 9, 10].map(|k| first.wrapping_add(k));
        let mut out = Vec::new();
        let t0 = SimTime::from_millis(500);
        assert_eq!(tx.retransmit(t0, &[lost], &mut out), 3);
        assert_eq!(data_seqs(&out), seqs);
        // The neighbour's NACK, 40 µs behind and one packet wider: the
        // multicast refill is already on its way to both.
        let wider = (lost.0, 4);
        let t1 = t0 + SimDuration::from_micros(40);
        assert_eq!(tx.retransmit(t1, &[wider], &mut out), 1);
        assert_eq!(data_seqs(&out)[3..], [first.wrapping_add(11)]);
        let almost = t0 + REPAIR_HOLDOFF - SimDuration::from_nanos(1);
        assert_eq!(tx.retransmit(almost, &[lost], &mut out), 0);
        // The re-ask is served, however short the holdoff left it.
        assert!(REPAIR_HOLDOFF < es_speaker::NACK_REASK);
        out.clear();
        assert_eq!(tx.retransmit(t0 + REPAIR_HOLDOFF, &[lost], &mut out), 3);
        assert_eq!(data_seqs(&out), seqs);
        assert_eq!(tx.stats.retransmits_sent, 7);
    }

    #[test]
    fn repeat_inside_the_holdoff_is_skipped_and_a_reask_is_served() {
        neighbours_then_a_reask(100);
    }

    #[test]
    fn repair_holdoff_holds_across_the_sequence_wrap() {
        // The lost packets are u32::MAX - 1, u32::MAX and 0.
        neighbours_then_a_reask(u32::MAX - 9);
    }

    #[test]
    fn retransmit_window_straddles_the_wrap_and_skips_burnt_numbers() {
        // Due from 1 s on: the request at 300 ms is in time for all.
        let mut tx = pcm_stream_delayed(None, SimDuration::from_secs(1));
        tx.stream.data_seq = u32::MAX - 5;
        stream(&mut tx, 4); // MAX-5 ..= MAX-2
        tx.crash();
        for _ in 0..3 {
            assert!(tx.pace(SimTime::from_millis(100), BLOCK).is_none()); // MAX-1, MAX, 0 burnt
        }
        assert!(tx.restart());
        stream(&mut tx, 4); // 1 ..= 4, sealed by 250 ms
        let mut out = Vec::new();
        let sent = tx.retransmit(SimTime::from_millis(300), &[(u32::MAX - 3, 8)], &mut out);
        assert_eq!(sent, 5);
        assert_eq!(data_seqs(&out), [u32::MAX - 3, u32::MAX - 2, 1, 2, 3]);
    }

    /// Offers `blocks` blocks in real time from `start`, one every
    /// [`BLOCK_TIME`], each sealed at its send time; returns the
    /// largest the cache grew after a seal.
    fn stream_live(tx: &mut StreamTx, start: SimTime, blocks: u64) -> usize {
        let mut out = Vec::new();
        let mut largest = 0;
        for i in 0..blocks {
            let mut block = tx.pace(start + BLOCK_TIME * i, BLOCK).expect("up");
            tx.encode(&[0; BLOCK], &mut block);
            tx.seal(block.send_at, block, &mut out);
            largest = largest.max(tx.recent.len());
        }
        largest
    }

    #[test]
    fn a_nack_after_the_deadline_sends_nothing() {
        // Sealed by 450 ms; block k is due at 200 + 50·k ms.
        let due = |k: u64| SimTime::from_millis(200 + 50 * k);
        let mut out = Vec::new();
        let mut tx = pcm_stream(None);
        stream(&mut tx, 12);
        let just_in_time = due(8) - SimDuration::from_micros(1);
        assert_eq!(tx.retransmit(just_in_time, &[(8, 1)], &mut out), 1);

        let mut tx = pcm_stream(None);
        stream(&mut tx, 12);
        assert_eq!(tx.retransmit(due(8), &[(8, 1)], &mut out), 0);
        assert_eq!(tx.stats.retransmits_sent, 0);
        assert_eq!(tx.stats.nacks_received, 1);
        // The rest of the range is still in time.
        assert_eq!(tx.retransmit(due(8), &[(8, 2)], &mut out), 1);
        assert_eq!(data_seqs(&out), [8, 9]);
        // A NACK after the newest block is due finds an empty cache.
        assert_eq!(tx.retransmit(due(11), &[(0, u16::MAX)], &mut out), 0);
        assert!(tx.recent.is_empty());
        assert_eq!(tx.stats.retransmits_sent, 1);
    }

    #[test]
    fn in_steady_state_the_cache_holds_what_is_not_yet_due() {
        for ms in [50, 200, 230, 1_000] {
            let playout = SimDuration::from_millis(ms);
            let mut tx = pcm_stream_delayed(None, playout);
            let largest = stream_live(&mut tx, SimTime::ZERO, 200);
            let bound = playout.as_nanos().div_ceil(BLOCK_TIME.as_nanos()) as usize + 1;
            assert!(largest <= bound, "{ms} ms: {largest} cached, bound {bound}");
            assert!(largest + 1 >= bound, "{ms} ms: only {largest} cached");
        }
    }

    #[test]
    fn a_playout_delay_longer_than_the_cap_keeps_the_newest_64() {
        let mut tx = pcm_stream_delayed(None, LONG_PLAYOUT);
        assert_eq!(stream_live(&mut tx, SimTime::ZERO, 200), RECENT_CACHE);
        let cached: Vec<u32> = tx.recent.iter().map(|(p, _)| p.seq).collect();
        assert_eq!(cached, (136..200).collect::<Vec<_>>());
    }
}
