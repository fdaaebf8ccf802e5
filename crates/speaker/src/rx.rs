//! The speaker's receive protocol, free of clocks and sockets:
//! everything an Ethernet Speaker decides from bytes and a timestamp —
//! the §5.1 authentication gate, §2.3's wait-for-control rule, the
//! §3.2 producer clock, duplicate suppression, FEC recovery, gap
//! detection with the NACK ledgers, reception quality, the counters.
//! A driver owns sockets, time, decoding and the audio device, and
//! steps the core one message at a time: [`SpeakerRx::admit`] a
//! datagram, parse each released message, [`SpeakerRx::on_packet`] it,
//! act on the [`RxEvent`]s. The simulator's [`crate::EthernetSpeaker`]
//! is one driver, `es_core::live` the other.

use bytes::Bytes;
use es_audio::AudioConfig;
use es_codec::CodecId;
use es_proto::auth::StreamVerifier;
use es_proto::{
    AuthTrailer, ControlPacket, DataPacket, FecRecoverer, Packet, ParityPacket, SessionPacket,
    StreamMonitor, TRAILER_LEN,
};
use es_sim::SimTime;
use es_telemetry::{Registry, Telemetry};

use crate::sync::ClockSync;

/// Observable speaker counters: the protocol's are kept by
/// [`SpeakerRx`], the playback outcomes are added by its driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeakerStats {
    /// Datagrams received on the tuned group.
    pub datagrams: u64,
    /// Packets that failed CRC/parse, or carried a timestamp no clock
    /// can represent.
    pub bad_packets: u64,
    /// Control packets absorbed.
    pub control_packets: u64,
    /// Data packets accepted for playback.
    pub data_packets: u64,
    /// Data packets that arrived before any control packet and were
    /// dropped (the §2.3 gating rule).
    pub dropped_waiting_control: u64,
    /// Data packets discarded as too late (§3.2).
    pub dropped_late: u64,
    /// Bytes dropped because the device ring was full (§3.1 overflow).
    pub dropped_overflow_bytes: u64,
    /// Payloads that failed codec decode.
    pub decode_errors: u64,
    /// Decode work units billed.
    pub decode_work_units: u64,
    /// Samples written to the audio device.
    pub samples_played: u64,
    /// Packets lost because the single-threaded player was busy and its
    /// receive queue was full (§3.4 serial mode only).
    pub dropped_busy: u64,
    /// Gap packets concealed by replaying faded audio (PLC extension).
    pub concealed_packets: u64,
    /// Packets reconstructed from XOR parity (FEC extension).
    pub fec_recovered: u64,
    /// Data packets suppressed because their sequence number already
    /// played — LAN duplicates, or an FEC copy of a packet that also
    /// arrived on its own.
    pub dropped_duplicate: u64,
    /// Times the device playback grid was flushed and re-anchored to
    /// the stream clock (§3.2's "throwing away data up until the
    /// current wall time").
    pub playback_resyncs: u64,
    /// Times a control-plane FLUSH re-gated playback (session mode).
    pub session_resyncs: u64,
    /// NACK retransmissions that landed in a hole this speaker
    /// reported missing (healing-plane refills).
    pub refills_received: u64,
    /// Refills that arrived past their original play deadline. Kept
    /// apart from `dropped_late`: the underlying loss was already
    /// counted when the gap was detected, so a late refill is a
    /// repair that missed its window, not a second failure — folding
    /// it into `deadline_misses` made each loss burst cost the heal
    /// detector an extra sick epoch (the "refill echo").
    pub refill_late: u64,
}

impl SpeakerStats {
    /// Counts a block discarded past its §3.2 deadline.
    pub fn note_late(&mut self, refill: bool) {
        if refill {
            self.refill_late += 1;
        } else {
            self.dropped_late += 1;
        }
    }
}

impl Telemetry for SpeakerStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("speaker");
        s.counter("datagrams", self.datagrams)
            .counter("bad_packets", self.bad_packets)
            .counter("control_packets", self.control_packets)
            .counter("data_packets", self.data_packets)
            .counter("dropped_waiting_control", self.dropped_waiting_control)
            .counter("deadline_misses", self.dropped_late)
            .counter("dropped_overflow_bytes", self.dropped_overflow_bytes)
            .counter("decode_errors", self.decode_errors)
            .counter("decode_work_units", self.decode_work_units)
            .counter("samples_played", self.samples_played)
            .counter("dropped_busy", self.dropped_busy)
            .counter("concealed_packets", self.concealed_packets)
            .counter("fec_recovered", self.fec_recovered)
            .counter("dropped_duplicate", self.dropped_duplicate)
            .counter("playback_resyncs", self.playback_resyncs)
            .counter("session_resyncs", self.session_resyncs)
            .counter("refills_received", self.refills_received)
            .counter("refill_late", self.refill_late);
    }
}

/// One data payload cleared for playback.
pub struct RxBlock {
    /// The still-encoded audio.
    pub payload: Bytes,
    /// The packet's codec byte, for [`SpeakerRx::codec_for`] at decode
    /// time (the stream may be reconfigured while a block waits).
    pub codec_wire: u8,
    /// The play deadline on the driver's clock.
    pub deadline: SimTime,
    /// This packet is a healing-plane refill of a reported gap; a late
    /// arrival counts as `refill_late`, not a fresh deadline miss.
    pub refill: bool,
    /// How many sequence numbers went missing right before this one
    /// (what a concealing driver papers over).
    pub gap: u32,
}

/// What one message made the speaker decide; the driver acts on these
/// in order before offering the next message.
pub enum RxEvent {
    /// Program the audio device with this stream format (§2.3: the
    /// configuration block needed to decode the stream): the first
    /// control packet since tuning, or one that changed the format.
    Configure(AudioConfig),
    /// Decode and play this block.
    Block(RxBlock),
    /// A control-plane packet for whoever runs the session (boxed:
    /// rare, and several times the size of everything else here).
    Session(Box<SessionPacket>),
    /// Parity arrived for a different group size (the healing plane
    /// changes the FEC level mid-stream); the recoverer was rebuilt.
    FecGroupChanged {
        /// The old group size.
        from: u8,
        /// The new one.
        to: u8,
    },
}

/// How many sequence numbers back a duplicate is still recognized. A
/// power of two, so residues run straight across the `u32` wrap.
const DEDUPE_WINDOW: u32 = 512;

/// The duplicate-suppression window: for each residue modulo
/// [`DEDUPE_WINDOW`], the sequence number most recently accepted in
/// that class. An entry is displaced only by a number a multiple of
/// the window away from it — for a stream advancing in order, the one
/// exactly `DEDUPE_WINDOW` older — so the filter is bounded, keeps
/// working across the sequence wrap, and a forged `seq` costs it one
/// entry rather than the window. The table grows to the highest class
/// seen, so a speaker that has heard forty packets does not carry 512
/// slots.
#[derive(Default)]
struct SeenSeqs(Vec<Option<u32>>);

impl SeenSeqs {
    /// Records `seq`; false if it is already in the window.
    fn insert(&mut self, seq: u32) -> bool {
        let class = (seq % DEDUPE_WINDOW) as usize;
        if self.0.len() <= class {
            self.0.resize(class + 1, None);
        }
        self.0[class].replace(seq) != Some(seq)
    }
}

/// Most missing-range entries a speaker holds pending retransmission.
const MAX_MISSING_RANGES: usize = 32;
/// Longest single missing range worth reporting (a jump bigger than
/// this is a stream restart, not a loss burst).
const MAX_MISSING_RANGE_LEN: u32 = 1_024;

/// A bounded ledger of sequence ranges `(first, count)`.
type Ranges = Vec<(u32, u16)>;

/// The oldest ranges fall off the front.
fn trim(ranges: &mut Ranges) {
    let excess = ranges.len().saturating_sub(MAX_MISSING_RANGES);
    ranges.drain(..excess);
}

/// Takes `seq` out of the first range of `ranges` that holds it — out
/// of every such range when `all` — shrinking or splitting the range,
/// and says whether one did. `scratch` is where the result is built.
fn take_seq(ranges: &mut Ranges, scratch: &mut Ranges, seq: u32, all: bool) -> bool {
    if ranges.is_empty() {
        return false;
    }
    scratch.clear();
    let mut hit = false;
    for &range in ranges.iter() {
        if hit && !all {
            scratch.push(range);
        } else {
            hit |= push_without(scratch, range, seq);
        }
    }
    std::mem::swap(ranges, scratch);
    trim(ranges);
    hit
}

/// Pushes what is left of the range `(first, count)` once `seq` is
/// taken out of it — the whole range when `seq` lies outside — and
/// says whether `seq` was inside. Offsets are wrapping, so a range may
/// straddle the `u32` sequence wrap.
fn push_without(out: &mut Ranges, (first, count): (u32, u16), seq: u32) -> bool {
    let off = seq.wrapping_sub(first);
    if off >= count as u32 {
        out.push((first, count));
        return false;
    }
    if off > 0 {
        out.push((first, off as u16));
    }
    let after = count as u32 - off - 1;
    if after > 0 {
        out.push((seq.wrapping_add(1), after as u16));
    }
    true
}

/// The receive half of an Ethernet Speaker as a state machine: bytes
/// and the driver's clock in, [`RxEvent`]s out.
#[derive(Default)]
pub struct SpeakerRx {
    /// See [`SpeakerStats`] for who counts what.
    pub stats: SpeakerStats,
    pub(crate) verifier: Option<StreamVerifier>,
    /// §2.3's gate and §3.2's clock in one: unsynchronized means no
    /// control packet has been heard since tuning.
    pub(crate) clock: ClockSync,
    stream_cfg: AudioConfig,
    /// The control packet's codec byte.
    codec_wire: u8,
    /// A [`RxEvent::Configure`] went out since the last tune.
    configured: bool,
    /// Reception-quality monitor (the §5.3 management numbers).
    pub(crate) monitor: StreamMonitor,
    /// FEC recovery state, created lazily on the first parity packet.
    fec: Option<FecRecoverer>,
    /// The duplicate-suppression filter.
    seen_seqs: SeenSeqs,
    /// Highest data sequence number seen (gap detection).
    last_seq: Option<u32>,
    /// Ranges detected missing and not yet naturally filled — the
    /// healing plane drains these into NACK retransmit requests.
    missing_ranges: Ranges,
    /// Ranges already handed out by [`SpeakerRx::take_missing_ranges`];
    /// a data packet landing inside one is a NACK refill.
    refill_expected: Ranges,
    ranges_scratch: Ranges,
}

impl SpeakerRx {
    /// A speaker that has heard nothing yet; `auth_anchor` is the
    /// optional §5.1 trust anchor enabling stream authentication.
    pub fn new(auth_anchor: Option<[u8; 32]>) -> Self {
        SpeakerRx {
            verifier: auth_anchor.map(StreamVerifier::new),
            ..Self::default()
        }
    }

    /// Forgets the stream: playback re-gates on the next control
    /// packet, exactly as a fresh tune-in would.
    fn regate(&mut self) {
        self.clock = ClockSync::new();
        self.last_seq = None;
        self.missing_ranges.clear();
        self.refill_expected.clear();
        self.seen_seqs.0.clear();
    }

    /// The driver switched channels: wait for the new stream's control
    /// packet, reconfigure the device on it, start FEC afresh.
    pub fn retune(&mut self) {
        self.regate();
        self.configured = false;
        self.fec = None;
    }

    /// Control-plane FLUSH: drop playback state and re-gate. The
    /// producer uses this to resynchronize a fleet after a seek or a
    /// stream restart.
    pub fn resync(&mut self) {
        self.regate();
        self.stats.session_resyncs += 1;
    }

    /// The stream format the latest control packet described.
    pub fn stream_config(&self) -> AudioConfig {
        self.stream_cfg
    }

    /// The codec a data packet's codec byte names — the stream's own
    /// when the byte is not a known codec.
    pub fn codec_for(&self, codec_wire: u8) -> CodecId {
        let known = CodecId::from_wire(codec_wire).or(CodecId::from_wire(self.codec_wire));
        known.unwrap_or(CodecId::Pcm)
    }

    /// Entries held by the bounded tables: missing ranges, expected
    /// refills, dedupe slots.
    pub fn table_sizes(&self) -> [usize; 3] {
        [
            self.missing_ranges.len(),
            self.refill_expected.len(),
            self.seen_seqs.0.len(),
        ]
    }

    /// Drains the missing-sequence ledger: ranges `(first, count)`
    /// detected as lost and which no late arrival has filled. Taking
    /// them resets the ledger so a range is reported once.
    pub fn take_missing_ranges(&mut self) -> Vec<(u32, u16)> {
        let ranges = std::mem::take(&mut self.missing_ranges);
        // The caller will NACK these; their refills are repairs, not
        // fresh deadline misses (the "refill echo").
        self.refill_expected.extend_from_slice(&ranges);
        trim(&mut self.refill_expected);
        ranges
    }

    // es-hot-path
    /// Counts a datagram and passes it through the §5.1 gate; yields
    /// the messages now cleared for parsing: on an open channel the
    /// datagram itself, on an authenticated one whatever its trailer's
    /// key disclosure released — nothing, or a batch of earlier ones.
    pub fn admit(&mut self, raw: &Bytes) -> impl Iterator<Item = Bytes> {
        self.stats.datagrams += 1;
        let open = self.verifier.is_none().then(|| raw.clone());
        let batch = self.verifier.as_mut().and_then(|verifier| {
            let body = raw.len().checked_sub(TRAILER_LEN).filter(|&n| n > 0)?;
            let (body, trailer) = raw.split_at(body);
            Some(verifier.offer(body, &AuthTrailer::decode(trailer)?).0)
        });
        if open.is_none() && batch.is_none() {
            self.stats.bad_packets += 1;
        }
        let batch = batch.into_iter().flatten().map(Bytes::from);
        open.into_iter().chain(batch)
    }

    /// Steps the protocol by one parsed message received at `now`.
    pub fn on_packet(&mut self, now: SimTime, pkt: Packet, events: &mut Vec<RxEvent>) {
        match pkt {
            Packet::Control(c) => self.on_control(now, c, events),
            Packet::Data(d) => {
                self.monitor.on_packet(d.seq, d.play_at_us, now.as_micros());
                // Feed the FEC tracker first: a recovered packet from an
                // earlier group plays like any other.
                let recovered = self.fec.as_mut().and_then(|f| f.on_data(&d));
                self.on_data(d, events);
                self.on_recovered(recovered, events);
            }
            Packet::Parity(p) => self.on_parity(p, events),
            Packet::Announce(_) => { /* catalog handled by es-core's browser */ }
            Packet::Session(sp) => events.push(RxEvent::Session(Box::new(sp))),
        }
    }

    fn on_control(&mut self, now: SimTime, c: ControlPacket, events: &mut Vec<RxEvent>) {
        if !self.clock.on_control(now, c.producer_time_us) {
            self.stats.bad_packets += 1;
            return;
        }
        self.stats.control_packets += 1;
        self.codec_wire = c.codec;
        if !self.configured || self.stream_cfg != c.config {
            self.configured = true;
            events.push(RxEvent::Configure(c.config));
        }
        self.stream_cfg = c.config;
    }

    fn on_parity(&mut self, p: ParityPacket, events: &mut Vec<RxEvent>) {
        // A parity packet with a different group size means the old
        // recoverer's partial state is for a dead layout.
        let group = self.fec.as_ref().map(|f| f.group());
        if let Some(from) = group.filter(|&group| group != p.count) {
            self.fec = None;
            events.push(RxEvent::FecGroupChanged { from, to: p.count });
        }
        let fec = self.fec.get_or_insert_with(|| FecRecoverer::new(p.count));
        let recovered = fec.on_parity(&p);
        self.on_recovered(recovered, events);
    }

    fn on_recovered(&mut self, recovered: Option<DataPacket>, events: &mut Vec<RxEvent>) {
        if let Some(r) = recovered {
            self.stats.fec_recovered += 1;
            self.on_data(r, events);
        }
    }

    fn on_data(&mut self, d: DataPacket, events: &mut Vec<RxEvent>) {
        // §2.3: no control packet yet means the stream cannot be
        // decoded — wait, do not guess.
        if !self.clock.is_synced() {
            self.stats.dropped_waiting_control += 1;
            return;
        }
        let Some(deadline) = self.clock.to_local(d.play_at_us) else {
            self.stats.bad_packets += 1;
            return;
        };
        // Duplicate suppression: a sequence number that already went to
        // playback must never play twice, whether the copy came from
        // the LAN's duplication impairment or from FEC recovering a
        // packet that also arrived on its own.
        if !self.seen_seqs.insert(d.seq) {
            self.stats.dropped_duplicate += 1;
            return;
        }
        // A sequence number inside a range we handed to the healing
        // plane is its NACK retransmission coming back; consuming it
        // keeps a LAN duplicate of the refill from counting twice.
        let scratch = &mut self.ranges_scratch;
        let refill = take_seq(&mut self.refill_expected, scratch, d.seq, false);
        if refill {
            self.stats.refills_received += 1;
        }
        // The wire `seq` is unauthenticated and wraps, so "ahead of"
        // is the sign of the wrapping difference (serial-number
        // arithmetic), never `last + 1`: a forged `u32::MAX` must
        // neither overflow nor pin `last_seq` for good.
        let ahead = self
            .last_seq
            .map_or(0, |last| d.seq.wrapping_sub(last) as i32);
        let gap = (ahead.max(1) - 1) as u32;
        if (1..=MAX_MISSING_RANGE_LEN).contains(&gap) {
            // The `gap` sequence numbers just before this one.
            self.missing_ranges
                .push((d.seq.wrapping_sub(gap), gap as u16));
            trim(&mut self.missing_ranges);
        }
        if ahead >= 0 {
            self.last_seq = Some(d.seq);
        } else {
            // A late arrival (reorder, FEC recovery or a healing-plane
            // retransmission) fills a hole we may have NACKed.
            take_seq(&mut self.missing_ranges, scratch, d.seq, true);
        }
        events.push(RxEvent::Block(RxBlock {
            payload: d.payload,
            codec_wire: d.codec,
            deadline,
            refill,
            gap,
        }));
    }
    // es-hot-path-end
}
