//! The speaker's receive protocol, free of clocks and sockets:
//! everything an Ethernet Speaker decides from bytes and a timestamp —
//! the §5.1 authentication gate, §2.3's wait-for-control rule, the
//! §3.2 producer clock, duplicate suppression, FEC recovery, the hole
//! table that times loss repair by each block's own deadline,
//! reception quality, the counters. A driver owns sockets, time,
//! decoding and the audio device, and steps the core one message at a
//! time: [`SpeakerRx::admit`] a datagram, parse each released message,
//! [`SpeakerRx::on_packet`] it, act on the [`RxEvent`]s — and, while
//! [`SpeakerRx::next_wakeup`] names an instant, [`SpeakerRx::poll`] at
//! it. The simulator's [`crate::EthernetSpeaker`] is one driver,
//! `es_core::live` the other.

use std::collections::VecDeque;

use bytes::Bytes;
use es_audio::AudioConfig;
use es_codec::CodecId;
use es_proto::auth::StreamVerifier;
use es_proto::{
    AuthTrailer, ControlPacket, DataPacket, FecRecoverer, Packet, ParityPacket, SessionPacket,
    StreamMonitor, MAX_NACK_RANGES, TRAILER_LEN,
};
use es_sim::{SimDuration, SimTime};
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
    /// Faded replicas written in place of blocks still missing when
    /// they were due (PLC extension).
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
    /// NACK retransmissions that landed in a hole this speaker had
    /// asked for (refills).
    pub refills_received: u64,
    /// Refills that arrived after their block was due. Kept apart
    /// from `dropped_late`: the loss was already counted when the hole
    /// opened, so a late refill is a repair that missed its window,
    /// not a second failure — folded into `deadline_misses` it cost
    /// the heal detector an extra sick epoch per loss burst (the
    /// "refill echo").
    pub refill_late: u64,
    /// NACK datagrams sent to the stream's source (the driver counts
    /// what it sends).
    pub nacks_sent: u64,
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
        // Repair traffic is listed once there is some: a speaker that
        // never asks reads exactly like one that cannot.
        if self.nacks_sent > 0 {
            s.counter("nacks_sent", self.nacks_sent);
        }
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
    /// This packet is the refill of a hole the speaker asked for; a
    /// late one counts as `refill_late`, not a fresh deadline miss.
    pub refill: bool,
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
    /// Ask the producer for these `(first_seq, count)` ranges again:
    /// holes no reordered packet filled within the hold-off, at most
    /// [`MAX_NACK_RANGES`] of them (what one NACK packet carries; the
    /// rest are asked for at the next poll). Boxed to the size of the
    /// other events: every packet's `Block` is moved as one of these.
    Nack(Box<[(u32, u16)]>),
    /// Nothing repaired the block that is due at `deadline`: play a
    /// replica of the last block instead, faded for the `nth` missing
    /// block in a row (from 1; a longer run than three goes silent and
    /// is not reported).
    Conceal {
        /// When the missing block was due, on the driver's clock.
        deadline: SimTime,
        /// Its position in the run of blocks concealed back to back.
        nth: u32,
    },
    /// A copy of a block arrived after the block was due, and possibly
    /// concealed: count it, play nothing.
    Late {
        /// When the block was due.
        deadline: SimTime,
        /// The speaker had asked for it (see [`RxBlock::refill`]).
        refill: bool,
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

/// Longest sequence jump read as a loss burst; a bigger one is a
/// stream restart and opens no holes.
const MAX_MISSING_RANGE_LEN: u32 = 1_024;
/// Most holes held open, and most settled ones remembered; the oldest
/// fall off. The producer's retransmit cache is as long, so a hole
/// that falls off could not have been refilled anyway.
const MAX_HOLES: usize = 64;
/// How long a hole waits for a reordered packet to fill it before the
/// speaker asks for it.
const NACK_HOLDOFF: SimDuration = SimDuration::from_millis(20);
/// How long after asking the refill is given before the hole is asked
/// for once more. Longer than the producer's `REPAIR_HOLDOFF`, so the
/// second request is always served.
pub const NACK_REASK: SimDuration = SimDuration::from_millis(40);
/// Requests per hole: the NACK and one re-ask for a lost refill.
const MAX_ASKS: u8 = 2;
/// A refill takes a LAN round trip; a hole due sooner than this is
/// not asked for.
const REPAIR_ROUND_TRIP: SimDuration = SimDuration::from_millis(5);
/// Missing blocks in a row that get a replica; the fade has reached
/// 0.6³ by then and the rest of the run is left silent.
const MAX_CONCEALED_RUN: u32 = 3;

/// One block known to be missing and not yet due.
struct Hole {
    seq: u32,
    /// When it is due on the driver's clock, interpolated between the
    /// deadlines of the packets either side of the gap.
    deadline: SimTime,
    /// When to ask for it (again); `None` when it will not be.
    ask_at: Option<SimTime>,
    /// Requests sent so far.
    asks: u8,
}

// es-hot-path
/// Adds `seq` to the `(first, count)` ranges of a NACK being built,
/// growing the last range when `seq` follows it; false when that
/// would take one range more than [`MAX_NACK_RANGES`].
fn add_to_ranges(ranges: &mut Vec<(u32, u16)>, seq: u32) -> bool {
    if let Some((first, count)) = ranges.last_mut() {
        if first.wrapping_add(u32::from(*count)) == seq && *count < u16::MAX {
            *count += 1;
            return true;
        }
    }
    if ranges.len() == MAX_NACK_RANGES {
        return false;
    }
    ranges.push((seq, 1));
    true
}
// es-hot-path-end

/// What a speaker that repairs its losses knows about them. A speaker
/// that neither conceals nor NACKs has none (and pays for none: the
/// table is boxed off the per-packet state).
#[derive(Default)]
struct HoleTable {
    /// The driver plays a replica for a block still missing when due.
    conceal: bool,
    /// The driver has somewhere to send a NACK.
    nack: bool,
    /// Blocks known missing and not yet due, oldest first.
    holes: VecDeque<Hole>,
    /// Holes that came due unrepaired, and whether they had been asked
    /// for: a copy arriving now is late, whatever the clock says — its
    /// replica has played.
    settled: VecDeque<(u32, bool)>,
    /// The sequence number that would extend the current run of
    /// concealed blocks, and the run's length.
    concealed_run: (u32, u32),
}

impl HoleTable {
    // es-hot-path
    /// The stream is gone, and every hole in it.
    fn forget(&mut self) {
        self.holes.clear();
        self.settled.clear();
        self.concealed_run = (0, 0);
    }

    /// Opens a hole for each of the `gap` sequence numbers before
    /// `seq` — the newest [`MAX_HOLES`] of them, unless the jump is a
    /// stream restart — due at even steps between the deadlines
    /// `before` and `after` of the packets either side (a producer
    /// that burnt numbers while it was down kept its stream clock
    /// running, so the steps still fit).
    fn open(&mut self, now: SimTime, seq: u32, gap: u32, before: SimTime, after: SimTime) {
        if gap > MAX_MISSING_RANGE_LEN {
            return;
        }
        let span = u128::from(after.saturating_since(before).as_nanos());
        let ask_at = self.nack.then(|| now.saturating_add(NACK_HOLDOFF));
        for k in gap.saturating_sub(MAX_HOLES as u32) + 1..=gap {
            let into = span * u128::from(k) / (u128::from(gap) + 1);
            self.holes.push_back(Hole {
                seq: seq.wrapping_sub(gap - k + 1),
                deadline: before.saturating_add(SimDuration::from_nanos(into as u64)),
                ask_at,
                asks: 0,
            });
        }
        let excess = self.holes.len().saturating_sub(MAX_HOLES);
        self.holes.drain(..excess);
    }

    /// A late arrival — reordered, recovered by FEC or sent again on
    /// request — closes its hole, open or settled; says whether the
    /// speaker had asked for it, and whether it is late: a copy of a
    /// settled hole is, by definition — the speaker has played (or
    /// skipped) that block.
    fn close(&mut self, seq: u32) -> (bool, bool) {
        let open = self.holes.iter().position(|h| h.seq == seq);
        let settled = self.settled.iter().position(|&(s, _)| s == seq);
        let asked = match (open, settled) {
            (Some(i), _) => self.holes.remove(i).is_some_and(|h| h.asks > 0),
            (None, Some(i)) => self.settled.remove(i).is_some_and(|(_, asked)| asked),
            (None, None) => false,
        };
        (asked, open.is_none() && settled.is_some())
    }

    /// The earliest instant a hole is to be asked for or comes due.
    fn next_wakeup(&self) -> Option<SimTime> {
        let next = |h: &Hole| h.ask_at.map_or(h.deadline, |at| at.min(h.deadline));
        self.holes.iter().map(next).min()
    }

    // es-hot-path-end

    /// See [`SpeakerRx::poll`].
    fn poll(&mut self, now: SimTime, events: &mut Vec<RxEvent>) {
        // The ranges to ask for; nothing is allocated until there is
        // one, and then the event owns them.
        let mut nack = Vec::new();
        // es-hot-path
        let (conceal, run) = (self.conceal, &mut self.concealed_run);
        let settled = &mut self.settled;
        self.holes.retain_mut(|h| {
            if h.deadline <= now {
                settled.push_back((h.seq, h.asks > 0));
                let nth = if run.0 == h.seq {
                    run.1.saturating_add(1)
                } else {
                    1
                };
                *run = (h.seq.wrapping_add(1), nth);
                if conceal && nth <= MAX_CONCEALED_RUN {
                    let deadline = h.deadline;
                    events.push(RxEvent::Conceal { deadline, nth });
                }
                return false;
            }
            if h.ask_at.is_some_and(|at| at <= now) {
                if now.saturating_add(REPAIR_ROUND_TRIP) > h.deadline {
                    h.ask_at = None;
                } else if add_to_ranges(&mut nack, h.seq) {
                    h.asks += 1;
                    h.ask_at = (h.asks < MAX_ASKS).then(|| now.saturating_add(NACK_REASK));
                }
            }
            true
        });
        let excess = settled.len().saturating_sub(MAX_HOLES);
        settled.drain(..excess);
        // es-hot-path-end
        if !nack.is_empty() {
            events.push(RxEvent::Nack(nack.into_boxed_slice()));
        }
    }
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
    /// The newest data packet seen and its play deadline (gap
    /// detection, and one end of a hole's interpolated deadline).
    last: Option<(u32, SimTime)>,
    /// The hole table, once the driver conceals or can NACK.
    repair: Option<Box<HoleTable>>,
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

    /// The driver conceals: a hole still open when its block is due
    /// becomes an [`RxEvent::Conceal`].
    pub fn conceal_losses(&mut self) {
        self.repair.get_or_insert_default().conceal = true;
    }

    /// The driver can reach the producer: a hole that outlives the
    /// reorder hold-off becomes an [`RxEvent::Nack`].
    pub fn request_repairs(&mut self) {
        self.repair.get_or_insert_default().nack = true;
    }

    /// Forgets the stream: playback re-gates on the next control
    /// packet, exactly as a fresh tune-in would.
    fn regate(&mut self) {
        self.clock = ClockSync::new();
        self.last = None;
        if let Some(table) = &mut self.repair {
            table.forget();
        }
        self.seen_seqs.0.clear();
    }

    /// The driver switched channels: wait for the new stream's control
    /// packet, reconfigure the device on it, start FEC and the quality
    /// monitor's sequence afresh.
    pub fn retune(&mut self) {
        self.regate();
        self.configured = false;
        self.fec = None;
        self.monitor.restart_stream();
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

    /// Entries held by the bounded tables: open holes, settled holes,
    /// dedupe slots.
    pub fn table_sizes(&self) -> [usize; 3] {
        let table = self.repair.as_deref();
        let (holes, settled) = table.map_or((0, 0), |t| (t.holes.len(), t.settled.len()));
        [holes, settled, self.seen_seqs.0.len()]
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
                self.on_data(now, d, false, events);
                self.on_recovered(now, recovered, events);
            }
            Packet::Parity(p) => self.on_parity(now, p, events),
            Packet::Announce(_) => { /* catalog handled by es-core's browser */ }
            Packet::Session(sp) => events.push(RxEvent::Session(Box::new(sp))),
            // Another speaker's request, or a forger's: a speaker
            // serves nobody.
            Packet::Nack { .. } => {}
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

    fn on_parity(&mut self, now: SimTime, p: ParityPacket, events: &mut Vec<RxEvent>) {
        // A parity packet with a different group size means the old
        // recoverer's partial state is for a dead layout.
        let group = self.fec.as_ref().map(|f| f.group());
        if let Some(from) = group.filter(|&group| group != p.count) {
            self.fec = None;
            events.push(RxEvent::FecGroupChanged { from, to: p.count });
        }
        let fec = self.fec.get_or_insert_with(|| FecRecoverer::new(p.count));
        let recovered = fec.on_parity(&p);
        self.on_recovered(now, recovered, events);
    }

    fn on_recovered(
        &mut self,
        now: SimTime,
        recovered: Option<DataPacket>,
        events: &mut Vec<RxEvent>,
    ) {
        if let Some(r) = recovered {
            self.stats.fec_recovered += 1;
            self.on_data(now, r, true, events);
        }
    }

    fn on_data(&mut self, now: SimTime, d: DataPacket, via_fec: bool, events: &mut Vec<RxEvent>) {
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
        // The wire `seq` is unauthenticated and wraps, so "ahead of"
        // is the sign of the wrapping difference (serial-number
        // arithmetic), never `last + 1`: a forged `u32::MAX` must
        // neither overflow nor pin `last` for good.
        let ahead = self
            .last
            .map_or(0, |(last, _)| d.seq.wrapping_sub(last) as i32);
        let mut refill = false;
        if ahead < 0 {
            // A late arrival closes its hole, if the speaker keeps any.
            let (asked, late) = self
                .repair
                .as_mut()
                .map_or((false, false), |t| t.close(d.seq));
            refill = asked && !via_fec;
            self.stats.refills_received += u64::from(refill);
            if late {
                events.push(RxEvent::Late { deadline, refill });
                return;
            }
        } else {
            let gap = (ahead.max(1) - 1) as u32;
            if let (Some((_, before)), Some(table)) =
                (self.last.filter(|_| gap > 0), &mut self.repair)
            {
                table.open(now, d.seq, gap, before, deadline);
            }
            self.last = Some((d.seq, deadline));
        }
        events.push(RxEvent::Block(RxBlock {
            payload: d.payload,
            codec_wire: d.codec,
            deadline,
            refill,
        }));
    }

    // es-hot-path-end

    /// When [`SpeakerRx::poll`] next has something to do: the earliest
    /// instant an open hole is to be asked for or comes due.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.repair.as_ref()?.next_wakeup()
    }

    /// Steps the hole table to `now`: a hole that has outlived the
    /// reorder hold-off is asked for, once more if the refill does not
    /// come either and a round trip still fits before the deadline; a
    /// hole still open when its block is due is settled — concealed,
    /// if the driver conceals. Work is bounded by the table.
    pub fn poll(&mut self, now: SimTime, events: &mut Vec<RxEvent>) {
        if let Some(table) = &mut self.repair {
            table.poll(now, events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_proto::{encode_control, encode_data};

    /// A speaker that conceals and NACKs, synchronized at time zero
    /// (producer and local clocks agree).
    fn repairing() -> SpeakerRx {
        let mut rx = SpeakerRx::new(None);
        rx.conceal_losses();
        rx.request_repairs();
        tune(&mut rx, SimTime::ZERO);
        rx
    }

    fn tune(rx: &mut SpeakerRx, now: SimTime) {
        let control = encode_control(&ControlPacket {
            stream_id: 1,
            seq: 0,
            producer_time_us: now.as_micros(),
            config: AudioConfig::CD,
            codec: 0,
            quality: 0,
            control_interval_ms: 500,
            flags: 0,
        });
        offer(rx, now, control);
    }

    /// Data packet `seq`, due at `due_ms`, arriving `now`; what it made
    /// the protocol decide.
    fn data(rx: &mut SpeakerRx, now: SimTime, seq: u32, due_ms: u64) -> Vec<RxEvent> {
        offer(
            rx,
            now,
            encode_data(&DataPacket {
                stream_id: 1,
                seq,
                play_at_us: due_ms * 1_000,
                codec: 0,
                payload: Bytes::from(vec![0u8; 8]),
            }),
        )
    }

    fn offer(rx: &mut SpeakerRx, now: SimTime, raw: Bytes) -> Vec<RxEvent> {
        let mut events = Vec::new();
        rx.on_packet(
            now,
            es_proto::decode(&raw).expect("own packet"),
            &mut events,
        );
        events
    }

    fn poll(rx: &mut SpeakerRx, now: SimTime) -> Vec<RxEvent> {
        let mut events = Vec::new();
        rx.poll(now, &mut events);
        events
    }

    fn nacks(events: &[RxEvent]) -> Vec<Vec<(u32, u16)>> {
        let ranges = |e: &RxEvent| match e {
            RxEvent::Nack(ranges) => Some(ranges.to_vec()),
            _ => None,
        };
        events.iter().filter_map(ranges).collect()
    }

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn resync_and_retune_drop_every_hole_and_pending_nack() {
        for forget in [SpeakerRx::resync, SpeakerRx::retune] {
            let mut rx = repairing();
            data(&mut rx, MS(0), 10, 300);
            data(&mut rx, MS(0), 12, 400);
            assert_eq!(nacks(&poll(&mut rx, MS(20))), [vec![(11, 1)]]);
            assert_eq!(nacks(&poll(&mut rx, MS(60))), [vec![(11, 1)]]);
            let events = poll(&mut rx, MS(350));
            assert!(matches!(events[..], [RxEvent::Conceal { nth: 1, .. }]));
            data(&mut rx, MS(360), 15, 550);
            assert_eq!(nacks(&poll(&mut rx, MS(380))), [vec![(13, 2)]]);
            // One hole is settled, two are open with a re-ask pending.
            assert_eq!(rx.table_sizes()[..2], [2, 1]);
            assert_eq!(rx.next_wakeup(), Some(MS(420)));

            forget(&mut rx);
            assert_eq!(rx.table_sizes(), [0, 0, 0]);
            assert_eq!(rx.next_wakeup(), None);
            assert!(poll(&mut rx, MS(10_000)).is_empty(), "nothing re-asked");
            // The old stream's numbers mean nothing to the new one: no
            // hole between 15 and 13, no refill, nothing late.
            tune(&mut rx, MS(10_000));
            let events = data(&mut rx, MS(10_000), 13, 10_300);
            assert!(matches!(
                events[..],
                [RxEvent::Block(RxBlock { refill: false, .. })]
            ));
            assert_eq!(rx.table_sizes()[..2], [0, 0]);
            assert_eq!(rx.stats.refills_received, 0);
        }
    }

    #[test]
    fn a_channel_switch_is_neither_loss_nor_reordering() {
        // Music at seq 1000, an announcement from seq 0, music again
        // having moved on while the speaker was away.
        let mut rx = repairing();
        let mut now = 0;
        let mut play = |rx: &mut SpeakerRx, seqs: std::ops::Range<u32>| {
            tune(rx, MS(now));
            for seq in seqs {
                now += 50;
                data(rx, MS(now), seq, now + 200);
            }
        };
        play(&mut rx, 1_000..1_010);
        rx.retune();
        play(&mut rx, 0..10);
        rx.retune();
        play(&mut rx, 1_030..1_040);
        let q = rx.monitor.report();
        assert_eq!((q.received, q.lost, q.reordered), (30, 0, 0), "{q:?}");
        // A FLUSH keeps the stream: a gap after it is still loss.
        rx.resync();
        play(&mut rx, 1_041..1_042);
        assert_eq!(rx.monitor.report().lost, 1);
    }

    #[test]
    fn holes_and_nack_ranges_are_right_across_the_sequence_wrap() {
        let mut rx = repairing();
        // MAX-2 then 3: MAX-1, MAX, 0, 1, 2 are missing, due at even
        // steps between the two deadlines.
        data(&mut rx, MS(0), u32::MAX - 2, 300);
        data(&mut rx, MS(1), 3, 600);
        assert_eq!(rx.table_sizes()[0], 5);
        assert_eq!(rx.next_wakeup(), Some(MS(21)));
        // One range, straddling the wrap.
        assert_eq!(nacks(&poll(&mut rx, MS(21))), [vec![(u32::MAX - 1, 5)]]);
        // The refill of 0 closes its hole and splits the range the
        // re-ask names.
        let events = data(&mut rx, MS(30), 0, 450);
        assert!(matches!(
            events[..],
            [RxEvent::Block(RxBlock { refill: true, .. })]
        ));
        assert_eq!(
            nacks(&poll(&mut rx, MS(61))),
            [vec![(u32::MAX - 1, 2), (1, 2)]]
        );
        // Unrepaired, they come due in order, each at its own step,
        // and the run restarts after the block that did arrive.
        let mut due = Vec::new();
        for at in (300..=600).step_by(10) {
            for event in poll(&mut rx, MS(at)) {
                match event {
                    RxEvent::Conceal { deadline, nth } => due.push((at, deadline, nth)),
                    _ => panic!("asked twice already"),
                }
            }
        }
        let want = [(350, 1), (400, 2), (500, 1), (550, 2)].map(|(ms, nth)| (ms, MS(ms), nth));
        assert_eq!(due, want);
        assert_eq!(rx.table_sizes()[..2], [0, 4]);
        // A copy of a settled one is late; it was asked for, so it is
        // a refill that missed.
        let events = data(&mut rx, MS(610), u32::MAX, 400);
        assert!(matches!(events[..], [RxEvent::Late { refill: true, .. }]));
        assert_eq!((rx.stats.refills_received, rx.table_sizes()[1]), (2, 3));
    }

    #[test]
    fn fec_recovering_an_asked_for_hole_is_not_a_refill() {
        use es_proto::{encode_parity, ParityAccumulator};
        let mut rx = repairing();
        let packet = |seq: u32| DataPacket {
            stream_id: 1,
            seq,
            play_at_us: 300_000 + u64::from(seq) * 50_000,
            codec: 0,
            payload: Bytes::from(vec![seq as u8; 8]),
        };
        // Group [4, 8) loses seq 5; the speaker has asked for it by the
        // time the group's parity rebuilds it.
        let mut acc = ParityAccumulator::new(4);
        let mut parity = None;
        for seq in 0..8 {
            parity = acc.absorb(&packet(seq)).or(parity);
            if seq == 3 {
                offer(
                    &mut rx,
                    MS(0),
                    encode_parity(&parity.take().expect("group done")),
                );
            }
            if seq != 5 {
                offer(&mut rx, MS(0), encode_data(&packet(seq)));
            }
        }
        assert_eq!(nacks(&poll(&mut rx, MS(20))), [vec![(5, 1)]]);
        let events = offer(&mut rx, MS(25), encode_parity(&parity.expect("group done")));
        assert!(matches!(
            events[..],
            [RxEvent::Block(RxBlock { refill: false, .. })]
        ));
        assert_eq!((rx.stats.fec_recovered, rx.stats.refills_received), (1, 0));
        assert_eq!((rx.table_sizes()[0], rx.next_wakeup()), (0, None));
        // The refill it asked for is a duplicate now.
        assert!(offer(&mut rx, MS(26), encode_data(&packet(5))).is_empty());
        assert_eq!(
            (rx.stats.dropped_duplicate, rx.stats.refills_received),
            (1, 0)
        );
    }

    #[test]
    fn a_hole_too_close_to_its_deadline_is_not_asked_for() {
        let mut rx = repairing();
        data(&mut rx, MS(0), 1, 10);
        // Seq 2 is due 23 ms after the gap shows: the hold-off leaves
        // 3 ms, less than a round trip.
        data(&mut rx, MS(0), 3, 36);
        assert_eq!(rx.next_wakeup(), Some(MS(20)));
        assert!(poll(&mut rx, MS(20)).is_empty());
        assert_eq!(rx.next_wakeup(), Some(MS(23)));
        let events = poll(&mut rx, MS(23));
        assert!(matches!(events[..], [RxEvent::Conceal { nth: 1, .. }]));
        // Nobody asked, so a copy now is a plain late packet.
        let events = data(&mut rx, MS(24), 2, 23);
        assert!(matches!(events[..], [RxEvent::Late { refill: false, .. }]));
        assert_eq!(rx.stats.refills_received, 0);
    }
}
