//! The speaker's receive protocol, free of clocks and sockets:
//! everything an Ethernet Speaker decides from bytes and a timestamp —
//! the §5.1 authentication gate, §2.3's wait-for-control rule, the
//! §3.2 producer clock, duplicate suppression, FEC recovery, the hole
//! table that times loss repair by each block's own deadline,
//! reception quality, the counters. It is the receive half of
//! [`SpeakerNode`]: [`SpeakerNode::on_datagram`] admits a datagram,
//! parses each message the gate releases and steps the protocol with
//! it, and each decision — a block to play, a late copy, a NACK, a
//! replica — is carried out where the protocol makes it. The hole
//! table is polled at the instants it asks for, through the node's
//! wakeups.

use std::collections::VecDeque;

use bytes::Bytes;
use es_audio::AudioConfig;
use es_codec::CodecId;
use es_proto::auth::StreamVerifier;
use es_proto::fec::group_base;
use es_proto::{
    encode_nack, AuthTrailer, ControlPacket, DataPacket, FecRecoverer, Packet, ParityPacket,
    MAX_NACK_RANGES, TRAILER_LEN,
};
use es_sim::{SimDuration, SimTime};
use es_telemetry::{Registry, Severity, Telemetry};

use crate::node::{Action, Decoder, SpeakerNode};
use crate::sync::ClockSync;

/// Observable speaker counters: [`SpeakerNode`] keeps the protocol's
/// and the playback outcomes, its adapter adds what the device did
/// (samples played, ring overflow, grid resyncs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Packets lost because the receive buffer was full: the
    /// single-threaded player was busy and its queue full (§3.4 serial
    /// mode), or more blocks were waiting for their deadlines than the
    /// speaker holds (the one due last is dropped).
    pub dropped_busy: u64,
    /// Faded replicas written in place of blocks still missing when
    /// they were due (PLC extension).
    pub concealed_packets: u64,
    /// OVL blocks played with their head faded in: the block before
    /// them, which their first windows lap, was not held when they
    /// played (lost, or the first since joining). Not concealment: the
    /// block itself played.
    pub faded_heads: u64,
    /// Packets reconstructed from XOR parity (FEC extension).
    pub fec_recovered: u64,
    /// FEC groups with a data packet that came due before it arrived,
    /// was rebuilt or was refilled; one per group, counted by the hole
    /// table when it settles the packet's hole. On a speaker that
    /// neither conceals nor NACKs, a packet comes due once §3.2's
    /// epsilon has passed too, as until then a copy still plays.
    pub fec_unrecoverable: u64,
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
    /// NACK datagrams sent to the stream's source (the node counts what
    /// it asks its adapter to send).
    pub nacks_sent: u64,
    /// Sequence numbers the stream advanced over: each new highest
    /// number adds its distance from the last (the first one after a
    /// re-gate, or a restart, adds one). The §5.3 loss fraction is
    /// `quality_lost` over this.
    pub quality_expected: u64,
    /// Of those, numbers no original packet arrived for: the link's
    /// loss, whether or not FEC or a refill repaired it afterwards.
    pub quality_lost: u64,
    /// Original packets that arrived behind a higher number; each was
    /// counted lost when the gap opened and is moved here.
    pub quality_reordered: u64,
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
            .counter("refill_late", self.refill_late)
            .counter("quality_expected", self.quality_expected)
            .counter("quality_lost", self.quality_lost)
            .counter("quality_reordered", self.quality_reordered);
        // Repair traffic is listed once there is some: a speaker that
        // never asks reads exactly like one that cannot.
        if self.nacks_sent > 0 {
            s.counter("nacks_sent", self.nacks_sent);
        }
        // Likewise the FEC groups that lost a block: a clean run lists
        // none.
        if self.fec_unrecoverable > 0 {
            s.counter("fec_unrecoverable", self.fec_unrecoverable);
        }
        // And faded heads: a stream of a codec that does not lap has
        // none.
        if self.faded_heads > 0 {
            s.counter("faded_heads", self.faded_heads);
        }
    }
}

/// One data payload cleared for playback.
pub(crate) struct RxBlock {
    /// The still-encoded audio.
    pub(crate) payload: Bytes,
    /// The packet's codec byte, for [`SpeakerNode::codec_for`] at
    /// decode time (the stream may be reconfigured while a block
    /// waits).
    pub(crate) codec_wire: u8,
    /// The play deadline on the adapter's clock.
    pub(crate) deadline: SimTime,
    /// This packet is the refill of a hole the speaker asked for; a
    /// late one counts as `refill_late`, not a fresh deadline miss.
    pub(crate) refill: bool,
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

    /// Whether `seq` is in the window.
    fn contains(&self, seq: u32) -> bool {
        self.0.get((seq % DEDUPE_WINDOW) as usize) == Some(&Some(seq))
    }
}

/// RFC 3550 §6.4.1 interarrival jitter: `J += (|D| − J) / 16`, with
/// `D` the change in transit (arrival minus producer timestamp)
/// between consecutive packets.
#[derive(Default)]
struct Jitter {
    us: f64,
    last_transit_us: Option<i64>,
}

impl Jitter {
    fn on_arrival(&mut self, now: SimTime, play_at_us: u64) {
        // The timestamp is wire input; wrapping keeps a forged one a
        // wrong number instead of an overflow.
        let transit = (now.as_micros() as i64).wrapping_sub(play_at_us as i64);
        if let Some(last) = self.last_transit_us.replace(transit) {
            let d = transit.wrapping_sub(last).unsigned_abs() as f64;
            self.us += (d - self.us) / 16.0;
        }
    }
}

/// Longest sequence jump read as a loss burst; a bigger one, either
/// way, is a stream restart: it opens no holes and counts no loss.
const MAX_MISSING_RANGE_LEN: u32 = 1_024;
/// Most holes held open, and most settled ones remembered; the oldest
/// fall off. The producer keeps a packet for repair only until it is
/// due — 64 at most, about 5 at the defaults — so a hole that falls
/// off could not have been refilled anyway.
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
    /// When it is due on the adapter's clock, interpolated between the
    /// deadlines of the packets either side of the gap; past §3.2's
    /// epsilon as well when the table only counts (see
    /// `HoleTable::open`).
    deadline: SimTime,
    /// When to ask for it (again); `None` when it will not be.
    ask_at: Option<SimTime>,
    /// Requests sent so far.
    asks: u8,
    /// The FEC group size it opened under, once the producer has
    /// changed it: its group is counted on that grid.
    fec_group: Option<u8>,
}

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

/// What a speaker that repairs or counts its losses knows about them.
/// A speaker that neither conceals, NACKs nor keeps FEC has none (and
/// pays for none: the table is boxed off the per-packet state).
#[derive(Default)]
struct HoleTable {
    /// The speaker plays a replica for a block still missing when due.
    conceal: bool,
    /// The speaker asks for the blocks it misses.
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
    /// §3.2's epsilon: how late a block may still arrive and play.
    /// Set by the FEC recoverer's parity packets, the one user.
    epsilon: SimDuration,
    /// The FEC group a hole last settled in, its first seq and size:
    /// holes settle in seq order, so a group counts once.
    lost_group: Option<(u32, u8)>,
}

impl HoleTable {
    /// Whether the speaker acts on its holes: conceals them or asks
    /// for them. A table that does neither only counts.
    fn repairs(&self) -> bool {
        self.conceal || self.nack
    }

    /// The stream is gone, and every hole in it.
    fn forget(&mut self) {
        self.holes.clear();
        self.settled.clear();
        self.concealed_run = (0, 0);
        self.lost_group = None;
    }

    /// Opens a hole for each of the `gap` sequence numbers before
    /// `seq` — the newest [`MAX_HOLES`] of them — due at even steps
    /// between the deadlines `before` and `after` of the packets
    /// either side (a producer that burnt numbers while it was down
    /// kept its stream clock running, so the steps still fit). The
    /// speaker that repairs settles a hole at that deadline: a replica
    /// plays then, and a copy after it is late by definition. A table
    /// that only counts leaves a late copy to §3.2's rule, which plays
    /// it up to epsilon late, so its hole settles just after that.
    fn open(&mut self, now: SimTime, seq: u32, gap: u32, before: SimTime, after: SimTime) {
        let span = u128::from(after.saturating_since(before).as_nanos());
        let ask_at = self.nack.then(|| now.saturating_add(NACK_HOLDOFF));
        let grace = (!self.repairs()).then(|| self.epsilon + SimDuration::from_nanos(1));
        for k in gap.saturating_sub(MAX_HOLES as u32) + 1..=gap {
            let into = span * u128::from(k) / (u128::from(gap) + 1);
            let due = before.saturating_add(SimDuration::from_nanos(into as u64));
            self.holes.push_back(Hole {
                seq: seq.wrapping_sub(gap - k + 1),
                deadline: due.saturating_add(grace.unwrap_or_default()),
                ask_at,
                asks: 0,
                fec_group: None,
            });
        }
        let excess = self.holes.len().saturating_sub(MAX_HOLES);
        self.holes.drain(..excess);
    }

    /// A late arrival — reordered, recovered by FEC or sent again on
    /// request — closes its hole, open or settled; says whether the
    /// speaker had asked for it, and whether it is late: a copy of a
    /// settled hole is, by definition, when the speaker repairs — it
    /// has played (or skipped) that block. A table that only counts
    /// leaves the copy to §3.2's rule.
    fn close(&mut self, seq: u32) -> (bool, bool) {
        let open = self.holes.iter().position(|h| h.seq == seq);
        let settled = self.settled.iter().position(|&(s, _)| s == seq);
        let asked = match (open, settled) {
            (Some(i), _) => self.holes.remove(i).is_some_and(|h| h.asks > 0),
            (None, Some(i)) => self.settled.remove(i).is_some_and(|(_, asked)| asked),
            (None, None) => false,
        };
        let late = self.repairs() && open.is_none() && settled.is_some();
        (asked, late)
    }

    /// The earliest instant a hole is to be asked for or comes due.
    fn next_wakeup(&self) -> Option<SimTime> {
        let next = |h: &Hole| h.ask_at.map_or(h.deadline, |at| at.min(h.deadline));
        self.holes.iter().map(next).min()
    }

    /// Steps the table to `now`: a hole that has outlived the reorder
    /// hold-off is asked for, once more if the refill does not come
    /// either and a round trip still fits before the deadline; a hole
    /// still open when it comes due is settled, and `conceal` is
    /// called with its deadline and its place in the run of blocks
    /// missing back to back (from 1; a longer run than
    /// [`MAX_CONCEALED_RUN`] goes silent) if the speaker conceals.
    /// Returns the `(first_seq, count)` ranges to ask for, at most
    /// [`MAX_NACK_RANGES`] of them (what one NACK packet carries; the
    /// rest are asked for at the next poll), and how many FEC groups
    /// lost a block for good: a group — of the size its hole opened
    /// under, else of `fec_group` packets — counts the first time one
    /// of its holes settles. Work is bounded by the table.
    fn poll(
        &mut self,
        now: SimTime,
        fec_group: Option<u8>,
        mut conceal: impl FnMut(SimTime, u32),
    ) -> (Vec<(u32, u16)>, u64) {
        // Nothing is allocated until there is a range to ask for.
        let (mut nack, mut lost) = (Vec::new(), 0);
        let (concealing, run) = (self.conceal, &mut self.concealed_run);
        let (settled, lost_group) = (&mut self.settled, &mut self.lost_group);
        self.holes.retain_mut(|h| {
            if h.deadline <= now {
                settled.push_back((h.seq, h.asks > 0));
                if let Some(size) = h.fec_group.or(fec_group) {
                    let group = (group_base(h.seq, size), size);
                    lost += u64::from(lost_group.replace(group) != Some(group));
                }
                let nth = if run.0 == h.seq {
                    run.1.saturating_add(1)
                } else {
                    1
                };
                *run = (h.seq.wrapping_add(1), nth);
                if concealing && nth <= MAX_CONCEALED_RUN {
                    conceal(h.deadline, nth);
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
        (nack, lost)
    }
}

/// What the receive protocol knows of the stream it is tuned to.
#[derive(Default)]
pub(crate) struct RxState {
    pub(crate) verifier: Option<StreamVerifier>,
    /// §2.3's gate and §3.2's clock in one: unsynchronized means no
    /// control packet has been heard since tuning.
    pub(crate) clock: ClockSync,
    stream_cfg: AudioConfig,
    /// The control packet's codec byte.
    codec_wire: u8,
    /// An [`Action::Configure`] went out since the last tune.
    configured: bool,
    /// Interarrival jitter of the stream's original packets.
    jitter: Jitter,
    /// FEC recovery state, created lazily on the first parity packet.
    fec: Option<FecRecoverer>,
    /// The duplicate-suppression filter.
    seen_seqs: SeenSeqs,
    /// The newest data packet seen and its play deadline (gap
    /// detection, and one end of a hole's interpolated deadline).
    last: Option<(u32, SimTime)>,
    /// The hole table, once the speaker conceals, can NACK or keeps
    /// FEC; one kept only to count FEC's losses goes with the
    /// recoverer at a retune.
    repair: Option<Box<HoleTable>>,
}

impl RxState {
    /// A speaker that has heard nothing yet; `auth_anchor` is the
    /// optional §5.1 trust anchor enabling stream authentication, and
    /// a speaker that conceals keeps a hole table from the start.
    pub(crate) fn new(auth_anchor: Option<[u8; 32]>, conceal: bool) -> Self {
        let repair = conceal.then(|| {
            Box::new(HoleTable {
                conceal,
                ..HoleTable::default()
            })
        });
        RxState {
            verifier: auth_anchor.map(StreamVerifier::new),
            repair,
            ..Self::default()
        }
    }

    /// Forgets the stream: playback re-gates on the next control
    /// packet, exactly as a fresh tune-in would. A FLUSH does only
    /// this; a channel switch also reconfigures the device on that
    /// packet and starts FEC afresh.
    pub(crate) fn regate(&mut self) {
        self.clock = ClockSync::new();
        self.last = None;
        self.jitter.last_transit_us = None;
        if let Some(table) = &mut self.repair {
            table.forget();
        }
        self.seen_seqs.0.clear();
    }

    /// RFC 3550 §6.4.1 interarrival jitter of the original data
    /// packets, µs — with `quality_*` in [`SpeakerStats`], what a §5.3
    /// management console polls.
    pub(crate) fn jitter_us(&self) -> f64 {
        self.jitter.us
    }

    /// When the hole table next has something to do: the earliest
    /// instant an open hole is to be asked for or comes due.
    pub(crate) fn next_poll(&self) -> Option<SimTime> {
        self.repair.as_ref()?.next_wakeup()
    }
}

/// The receive half of the node: what each message and each poll of
/// the hole table decides, carried out as it is decided.
impl<A: Copy, D: Decoder> SpeakerNode<A, D> {
    /// From now on the speaker asks for the blocks it is missing: a
    /// hole that outlives the reorder hold-off becomes an
    /// [`Action::Nack`] to the node it last heard a control packet of
    /// its stream from.
    pub fn request_repairs(&mut self) {
        self.rx.repair.get_or_insert_default().nack = true;
    }

    /// The stream format the latest control packet described.
    pub fn stream_config(&self) -> AudioConfig {
        self.rx.stream_cfg
    }

    /// The codec a data packet's codec byte names — the stream's own
    /// when the byte is not a known codec.
    pub fn codec_for(&self, codec_wire: u8) -> CodecId {
        let known = CodecId::from_wire(codec_wire).or(CodecId::from_wire(self.rx.codec_wire));
        known.unwrap_or(CodecId::Pcm)
    }

    /// Entries held by the bounded tables: open holes, settled holes,
    /// dedupe slots.
    pub fn table_sizes(&self) -> [usize; 3] {
        let table = self.rx.repair.as_deref();
        let (holes, settled) = table.map_or((0, 0), |t| (t.holes.len(), t.settled.len()));
        [holes, settled, self.rx.seen_seqs.0.len()]
    }

    /// The speaker switched channels: wait for the new stream's
    /// control packet, reconfigure the device on it, start FEC afresh.
    pub(crate) fn retune(&mut self) {
        self.rx.regate();
        self.rx.configured = false;
        self.rx.fec = None;
        self.rx.repair = self.rx.repair.take().filter(|t| t.repairs());
    }

    /// Counts a datagram and passes it through the §5.1 gate; yields
    /// the messages now cleared for parsing: on an open channel the
    /// datagram itself, on an authenticated one whatever its trailer's
    /// key disclosure released — nothing, or a batch of earlier ones.
    pub(crate) fn admit(&mut self, raw: &Bytes) -> impl Iterator<Item = Bytes> {
        self.stats.datagrams += 1;
        let open = self.rx.verifier.is_none().then(|| raw.clone());
        let batch = self.rx.verifier.as_mut().and_then(|verifier| {
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
    pub(crate) fn on_packet(&mut self, now: SimTime, pkt: Packet) {
        match pkt {
            Packet::Control(c) => self.on_control(now, c),
            Packet::Data(d) => {
                // Feed the FEC tracker first: a recovered packet from an
                // earlier group plays like any other. Skip a seq that
                // already went to playback: its group was rebuilt or
                // completed, and the copy would reopen it and take a
                // slot of the recoverer's window.
                let recovered = match &mut self.rx.fec {
                    Some(fec) if !self.rx.seen_seqs.contains(d.seq) => fec.on_data(&d),
                    _ => None,
                };
                self.on_data(now, d, false);
                self.on_recovered(now, recovered);
            }
            Packet::Parity(p) => self.on_parity(now, p),
            Packet::Session(sp) => self.on_session(now, &sp),
            // Another speaker's request, or a forger's: a speaker
            // serves nobody.
            Packet::Nack { .. } => {}
        }
    }

    fn on_control(&mut self, now: SimTime, c: ControlPacket) {
        if !self.rx.clock.on_control(now, c.producer_time_us) {
            self.stats.bad_packets += 1;
            return;
        }
        self.stats.control_packets += 1;
        self.rx.codec_wire = c.codec;
        // §2.3: the configuration block needed to decode the stream —
        // the first control packet since tuning, or one that changed
        // the format, programs the device.
        if !self.rx.configured || self.rx.stream_cfg != c.config {
            self.rx.configured = true;
            self.actions.push(Action::Configure(c.config));
            // A new format starts a fresh lap.
            self.laps = Default::default();
        }
        self.rx.stream_cfg = c.config;
    }

    fn on_parity(&mut self, now: SimTime, p: ParityPacket) {
        // A parity packet with a different group size means the old
        // recoverer's partial state is for a dead layout: the producer
        // was reconfigured, or a standby with another group took over.
        let group = self.rx.fec.as_ref().map(FecRecoverer::group);
        if let Some(from) = group.filter(|&group| group != p.count) {
            self.rx.fec = None;
            // The holes already open keep the old grid.
            for h in self.rx.repair.iter_mut().flat_map(|t| t.holes.iter_mut()) {
                h.fec_group.get_or_insert(from);
            }
            let fields = vec![("from", from.to_string()), ("to", p.count.to_string())];
            self.note(
                Severity::Info,
                "speaker",
                "fec parity group changed",
                fields,
            );
        }
        // The hole table settles the blocks FEC did not rebuild.
        self.rx.repair.get_or_insert_default().epsilon = self.cfg.epsilon;
        let fec = self
            .rx
            .fec
            .get_or_insert_with(|| FecRecoverer::new(p.count));
        let recovered = fec.on_parity(&p);
        self.on_recovered(now, recovered);
    }

    fn on_recovered(&mut self, now: SimTime, recovered: Option<DataPacket>) {
        if let Some(r) = recovered {
            self.stats.fec_recovered += 1;
            self.on_data(now, r, true);
        }
    }

    fn on_data(&mut self, now: SimTime, d: DataPacket, via_fec: bool) {
        // §2.3: no control packet yet means the stream cannot be
        // decoded — wait, do not guess.
        if !self.rx.clock.is_synced() {
            self.stats.dropped_waiting_control += 1;
            return;
        }
        let Some(deadline) = self.rx.clock.to_local(d.play_at_us) else {
            self.stats.bad_packets += 1;
            return;
        };
        // Duplicate suppression: a sequence number that already went to
        // playback must never play twice, whether the copy came from
        // the LAN's duplication impairment or from FEC recovering a
        // packet that also arrived on its own.
        if !self.rx.seen_seqs.insert(d.seq) {
            self.stats.dropped_duplicate += 1;
            return;
        }
        // The wire `seq` is unauthenticated and wraps, so "ahead of"
        // is the sign of the wrapping difference (serial-number
        // arithmetic), never `last + 1`. A jump longer than a loss
        // burst either way is a restart: the stream re-anchors on it,
        // opens no holes and counts no loss — so neither a forged
        // `u32::MAX` nor one forged far-ahead number can pin `last`
        // and turn every real packet after it into a late arrival.
        let ahead = self
            .rx
            .last
            .map_or(0, |(last, _)| d.seq.wrapping_sub(last) as i32);
        let restart = ahead.unsigned_abs() > MAX_MISSING_RANGE_LEN;
        let (mut refill, mut late) = (false, false);
        if ahead < 0 && !restart {
            // A late arrival closes its hole, if the speaker keeps any.
            let asked;
            (asked, late) = self
                .rx
                .repair
                .as_mut()
                .map_or((false, false), |t| t.close(d.seq));
            refill = asked && !via_fec;
            self.stats.refills_received += u64::from(refill);
            // An original (neither an asked-for refill nor an FEC
            // rebuild) was reordered, not lost; a repair leaves the
            // link's loss counted.
            if !asked && !via_fec {
                self.stats.quality_lost = self.stats.quality_lost.saturating_sub(1);
                self.stats.quality_reordered += 1;
            }
        } else {
            let gap = if restart {
                0
            } else {
                (ahead.max(1) - 1) as u32
            };
            if let (Some((_, before)), Some(table)) =
                (self.rx.last.filter(|_| gap > 0), &mut self.rx.repair)
            {
                table.open(now, d.seq, gap, before, deadline);
            }
            self.rx.last = Some((d.seq, deadline));
            self.stats.quality_expected += u64::from(gap) + 1;
            self.stats.quality_lost += u64::from(gap);
        }
        if !via_fec && !refill {
            self.rx.jitter.on_arrival(now, d.play_at_us);
        }
        let block = RxBlock {
            payload: d.payload,
            codec_wire: d.codec,
            deadline,
            refill,
        };
        // A copy of a block that was due already, and possibly
        // concealed, is counted and plays nothing; the block after it
        // may still lap it.
        if late {
            self.hold_for_lap(now, &block);
            return self.late(now, deadline, refill);
        }
        self.on_block(now, block);
    }

    /// Polls the hole table at `now` (see `HoleTable::poll`): plays a
    /// replica for each block that came due unrepaired and counts the
    /// FEC groups they belong to, then sends one NACK for the holes to
    /// ask for.
    pub(crate) fn poll_holes(&mut self, now: SimTime) {
        let Some(mut table) = self.rx.repair.take() else {
            return;
        };
        let group = self.rx.fec.as_ref().map(FecRecoverer::group);
        let (ranges, lost) =
            table.poll(now, group, |deadline, nth| self.conceal(now, deadline, nth));
        self.stats.fec_unrecoverable += lost;
        self.rx.repair = Some(table);
        // Holes open only behind a control packet, so there is a
        // source.
        if let Some((stream_id, to)) = self.source.filter(|_| !ranges.is_empty()) {
            self.stats.nacks_sent += 1;
            let nack = encode_nack(stream_id, &ranges);
            self.actions.push(Action::Nack(to, nack));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::node::{Pcm, SharedBlock};
    use crate::SpeakerConfig;
    use es_net::McastGroup;
    use es_proto::{decode, encode_control, encode_data, WireError};

    /// Decodes every payload to a short block, ready at once, and
    /// counts the blocks the protocol cleared.
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
            Some((SharedBlock::new(vec![1; 2]), 0, now))
        }
    }

    type Node = SpeakerNode<(), Blocks>;

    /// A node stepped the way an adapter steps it.
    struct Speaker {
        node: Node,
        cleared: Rc<Cell<usize>>,
    }

    /// What one step made the speaker do, as the protocol decided it;
    /// wakeups and real blocks played are left out.
    #[derive(Debug, Default, PartialEq)]
    struct Did {
        /// Blocks cleared for playback.
        blocks: usize,
        /// The ranges of each NACK sent.
        nacks: Vec<Vec<(u32, u16)>>,
        /// Each replica played: when, and its place in the run of
        /// blocks concealed back to back (read from its fade).
        replicas: Vec<(SimTime, u32)>,
        /// Each journal line, its fields after its message.
        notes: Vec<String>,
    }

    impl Speaker {
        /// A speaker that has heard nothing yet.
        fn new(conceal: bool) -> Self {
            let mut cfg = SpeakerConfig::new("es", McastGroup(1));
            cfg.conceal_loss = conceal;
            let cleared = Rc::default();
            let node = SpeakerNode::new(cfg, Blocks(Rc::clone(&cleared)));
            Speaker { node, cleared }
        }

        /// Drains what the node did, at `now`, into `did`.
        fn collect(&mut self, now: SimTime, did: &mut Did) {
            did.blocks += self.cleared.replace(0);
            for action in self.node.actions.drain(..) {
                match action {
                    Action::Nack((), raw) => match decode(&raw) {
                        Ok(Packet::Nack { ranges, .. }) => did.nacks.push(ranges),
                        other => panic!("not a NACK: {other:?}"),
                    },
                    Action::Play(play) if play.fade < 1.0 => {
                        let nth = play.fade.ln() / 0.6f64.ln();
                        did.replicas.push((now, nth.round() as u32));
                    }
                    Action::Note(note) => {
                        let fields = note.fields.iter().map(|(k, v)| format!(" {k}={v}"));
                        did.notes
                            .push(fields.fold(note.message.to_string(), |n, f| n + &f));
                    }
                    _ => {}
                }
            }
        }

        /// One datagram, received `now`.
        fn offer(&mut self, now: SimTime, raw: Bytes) -> Did {
            self.node.on_datagram(now, (), &raw);
            let mut did = Did::default();
            self.collect(now, &mut did);
            did
        }

        /// Data packet `seq`, due at `due_ms`, arriving `now`.
        fn data(&mut self, now: SimTime, seq: u32, due_ms: u64) -> Did {
            self.offer(
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

        /// A control packet, producer and local clocks agreeing.
        fn tune(&mut self, now: SimTime) {
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
            self.offer(now, control);
        }

        /// Serves every wakeup due by `now`, each at its own instant.
        fn poll(&mut self, now: SimTime) -> Did {
            let mut did = Did::default();
            while let Some(at) = self.node.next_wake().filter(|&at| at <= now) {
                self.node.on_wake(at);
                self.collect(at, &mut did);
            }
            did
        }

        /// Members `seqs` of an FEC stream (see `member`), in order,
        /// each received at `now`.
        fn members(&mut self, now: SimTime, seqs: impl IntoIterator<Item = u32>) {
            for seq in seqs {
                self.offer(now, encode_data(&member(seq)));
            }
        }

        fn stats(&self) -> SpeakerStats {
            self.node.stats
        }
    }

    /// A speaker that conceals and NACKs, synchronized at time zero
    /// (producer and local clocks agree).
    fn repairing() -> Speaker {
        let mut spk = Speaker::new(true);
        spk.node.request_repairs();
        spk.tune(SimTime::ZERO);
        spk
    }

    fn nacks(ranges: &[&[(u32, u16)]]) -> Did {
        let nacks = ranges.iter().map(|r| r.to_vec()).collect();
        Did {
            nacks,
            ..Did::default()
        }
    }

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn resync_and_retune_drop_every_hole_and_pending_nack() {
        let forgets: [fn(&mut Node); 2] = [Node::resync, |n| n.tune(McastGroup(1))];
        for forget in forgets {
            let mut spk = repairing();
            spk.data(MS(0), 10, 300);
            spk.data(MS(0), 12, 400);
            assert_eq!(spk.poll(MS(20)), nacks(&[&[(11, 1)]]));
            assert_eq!(spk.poll(MS(60)), nacks(&[&[(11, 1)]]));
            let replica = Did {
                replicas: vec![(MS(350), 1)],
                ..Did::default()
            };
            assert_eq!(spk.poll(MS(350)), replica);
            spk.data(MS(360), 15, 550);
            assert_eq!(spk.poll(MS(380)), nacks(&[&[(13, 2)]]));
            // One hole is settled, two are open with a re-ask pending.
            assert_eq!(spk.node.table_sizes()[..2], [2, 1]);
            assert_eq!(spk.node.rx.next_poll(), Some(MS(420)));

            forget(&mut spk.node);
            spk.node.actions.clear();
            assert_eq!(spk.node.table_sizes(), [0, 0, 0]);
            assert_eq!(spk.node.rx.next_poll(), None);
            assert_eq!(spk.poll(MS(10_000)), Did::default(), "nothing re-asked");
            // The old stream's numbers mean nothing to the new one: no
            // hole between 15 and 13, no refill, nothing late.
            spk.tune(MS(10_000));
            let did = spk.data(MS(10_000), 13, 10_300);
            assert_eq!(
                did,
                Did {
                    blocks: 1,
                    ..Did::default()
                }
            );
            assert_eq!(spk.node.table_sizes()[..2], [0, 0]);
            assert_eq!(spk.stats().refills_received, 0);
        }
    }

    #[test]
    fn a_channel_switch_is_neither_loss_nor_reordering() {
        // Music at seq 1000, an announcement from seq 0, music again
        // having moved on while the speaker was away.
        let mut spk = repairing();
        let mut now = 0;
        let mut play = |spk: &mut Speaker, seqs: std::ops::Range<u32>| {
            spk.tune(MS(now));
            for seq in seqs {
                now += 50;
                spk.data(MS(now), seq, now + 200);
            }
        };
        play(&mut spk, 1_000..1_010);
        spk.node.tune(McastGroup(1));
        play(&mut spk, 0..10);
        spk.node.tune(McastGroup(1));
        play(&mut spk, 1_030..1_040);
        let st = spk.stats();
        let counts = (st.quality_expected, st.quality_lost, st.quality_reordered);
        assert_eq!(counts, (30, 0, 0), "{st:?}");
        // A FLUSH re-gates too: the stream re-anchors on its first
        // packet after the control packet, and what it skipped while
        // gated is not the link's loss.
        spk.node.resync();
        play(&mut spk, 1_041..1_042);
        let st = spk.stats();
        assert_eq!((st.quality_expected, st.quality_lost), (31, 0));
    }

    /// Reception quality is counted where the protocol decides gap,
    /// duplicate and late arrival, so each number means one thing. A
    /// row feeds stream positions in arrival order: position `k`
    /// carries `base + k`, is due at `k · 50 ms + 200 ms` and arrives
    /// at `k · 50 ms`, `shake` µs later on even positions and earlier
    /// on odd ones.
    #[test]
    fn reception_quality_counts_each_sequence_number_once() {
        let clean: Vec<u32> = (0..200).collect();
        // Every packet heard twice and every fifth lost, as when a
        // speaker hears its neighbours' refills: lost / expected is
        // 0.2, not 0.2 / 1.8.
        let twice: Vec<u32> = (0..100)
            .filter(|k| k % 5 != 2)
            .flat_map(|k| [k, k])
            .collect();
        let forged = 1 + 0x7fff_0000;
        // Name, base, positions, shake; expected, lost, reordered,
        // dropped_duplicate; jitter_us.
        type Row<'a> = (&'a str, u32, &'a [u32], i64, [u64; 4], std::ops::Range<f64>);
        #[rustfmt::skip]
        let rows: [Row<'_>; 8] = [
            ("clean", 0, &clean, 0, [200, 0, 0, 0], 0.0..1.0),
            ("gaps", 0, &[0, 1, 2, 5, 6, 10], 0, [11, 5, 0, 0], 0.0..1.0),
            ("reorder is not loss", 0, &[0, 1, 3, 2, 4], 0, [5, 0, 1, 0], 0.0..1.0),
            ("duplicates never count", 0, &[0, 1, 1, 1, 2], 0, [3, 0, 0, 2], 0.0..1.0),
            ("across the wrap", u32::MAX - 3, &[0, 1, 2, 3, 7, 5, 8, 9], 0, [10, 2, 1, 0], 0.0..1.0),
            ("heard twice, 20 % lost", 0, &twice, 0, [100, 20, 0, 80], 0.0..1.0),
            ("a far jump is a restart", 0, &[0, 1, forged, 2, 4], 0, [6, 1, 0, 0], 0.0..1.0),
            // RFC smoothing converges toward the mean |D| = 16 ms.
            ("jitter", 0, &clean, 8_000, [200, 0, 0, 0], 10_000.0..20_000.0),
        ];
        for (name, base, positions, shake, want, jitter) in rows {
            let mut spk = Speaker::new(false);
            spk.tune(SimTime::ZERO);
            for &k in positions {
                let at_us = i64::from(k) * 50_000 + [shake, -shake][k as usize % 2];
                let packet = DataPacket {
                    stream_id: 1,
                    seq: base.wrapping_add(k),
                    play_at_us: u64::from(k) * 50_000 + 200_000,
                    codec: 0,
                    payload: Bytes::from(vec![0u8; 8]),
                };
                let now = SimTime::from_micros(at_us.max(0) as u64);
                spk.offer(now, encode_data(&packet));
            }
            let st = spk.stats();
            let got = [
                st.quality_expected,
                st.quality_lost,
                st.quality_reordered,
                st.dropped_duplicate,
            ];
            assert_eq!(got, want, "{name}");
            let jitter_us = spk.node.rx.jitter_us();
            assert!(jitter.contains(&jitter_us), "{name}: {jitter_us}");
        }
    }

    #[test]
    fn holes_and_nack_ranges_are_right_across_the_sequence_wrap() {
        let mut spk = repairing();
        // MAX-2 then 3: MAX-1, MAX, 0, 1, 2 are missing, due at even
        // steps between the two deadlines.
        spk.data(MS(0), u32::MAX - 2, 300);
        spk.data(MS(1), 3, 600);
        assert_eq!(spk.node.table_sizes()[0], 5);
        assert_eq!(spk.node.rx.next_poll(), Some(MS(21)));
        // One range, straddling the wrap.
        assert_eq!(spk.poll(MS(21)), nacks(&[&[(u32::MAX - 1, 5)]]));
        // The refill of 0 closes its hole and splits the range the
        // re-ask names.
        assert_eq!(
            spk.data(MS(30), 0, 450),
            Did {
                blocks: 1,
                ..Did::default()
            }
        );
        assert_eq!(spk.stats().refills_received, 1, "a refill");
        assert_eq!(spk.poll(MS(61)), nacks(&[&[(u32::MAX - 1, 2), (1, 2)]]));
        // Unrepaired, they come due in order, each at its own step,
        // and the run restarts after the block that did arrive.
        let mut due = Vec::new();
        for at in (300..=600).step_by(10) {
            let did = spk.poll(MS(at));
            assert!(
                did.nacks.is_empty() && did.notes.is_empty(),
                "asked twice already"
            );
            due.extend(did.replicas);
        }
        let want = [(350, 1), (400, 2), (500, 1), (550, 2)].map(|(ms, nth)| (MS(ms), nth));
        assert_eq!(due, want);
        assert_eq!(spk.node.table_sizes()[..2], [0, 4]);
        // A copy of a settled one is late; it was asked for, so it is
        // a refill that missed.
        let late = Did {
            notes: vec!["nack refill arrived past deadline late_us=210000".into()],
            ..Did::default()
        };
        assert_eq!(spk.data(MS(610), u32::MAX, 400), late);
        let settled = spk.node.table_sizes()[1];
        assert_eq!((spk.stats().refills_received, settled), (2, 3));
    }

    /// Member `seq` of an FEC stream, due 50 ms after the one before
    /// it, seq 0 at 300 ms.
    fn member(seq: u32) -> DataPacket {
        DataPacket {
            stream_id: 1,
            seq,
            play_at_us: 300_000 + u64::from(seq) * 50_000,
            codec: 0,
            payload: Bytes::from(vec![seq as u8; 8]),
        }
    }

    /// The parity of the `group` members from `first`.
    fn parity(first: u32, group: u8) -> Bytes {
        use es_proto::{encode_parity, ParityAccumulator};
        let mut acc = ParityAccumulator::new(group);
        let members = first..first + u32::from(group);
        let parity = members.into_iter().find_map(|seq| acc.absorb(&member(seq)));
        encode_parity(&parity.expect("one group"))
    }

    /// A speaker that keeps FEC only, synchronized at time zero.
    fn fec_only() -> Speaker {
        let mut spk = Speaker::new(false);
        spk.tune(SimTime::ZERO);
        spk
    }

    /// When a speaker that only counts settles the hole of a block due
    /// at `due_ms`: once §3.2's epsilon has passed as well, the last
    /// instant a copy could still play.
    fn settles(due_ms: u64) -> SimTime {
        MS(due_ms) + crate::sync::DEFAULT_EPSILON + SimDuration::from_nanos(1)
    }

    /// `fec_unrecoverable` just before `at` and at it.
    fn counted_around(spk: &mut Speaker, at: SimTime) -> (u64, u64) {
        spk.poll(at - SimDuration::from_nanos(1));
        let before = spk.stats().fec_unrecoverable;
        spk.poll(at);
        (before, spk.stats().fec_unrecoverable)
    }

    #[test]
    fn fec_recovering_an_asked_for_hole_is_not_a_refill() {
        let mut spk = repairing();
        // Group [4, 8) loses seq 5; the speaker has asked for it by the
        // time the group's parity rebuilds it.
        spk.members(MS(0), 0..4);
        spk.offer(MS(0), parity(0, 4));
        spk.members(MS(0), [4, 6, 7]);
        assert_eq!(spk.poll(MS(20)), nacks(&[&[(5, 1)]]));
        let did = spk.offer(MS(25), parity(4, 4));
        assert_eq!(
            did,
            Did {
                blocks: 1,
                ..Did::default()
            }
        );
        let st = spk.stats();
        assert_eq!((st.fec_recovered, st.refills_received), (1, 0));
        let holes = spk.node.table_sizes()[0];
        assert_eq!((holes, spk.node.rx.next_poll()), (0, None));
        // The refill it asked for is a duplicate now.
        assert_eq!(spk.offer(MS(26), encode_data(&member(5))), Did::default());
        let st = spk.stats();
        assert_eq!((st.dropped_duplicate, st.refills_received), (1, 0));
    }

    #[test]
    fn a_group_that_lost_two_packets_counts_once_when_the_first_comes_due() {
        // Group [0, 4) loses seq 1 and 2, group [4, 8) loses seq 5;
        // only these two groups' parity arrives, ahead of their data,
        // and rebuilds 5. Seq 1 is due at 350 ms, seq 2 at 400 ms: a
        // speaker that conceals settles the hole then, one that only
        // counts once a copy could no longer play.
        for (conceal, at) in [(true, MS(350)), (false, settles(350))] {
            let mut spk = Speaker::new(conceal);
            spk.tune(SimTime::ZERO);
            spk.offer(MS(0), parity(0, 4));
            spk.offer(MS(0), parity(4, 4));
            spk.members(MS(0), (0..24).filter(|seq| ![1, 2, 5].contains(seq)));
            assert_eq!(counted_around(&mut spk, at), (0, 1), "conceal {conceal}");
            spk.poll(MS(2_000));
            let st = spk.stats();
            let got = (st.fec_recovered, st.fec_unrecoverable);
            assert_eq!(got, (1, 1), "conceal {conceal}: {st:?}");
            let mut reg = Registry::new();
            st.record(&mut reg);
            let key = "speaker/0/fec_unrecoverable";
            assert_eq!(reg.snapshot().counter(key), Some(1));
        }
        // A clean stream lists no such key.
        let mut reg = Registry::new();
        SpeakerStats::default().record(&mut reg);
        assert_eq!(reg.snapshot().counter("speaker/0/fec_unrecoverable"), None);
    }

    #[test]
    fn a_group_that_lost_a_packet_and_its_parity_counts_as_unrecoverable() {
        // Only the first group's parity arrives, ahead of its data: it
        // starts the recoverer, which rebuilds the group's lost seq 1.
        // Group [4, 8) loses seq 5, due at 550 ms, and its parity.
        let mut spk = fec_only();
        spk.offer(MS(0), parity(0, 4));
        spk.members(MS(0), (0..20).filter(|&seq| seq != 1 && seq != 5));
        assert_eq!(counted_around(&mut spk, settles(550)), (0, 1));
        let st = spk.stats();
        assert_eq!((st.fec_recovered, st.fec_unrecoverable), (1, 1), "{st:?}");
    }

    /// A data packet whose seq already went to playback is no news to
    /// the recoverer: fed to it, it would open a fresh group for a
    /// group already rebuilt or completed, and take a slot of the
    /// recoverer's four-group window.
    #[test]
    fn a_seq_already_played_opens_no_group() {
        // `None` is the next group's parity; the last pair is
        // fec_recovered and dropped_duplicate. Group [0, 4)'s parity
        // comes first, so seq 0-2 rebuild seq 3; then the original
        // seq 3 arrives. Or group [4, 8) arrives whole, its parity
        // after it, and then a LAN duplicate of seq 6.
        type Order<'a> = (&'a str, &'a [Option<u32>], (u64, u64));
        let orders: [Order<'_>; 2] = [
            (
                "rebuilt, then the original",
                &[None, Some(0), Some(1), Some(2), Some(3)],
                (1, 1),
            ),
            (
                "completed, then a duplicate",
                &[
                    None,
                    Some(0),
                    Some(1),
                    Some(2),
                    Some(4),
                    Some(5),
                    Some(6),
                    Some(7),
                    None,
                    Some(6),
                ],
                (1, 1),
            ),
        ];
        for (name, order, (recovered, duplicates)) in orders {
            let mut spk = fec_only();
            let mut first = (0..).step_by(4);
            for &seq in order {
                let raw = match seq {
                    Some(seq) => encode_data(&member(seq)),
                    None => parity(first.next().expect("endless"), 4),
                };
                spk.offer(MS(0), raw);
            }
            spk.poll(MS(2_000));
            let st = spk.stats();
            let got = (st.fec_recovered, st.dropped_duplicate, st.fec_unrecoverable);
            assert_eq!(got, (recovered, duplicates, 0), "{name}: {st:?}");
        }
    }

    /// Left open: [0, 4) with its parity but seq 1 and 3 lost, [4, 8)
    /// without seq 5 and its parity, [8, 12) whole, its parity lost.
    fn three_groups_open() -> Speaker {
        let mut spk = fec_only();
        spk.offer(MS(0), parity(0, 4));
        spk.members(MS(0), [0, 2, 4, 6, 7, 8, 9, 10, 11]);
        spk
    }

    #[test]
    fn a_retune_before_the_deadline_counts_nothing() {
        // The holes go before seq 1 is due at 350 ms, and the table
        // kept only to count goes with the recoverer.
        let mut spk = three_groups_open();
        spk.node.tune(McastGroup(1));
        assert!(spk.node.rx.repair.is_none());
        spk.poll(MS(2_000));
        assert_eq!(spk.stats().fec_unrecoverable, 0);
    }

    #[test]
    fn holes_count_on_the_group_size_they_opened_under() {
        // A new group size drops the recoverer and counts nothing.
        let mut spk = three_groups_open();
        let did = spk.offer(MS(0), parity(16, 8));
        let changed = Did {
            notes: vec!["fec parity group changed from=4 to=8".into()],
            ..Did::default()
        };
        assert_eq!(did, changed);
        // Group [16, 24) of 8 loses seq 17 and 18, due at 1 150 and
        // 1 200 ms.
        spk.members(MS(0), (12..24).filter(|seq| ![17, 18].contains(seq)));
        // 1 and 3 count as [0, 4), 5 as [4, 8), as when they opened.
        assert_eq!(counted_around(&mut spk, settles(350)), (0, 1));
        spk.poll(MS(1_000));
        assert_eq!(spk.stats().fec_unrecoverable, 2);
        assert_eq!(counted_around(&mut spk, settles(1_150)), (2, 3));
        spk.poll(MS(2_000));
        assert_eq!(spk.stats().fec_unrecoverable, 3);
    }

    #[test]
    fn a_speaker_that_joins_mid_group_counts_nothing_sent_before_it_listened() {
        // It first hears seq 2 and 3 of group [0, 4), then the group's
        // parity: 0 and 1 were sent before it listened. Two whole
        // groups follow. A speaker that conceals keeps a hole table
        // from the start, one that keeps only FEC from the parity on.
        for conceal in [false, true] {
            let mut spk = Speaker::new(conceal);
            spk.tune(SimTime::ZERO);
            spk.members(MS(0), [2, 3]);
            spk.offer(MS(0), parity(0, 4));
            for first in [4, 8] {
                spk.members(MS(0), first..first + 4);
                spk.offer(MS(0), parity(first, 4));
            }
            spk.poll(MS(2_000));
            let st = spk.stats();
            let got = (st.fec_recovered, st.fec_unrecoverable, st.concealed_packets);
            assert_eq!(got, (0, 0, 0), "conceal {conceal}: {st:?}");
        }
    }

    #[test]
    fn a_group_that_lost_two_packets_counts_on_a_clean_stream() {
        // Group [4, 8) loses seq 5 and 6, and every group's parity
        // follows it; the stream then plays cleanly for 1.6 s.
        let mut spk = fec_only();
        for first in (0..40).step_by(4) {
            spk.members(
                MS(0),
                (first..first + 4).filter(|seq| ![5, 6].contains(seq)),
            );
            spk.offer(MS(0), parity(first, 4));
        }
        assert_eq!(counted_around(&mut spk, settles(550)), (0, 1));
        spk.poll(MS(5_000));
        let st = spk.stats();
        assert_eq!((st.fec_recovered, st.fec_unrecoverable), (0, 1), "{st:?}");
    }

    #[test]
    fn a_stream_that_stops_still_counts_its_open_group() {
        // [0, 4) arrives whole with its parity, then seq 4 and 6, and
        // the stream stops: 5, 7 and [4, 8)'s parity are never sent.
        let mut spk = fec_only();
        spk.members(MS(0), 0..4);
        spk.offer(MS(0), parity(0, 4));
        spk.members(MS(0), [4, 6]);
        assert_eq!(counted_around(&mut spk, settles(550)), (0, 1));
        assert_eq!(spk.node.table_sizes()[..2], [0, 1], "one hole, settled");
    }

    /// [0, 4) arrives whole with its parity and starts the recoverer.
    /// [4, 8) loses seq 5, due at 550 ms, its parity yet to come;
    /// [8, 12) loses seq 9, due at 750 ms.
    fn two_holes(conceal: bool) -> Speaker {
        let mut spk = Speaker::new(conceal);
        spk.tune(SimTime::ZERO);
        spk.members(MS(0), 0..4);
        spk.offer(MS(0), parity(0, 4));
        spk.members(MS(0), [4, 6, 7, 8, 10, 11]);
        spk
    }

    #[test]
    fn a_copy_that_comes_after_its_hole_settled_counts_nothing_more() {
        // The rebuild of 5 and the original 9 each come 50 ms after
        // their deadline, later than §3.2's epsilon: neither plays, on
        // a speaker that conceals or one that only counts. The latter
        // hands each to §3.2's rule, which decodes and discards it, as
        // a speaker without a hole table does.
        for conceal in [false, true] {
            let mut spk = two_holes(conceal);
            let played = |spk: &Speaker| spk.stats().data_packets;
            spk.poll(MS(599));
            let before = (spk.stats().fec_unrecoverable, played(&spk));
            let did = spk.offer(MS(600), parity(4, 4));
            assert_eq!((1, played(&spk)), before, "conceal {conceal}");
            assert_eq!(did.blocks, usize::from(!conceal), "conceal {conceal}");
            spk.poll(MS(799));
            let before = (spk.stats().fec_unrecoverable, played(&spk));
            let did = spk.data(MS(800), 9, 750);
            assert_eq!((2, played(&spk)), before, "conceal {conceal}");
            assert_eq!(did.blocks, usize::from(!conceal), "conceal {conceal}");
            spk.poll(MS(2_000));
            let st = spk.stats();
            let got = (st.fec_recovered, st.dropped_late, st.fec_unrecoverable);
            assert_eq!(got, (1, 2, 2), "conceal {conceal}: {st:?}");
        }
    }

    #[test]
    fn a_speaker_that_only_counts_plays_a_copy_within_epsilon_and_counts_nothing() {
        // The rebuild of 5 and the original 9 each come 10 ms after
        // their deadline: §3.2's rule plays both.
        let mut spk = two_holes(false);
        assert_eq!(spk.poll(MS(560)), Did::default());
        let played = Did {
            blocks: 1,
            ..Did::default()
        };
        assert_eq!(spk.offer(MS(560), parity(4, 4)), played);
        assert_eq!(spk.poll(MS(760)), Did::default());
        assert_eq!(spk.data(MS(760), 9, 750), played);
        spk.poll(MS(2_000));
        let st = spk.stats();
        let got = (st.fec_recovered, st.dropped_late, st.fec_unrecoverable);
        assert_eq!(got, (1, 0, 0), "{st:?}");
    }

    #[test]
    fn a_hole_too_close_to_its_deadline_is_not_asked_for() {
        let mut spk = repairing();
        spk.data(MS(0), 1, 10);
        // Seq 2 is due 23 ms after the gap shows: the hold-off leaves
        // 3 ms, less than a round trip.
        spk.data(MS(0), 3, 36);
        assert_eq!(spk.node.rx.next_poll(), Some(MS(20)));
        assert_eq!(spk.poll(MS(20)), Did::default());
        assert_eq!(spk.node.rx.next_poll(), Some(MS(23)));
        let replica = Did {
            replicas: vec![(MS(23), 1)],
            ..Did::default()
        };
        assert_eq!(spk.poll(MS(23)), replica);
        // Nobody asked, so a copy now is a plain late packet.
        let late = Did {
            notes: vec!["data packet discarded past deadline late_us=1000".into()],
            ..Did::default()
        };
        assert_eq!(spk.data(MS(24), 2, 23), late);
        assert_eq!(spk.stats().refills_received, 0);
    }
}
