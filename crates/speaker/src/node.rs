//! One Ethernet Speaker, free of clocks, sockets and devices: the
//! receive protocol of [`crate::rx`] and everything the speaker decides
//! once that protocol has cleared a block — §3.2's sleep/play/discard
//! rule with its slack and late accounting, the early speaker's
//! as-soon-as-decoded playback, concealment, the §3.4 single-threaded
//! player, volume, where a NACK goes, and a negotiated speaker's
//! session client. Each decision is carried out where it is made.
//!
//! An adapter feeds it datagrams ([`SpeakerNode::on_datagram`]) and
//! the instants it asked to be woken at ([`SpeakerNode::on_wake`]),
//! lends it a [`Decoder`], carries out the [`Action`]s it queues, in
//! order, and adds what its device did to [`SpeakerNode::stats`]. The
//! simulator's [`crate::EthernetSpeaker`] is one adapter,
//! `es_core::live`'s `LiveSpeaker` the other: both play the same blocks
//! at the same instants from the same trace.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use es_audio::mix::apply_gain;
use es_audio::{AudioConfig, Encoding};
use es_codec::{CodecId, OvlSpan, OvlTail};
use es_net::McastGroup;
use es_proto::{encode_session, ClientAction, Packet, SessionClient, SessionPacket, WireError};
use es_sim::SimTime;
use es_telemetry::{Histogram, Severity};

use crate::autovol::AutoVolume;
use crate::rx::{RxBlock, RxState, SpeakerStats};
use crate::sync::{decide, PlayDecision};
use crate::SpeakerConfig;

/// One decoded block, shared by every receiver of the datagram it came
/// from: the interleaved PCM and, once a receiver has played it at
/// unity gain, the device bytes that PCM renders to. Nobody holding a
/// handle changes either: a speaker that scales or fades audio does so
/// in a copy of its own.
#[derive(Default)]
pub struct SharedBlock {
    pub(crate) samples: Vec<i16>,
    /// `samples` in the device encoding last asked for (`None` until
    /// somebody asks), in a buffer the device rings hold handles to.
    pub(crate) rendered: RefCell<(Option<Encoding>, Rc<Vec<u8>>)>,
    /// What the stream's next OVL packet laps onto; empty for a block
    /// of a codec that does not lap.
    pub(crate) tail: OvlTail,
    /// Names what `tail` holds, so a span knows the block it was
    /// completed from without keeping that block alive: the `id` of the
    /// span it completed when the tail is that span's alone (whatever
    /// the block before added into its head), else an id of its own.
    /// 0 for a block of a codec that does not lap.
    tail_id: u64,
    /// An OVL payload decoded but not yet played: its span, which
    /// plays once completed by the block before it (`samples` is then
    /// empty). `None` for a block that plays as it is.
    pub(crate) lapped: Option<Box<SharedSpan>>,
}

/// A handle to a decoded block.
pub type Pcm = Rc<SharedBlock>;

impl SharedBlock {
    /// A block of interleaved samples.
    pub fn new(samples: Vec<i16>) -> Pcm {
        Rc::new(SharedBlock {
            samples,
            ..SharedBlock::default()
        })
    }
}

thread_local! {
    /// The last id a span or a tail was given on this thread.
    static LAP_IDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A fresh id for a span or a tail.
fn lap_id() -> u64 {
    LAP_IDS.with(|ids| {
        ids.set(ids.get() + 1);
        ids.get()
    })
}

/// An OVL packet's windows, decoded once for every receiver of its
/// datagram, and the blocks it was completed to: one per block it
/// lapped, so receivers that hold the same block before it share the
/// block it plays.
#[derive(Default)]
pub(crate) struct SharedSpan {
    pub(crate) span: OvlSpan,
    /// Unique on its thread per decode into it.
    id: u64,
    /// Each completed block by the `tail_id` of the block it lapped (0:
    /// none), oldest first; at most [`COMPLETIONS`].
    completed: RefCell<Vec<(u64, Pcm)>>,
    /// A block this span was completed to before it was decoded into
    /// again: its next completion reuses its memory if no receiver
    /// holds it by then.
    spare: RefCell<Option<Pcm>>,
}

/// Most completed blocks a span keeps: a clean fleet completes each
/// packet from one predecessor, receivers that missed it from none.
const COMPLETIONS: usize = 2;

impl SharedSpan {
    /// Readies a span no receiver holds to be decoded into again: it
    /// gets a fresh id, and a block it completed to is kept for its
    /// memory. One a receiver still holds (waiting out a long playout
    /// delay) has most likely let go by the span's next completion,
    /// which comes a playout delay later.
    pub(crate) fn recycle(&mut self) {
        self.id = lap_id();
        let spare = self.spare.get_mut();
        for (_, block) in self.completed.get_mut().drain(..) {
            if spare.as_ref().is_none_or(|s| Rc::strong_count(s) > 1) {
                *spare = Some(block);
            }
        }
    }

    /// The block this packet plays after `pred` (`None`: no block it
    /// laps is held): completed by the first receiver to ask, shared
    /// with the rest.
    fn completed(&self, pred: Option<&Pcm>) -> Pcm {
        let lapped = pred.map_or(0, |p| p.tail_id);
        let mut done = self.completed.borrow_mut();
        let shared = done.iter().find(|&&(id, _)| id == lapped);
        crate::speaker::count_completion(shared.is_some());
        if let Some((_, block)) = shared {
            return Rc::clone(block);
        }
        let spare = self.spare.borrow_mut().take();
        let mut block = spare
            .filter(|b| Rc::strong_count(b) == 1)
            .unwrap_or_default();
        let b = Rc::get_mut(&mut block).expect("a spare no receiver holds");
        // What it rendered to was the spare's old samples.
        b.rendered.get_mut().0 = None;
        self.span
            .complete(pred.map(|p| &p.tail), &mut b.samples, &mut b.tail);
        // Past a packet of at least a head's frames, the block before
        // it reaches nothing the next packet laps.
        let alone = pred.is_none_or(|p| p.tail.frames() <= self.span.frames());
        b.tail_id = if alone { self.id } else { lap_id() };
        if done.len() == COMPLETIONS {
            done.remove(0);
        }
        done.push((lapped, Rc::clone(&block)));
        block
    }
}

/// The adapter's parser and decoder, as the node calls them.
pub trait Decoder {
    /// Parses one message the §5.1 gate released.
    fn parse(&mut self, raw: &Bytes) -> Result<Packet, WireError>;

    /// Decodes a cleared block at `now`: its PCM (for OVL, its span,
    /// which the node completes), the work units to bill and the
    /// instant it is ready; `None` if the payload does not decode.
    fn decode(
        &mut self,
        now: SimTime,
        codec: CodecId,
        channels: u8,
        payload: &Bytes,
    ) -> Option<(Pcm, u64, SimTime)>;
}

/// How a block reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayMode {
    /// Write it now: a block within epsilon of its deadline, a replica,
    /// or the early speaker's straight-through playback. A full ring
    /// drops the excess (§3.1).
    Now,
    /// It slept to its deadline: first re-anchor the device's playback
    /// grid if writing now would start it more than epsilon late.
    AtDeadline,
    /// The §3.4 player's blocking write; report its end with
    /// [`SpeakerNode::serial_done`].
    Serial,
}

/// A block handed to the device: `pcm` faded by `fade` (1 for a real
/// block) and scaled by `gain` (volume times the auto-volume gain).
pub struct Play {
    /// The decoded block.
    pub pcm: Pcm,
    /// A replica's fade.
    pub fade: f64,
    /// The speaker's gain.
    pub gain: f64,
    /// How to write it.
    pub mode: PlayMode,
}

impl Play {
    /// The block plays as decoded: no fade, unity gain.
    pub fn unity(&self) -> bool {
        self.fade == 1.0 && !self.scaled()
    }

    fn scaled(&self) -> bool {
        (self.gain - 1.0).abs() > 1e-9
    }

    /// Appends the block as this speaker plays it: faded, then scaled.
    pub fn render_into(&self, out: &mut Vec<i16>) {
        let from = out.len();
        out.extend_from_slice(&self.pcm.samples);
        if self.fade != 1.0 {
            apply_gain(&mut out[from..], self.fade);
        }
        if self.scaled() {
            apply_gain(&mut out[from..], self.gain);
        }
    }
}

/// A journal line, but for its stamp and the speaker's name.
pub struct Note {
    /// How much it matters.
    pub severity: Severity,
    /// `speaker`, or `session` for the session client's.
    pub component: &'static str,
    /// What happened.
    pub message: &'static str,
    /// Its fields.
    pub fields: Vec<(&'static str, String)>,
}

/// What the node decided; the adapter carries these out in order.
pub enum Action<A> {
    /// Program the audio device with this stream format.
    Configure(AudioConfig),
    /// Call [`SpeakerNode::on_wake`] at this instant, once per action.
    Wake(SimTime),
    /// Hand a block to the device, and count what it took.
    Play(Play),
    /// Unicast this NACK datagram to the stream's source.
    Nack(A, Bytes),
    /// Multicast this session datagram on the announce group.
    Announce(Bytes),
    /// Listen to this group instead of the tuned one; the node has
    /// re-gated already.
    Tune(McastGroup),
    /// Journal this (boxed: rare, and the largest).
    Note(Box<Note>),
}

/// Most decoded blocks held for the instant their §3.2 outcome is
/// carried out: a sleeping block's deadline or, on a CPU model, the end
/// of its decode. Chosen by measurement: the deepest any test or ledger
/// workload reaches is 29 (a burst of 29 blocks sent at once, all due
/// after it), a steady stream holds its playout delay over its block
/// length plus one (5 at the defaults). 64 is also the most packets a
/// producer keeps for repair, its bound on what one playout delay can
/// hold. Beyond it, blocks are an unauthenticated sender's far-future
/// deadlines, each a decoded block held until it is due.
pub(crate) const MAX_WAITING_BLOCKS: usize = 64;

/// Most OVL blocks held for a later packet to lap: the last one
/// settled, and a late copy of the block before one yet to play (or,
/// when that one has played, the one it lapped). Fewer held also lets
/// the receive memo reuse a block's memory sooner.
const LAP_BLOCKS: usize = 2;

/// A decoded block held for the instant its §3.2 outcome is carried
/// out: its deadline if it sleeps, else the instant its decode
/// completes.
struct Waiting {
    pcm: Pcm,
    /// How it plays; `None`: it is discarded as late.
    mode: Option<PlayMode>,
    deadline: SimTime,
    refill: bool,
    serial: bool,
}

/// What a wakeup is for: a block, or a poll of the hole table armed
/// for this (unclamped) instant.
enum Due {
    Poll(SimTime),
    Block(Waiting),
}

/// A negotiated speaker's session client and the control-packet count
/// its last tick saw: growth between ticks is proof the stream is
/// alive.
struct Session {
    client: SessionClient,
    controls_seen: u64,
}

/// One Ethernet Speaker; `A` is the adapter's address of the node a
/// NACK goes to.
pub struct SpeakerNode<A, D> {
    /// How it plays (its `session` taken: the node owns the client).
    pub cfg: SpeakerConfig,
    /// The counters, to which the adapter adds its device's: samples
    /// played, ring overflow, grid resyncs.
    pub stats: SpeakerStats,
    /// What the receive protocol knows of the stream.
    pub(crate) rx: RxState,
    /// How early blocks reach the §3.2 play decision, in microseconds
    /// (0 = at or past the deadline).
    pub deadline_slack_us: Histogram,
    /// The auto-volume controller, if enabled; the adapter feeds it
    /// what its microphone hears.
    pub autovol: Option<AutoVolume>,
    /// What the adapter is to carry out, oldest first.
    pub actions: Vec<Action<A>>,
    decoder: D,
    /// Every wakeup asked for and not yet served, earliest first;
    /// wakeups of one instant in the order they were asked for.
    timers: VecDeque<(SimTime, Due)>,
    /// The instant the hole table's next poll is armed for, if one is.
    wake_at: Option<SimTime>,
    /// The stream id and sender of the last control packet heard: the
    /// producer, its promoted standby, or a relay — where a NACK goes.
    pub(crate) source: Option<(u16, A)>,
    session: Option<Box<Session>>,
    /// The block most recently played, kept for concealment.
    last_block: Option<Pcm>,
    /// Blocks of the stream a later OVL packet may lap, newest first.
    pub(crate) laps: [Option<Pcm>; LAP_BLOCKS],
    serial_busy: bool,
    serial_queue: VecDeque<RxBlock>,
}

impl<A: Copy, D: Decoder> SpeakerNode<A, D> {
    /// A node playing as `cfg` says.
    pub fn new(mut cfg: SpeakerConfig, decoder: D) -> Self {
        let rx = RxState::new(cfg.auth_anchor, cfg.conceal_loss);
        let session = cfg.session.take().map(|ccfg| {
            let client = SessionClient::new(*ccfg);
            Box::new(Session {
                client,
                controls_seen: 0,
            })
        });
        SpeakerNode {
            autovol: cfg
                .auto_volume
                .as_ref()
                .map(|(avc, _)| AutoVolume::new(*avc)),
            cfg,
            stats: SpeakerStats::default(),
            rx,
            deadline_slack_us: Histogram::default(),
            actions: Vec::new(),
            decoder,
            timers: VecDeque::new(),
            wake_at: None,
            source: None,
            session,
            last_block: None,
            laps: Default::default(),
            serial_busy: false,
            serial_queue: VecDeque::new(),
        }
    }

    /// A negotiated speaker's session client.
    pub fn session(&self) -> Option<&SessionClient> {
        self.session.as_ref().map(|s| &s.client)
    }

    /// The earliest instant a wakeup is asked for.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.timers.front().map(|&(at, _)| at)
    }

    /// Switches channels: re-gate, and tell the adapter to listen to
    /// `group`.
    pub fn tune(&mut self, group: McastGroup) {
        self.retune();
        self.forget_blocks();
        self.actions.push(Action::Tune(group));
    }

    /// Control-plane FLUSH: drop playback state and re-gate on the
    /// next control packet, exactly as a fresh tune-in would. The
    /// producer uses this to resynchronize a fleet after a seek or a
    /// stream restart.
    pub fn resync(&mut self) {
        self.rx.regate();
        self.stats.session_resyncs += 1;
        self.forget_blocks();
        self.note(Severity::Info, "speaker", "session flush resync", vec![]);
    }

    /// Drops every block cleared before a re-gate — held for its §3.2
    /// outcome or queued behind the §3.4 player — the one a replica
    /// would replay and those a packet would lap: a page does not play
    /// over old music, nor a FLUSH pre-seek audio. A blocking write
    /// under way finishes; the player then finds its queue empty.
    fn forget_blocks(&mut self) {
        let serial = |due: &Due| matches!(due, Due::Block(w) if w.serial);
        if self.timers.iter().any(|(_, due)| serial(due)) {
            self.serial_busy = false;
        }
        self.timers.retain(|(_, due)| matches!(due, Due::Poll(_)));
        self.serial_queue.clear();
        self.last_block = None;
        self.laps = Default::default();
    }

    /// A datagram from `from`, received `now`: each message the §5.1
    /// gate releases is parsed and steps the protocol once, carrying
    /// out what it decides before the next is looked at.
    pub fn on_datagram(&mut self, now: SimTime, from: A, raw: &Bytes) {
        for raw in self.admit(raw) {
            match self.decoder.parse(&raw) {
                Ok(pkt) => {
                    if let Packet::Control(c) = &pkt {
                        self.source = Some((c.stream_id, from));
                    }
                    self.on_packet(now, pkt);
                }
                Err(_) => self.stats.bad_packets += 1,
            }
            self.arm_poll(now);
        }
    }

    /// Serves the earliest wakeup due at `now`, if any. An adapter calls
    /// this once per [`Action::Wake`], at its instant — or, driving the
    /// node from [`SpeakerNode::next_wake`], until nothing is due.
    pub fn on_wake(&mut self, now: SimTime) {
        if self.next_wake().is_none_or(|at| at > now) {
            return;
        }
        match self.timers.pop_front().expect("one is due").1 {
            // A poll superseded by an earlier one finds `wake_at` moved
            // on and does nothing.
            Due::Poll(at) if self.wake_at == Some(at) => {
                self.wake_at = None;
                self.poll_holes(now);
                self.arm_poll(now);
            }
            Due::Poll(_) => {}
            Due::Block(w) => self.settle(now, w),
        }
    }

    /// One tick of a negotiated speaker's session clock. Control
    /// packets are liveness: a producer still describing the stream
    /// defers the session timeout even if keepalive ACK-ing is quiet.
    pub fn on_session_tick(&mut self, now: SimTime) {
        self.step_session(now, |s, stats, now_us| {
            if stats.control_packets > s.controls_seen {
                s.controls_seen = stats.control_packets;
                s.client.note_stream_alive(now_us);
            }
            s.client.poll(now_us)
        });
    }

    /// The §3.4 player finished writing its block: take the next one
    /// or go idle.
    pub fn serial_done(&mut self, now: SimTime) {
        match self.serial_queue.pop_front() {
            Some(block) => self.decode(now, block, true),
            None => self.serial_busy = false,
        }
    }

    /// A control-plane packet: a negotiated speaker's session client
    /// steps on it.
    pub(crate) fn on_session(&mut self, now: SimTime, sp: &SessionPacket) {
        self.step_session(now, |s, _, now_us| s.client.on_packet(now_us, sp));
    }

    /// Arms a poll of the hole table at the instant it next asks for,
    /// if that is sooner than the one armed. After every step the armed
    /// poll is at or before the table's earliest instant: only a data
    /// packet opens a hole and brings that instant forward, and a
    /// retune or FLUSH only empties the table.
    fn arm_poll(&mut self, now: SimTime) {
        let next = self.rx.next_poll();
        let sooner = next.filter(|&at| self.wake_at.is_none_or(|armed| at < armed));
        if let Some(at) = sooner {
            self.wake_at = Some(at);
            self.arm(at.max(now), Due::Poll(at));
        }
    }

    /// Asks the adapter for a wakeup at `at` for `due`.
    fn arm(&mut self, at: SimTime, due: Due) {
        // A deadline is mostly the latest yet, a decode finishing on a
        // CPU model the earliest: look at the ends before searching.
        let i = match (self.timers.front(), self.timers.back()) {
            (_, Some(&(last, _))) if last <= at => self.timers.len(),
            (Some(&(first, _)), _) if at < first => 0,
            _ => self.timers.partition_point(|&(t, _)| t <= at),
        };
        self.timers.insert(i, (at, due));
        self.actions.push(Action::Wake(at));
    }

    pub(crate) fn note(
        &mut self,
        severity: Severity,
        component: &'static str,
        message: &'static str,
        fields: Vec<(&'static str, String)>,
    ) {
        let note = Note {
            severity,
            component,
            message,
            fields,
        };
        self.actions.push(Action::Note(Box::new(note)));
    }

    /// Steps a negotiated speaker's session client and carries out what
    /// it decided, in order. A static speaker has no client and ignores
    /// the control plane.
    fn step_session(
        &mut self,
        now: SimTime,
        step: impl FnOnce(&mut Session, &SpeakerStats, u64) -> Vec<ClientAction>,
    ) {
        let Some(session) = self.session.as_mut() else {
            return;
        };
        for action in step(session, &self.stats, now.as_micros()) {
            match action {
                ClientAction::Send(pkt) => {
                    self.actions.push(Action::Announce(encode_session(&pkt)));
                }
                ClientAction::JoinData(g) => self.tune(McastGroup(g)),
                ClientAction::LeaveData => self.tune(self.cfg.group),
                ClientAction::Resync => self.resync(),
                other => self.journal_session(other),
            }
        }
    }

    /// Journals a session-client decision under component `session`.
    fn journal_session(&mut self, action: ClientAction) {
        let (message, fields) = match action {
            ClientAction::Established {
                session_id,
                stream_id,
                group,
            } => (
                "session established",
                vec![
                    ("session_id", session_id.to_string()),
                    ("stream_id", stream_id.to_string()),
                    ("group", group.to_string()),
                ],
            ),
            ClientAction::Lost { session_id } => (
                "session lost; rediscovering",
                vec![("session_id", session_id.to_string())],
            ),
            ClientAction::Closed { session_id, reason } => (
                "session closed",
                vec![
                    ("session_id", session_id.to_string()),
                    ("reason", reason.to_string()),
                ],
            ),
            _ => ("setup attempts exhausted; rediscovering", vec![]),
        };
        self.note(Severity::Info, "session", message, fields);
    }

    /// A block the protocol cleared: decoded now, or queued behind the
    /// §3.4 player's busy thread.
    pub(crate) fn on_block(&mut self, now: SimTime, block: RxBlock) {
        let Some(depth) = self.cfg.serial_queue_depth else {
            return self.decode(now, block, false);
        };
        if !self.serial_busy {
            self.serial_busy = true;
            self.decode(now, block, true);
        } else if self.serial_queue.len() < depth {
            self.serial_queue.push_back(block);
        } else {
            // The player thread is wedged and the receive buffer is
            // full: §3.4's lost audio.
            self.stats.dropped_busy += 1;
        }
    }

    /// Decodes a block against the *live* stream state (a control
    /// packet can reconfigure the stream while a block sits in the
    /// serial queue) and applies §3.2's sleep/play/discard rule once,
    /// for the instant the decode completes; the early speaker plays
    /// whatever it decoded at once. The outcome is carried out now if
    /// it is due now, else held for its instant.
    fn decode(&mut self, now: SimTime, block: RxBlock, serial: bool) {
        let codec = self.codec_for(block.codec_wire);
        let channels = self.stream_config().channels;
        let Some((pcm, work, ready)) = self.decoder.decode(now, codec, channels, &block.payload)
        else {
            self.stats.decode_errors += 1;
            if serial {
                self.serial_done(now);
            }
            return;
        };
        self.stats.decode_work_units += work;
        let (deadline, refill) = (block.deadline, block.refill);
        let (at, mode) = if self.cfg.asap_playback && !serial {
            (ready, Some(PlayMode::Now))
        } else {
            let slack = deadline.saturating_since(ready).as_micros();
            self.deadline_slack_us.observe(slack);
            match decide(deadline, ready, self.cfg.epsilon) {
                PlayDecision::Sleep(_) if serial => (deadline, Some(PlayMode::Serial)),
                PlayDecision::Sleep(_) => (deadline, Some(PlayMode::AtDeadline)),
                PlayDecision::PlayNow if serial => (ready, Some(PlayMode::Serial)),
                PlayDecision::PlayNow => (ready, Some(PlayMode::Now)),
                PlayDecision::Discard { .. } => (ready, None),
            }
        };
        let waiting = Waiting {
            pcm,
            mode,
            deadline,
            refill,
            serial,
        };
        if at <= now {
            return self.settle(now, waiting);
        }
        self.arm(at, Due::Block(waiting));
        // Past the cap, the block held longest goes — the queue's last,
        // as it is ordered by instant: a flood of far-future deadlines
        // would otherwise hold every one of them.
        let held = |t: &(SimTime, Due)| matches!(t.1, Due::Block(_));
        if self.timers.len() > MAX_WAITING_BLOCKS
            && self.timers.iter().filter(|t| held(t)).count() > MAX_WAITING_BLOCKS
        {
            let last = self.timers.iter().rposition(held).expect("over the cap");
            self.timers.remove(last);
            self.stats.dropped_busy += 1;
        }
    }

    /// Carries out a block's §3.2 outcome.
    fn settle(&mut self, now: SimTime, w: Waiting) {
        let (pcm, faded) = self.complete(w.pcm);
        if let Some(mode) = w.mode {
            self.stats.faded_heads += u64::from(faded);
            return self.play(pcm, 1.0, mode);
        }
        self.late(now, w.deadline, w.refill);
        if w.serial {
            self.serial_done(now);
        }
    }

    /// The block a decoded payload plays: an OVL span completed by the
    /// held block it laps, if there is one, and whether its head is
    /// faded (it laps a block the node does not hold). An OVL block is
    /// held for the packet after it to lap; one that starts a fresh
    /// lap lets go of the stream before it.
    fn complete(&mut self, decoded: Pcm) -> (Pcm, bool) {
        let Some(span) = decoded.lapped.as_deref() else {
            return (decoded, false);
        };
        let pred = self
            .laps
            .iter()
            .flatten()
            .find(|b| span.span.laps_onto(&b.tail));
        let faded = span.span.laps() && pred.is_none();
        let pcm = span.completed(pred);
        if !span.span.laps() {
            self.laps = Default::default();
        }
        self.laps.rotate_right(1);
        self.laps[0] = Some(Rc::clone(&pcm));
        (pcm, faded)
    }

    /// A copy of a block that was due already plays nothing, but the
    /// block after it may still lap it: an OVL payload is decoded and
    /// held for that.
    pub(crate) fn hold_for_lap(&mut self, now: SimTime, block: &RxBlock) {
        let codec = self.codec_for(block.codec_wire);
        if codec != CodecId::Ovl {
            return;
        }
        let channels = self.stream_config().channels;
        if let Some((pcm, work, _)) = self.decoder.decode(now, codec, channels, &block.payload) {
            self.stats.decode_work_units += work;
            self.complete(pcm);
        }
    }

    /// PLC: nothing repaired the block due at `deadline`, the `nth`
    /// missing in a row. Replay the block played last, faded a step
    /// further each time. A gap that only showed once the block was
    /// overdue (an outage longer than the playout delay) has been heard
    /// as silence already; there is nothing left to paper over.
    pub(crate) fn conceal(&mut self, now: SimTime, deadline: SimTime, nth: u32) {
        let overdue = now.saturating_since(deadline) > self.cfg.epsilon;
        let prev = self.last_block.clone();
        if let Some(prev) = prev.filter(|b| !overdue && !b.samples.is_empty()) {
            self.play(prev, 0.6f64.powi(nth as i32), PlayMode::Now);
        }
    }

    /// Counts a block as played and hands it to the adapter at this
    /// speaker's gain.
    fn play(&mut self, pcm: Pcm, fade: f64, mode: PlayMode) {
        self.stats.data_packets += 1;
        if fade != 1.0 {
            self.stats.concealed_packets += 1;
        } else if self.cfg.conceal_loss && mode != PlayMode::Serial {
            // What a replica replays: the last real block played.
            self.last_block = Some(Rc::clone(&pcm));
        }
        let gain = self.cfg.volume * self.autovol.as_ref().map_or(1.0, AutoVolume::gain);
        let play = Play {
            pcm,
            fade,
            gain,
            mode,
        };
        self.actions.push(Action::Play(play));
    }

    /// Counts a §3.2 deadline miss. A late NACK refill is billed to
    /// `refill_late` instead: the gap it repaired was already counted
    /// as lost when detected, and classifying the repair itself as a
    /// miss made every loss burst cost the healing detector a second
    /// sick epoch (the "refill echo").
    pub(crate) fn late(&mut self, now: SimTime, deadline: SimTime, refill: bool) {
        let message = if refill {
            self.stats.refill_late += 1;
            "nack refill arrived past deadline"
        } else {
            self.stats.dropped_late += 1;
            "data packet discarded past deadline"
        };
        let late_us = now.saturating_since(deadline).as_micros();
        self.note(
            Severity::Debug,
            "speaker",
            message,
            vec![("late_us", late_us.to_string())],
        );
    }
}
