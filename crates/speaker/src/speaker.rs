//! The Ethernet Speaker — the receive-only playback device (§2.3, §2.4).
//!
//! "Our Ethernet Speakers function like radios, i.e., receive-only
//! devices": the speaker joins a multicast group, *waits for a control
//! packet* ("The Ethernet Speaker has to wait till it receives a
//! control packet before it can start playing the audio stream"),
//! learns the producer wall clock, and then plays each data packet at
//! its deadline — sleeping, playing, or discarding per §3.2's rule.
//! What the packets mean and what becomes of each block is
//! [`SpeakerNode`]'s call; this is the simulator adapter that
//! feeds the node from the simulated LAN and the engine's clock, sends
//! what it asks to send — NACKs to whoever the stream is heard from,
//! once it [requests repairs](EthernetSpeaker::request_repairs), and a
//! negotiated speaker's handshake — and plays what it clears.
//!
//! With [`SpeakerConfig::session`] set the same speaker is a negotiated
//! one (DESIGN.md §9): its node owns an [`es_proto::SessionClient`],
//! this adapter ticks it. Without it the speaker is the paper's
//! statically wired radio.
//!
//! The playback path is the full §3.4 pipeline: receive → (verify) →
//! decode (billable to a Geode-class CPU model) → write to the audio
//! device, whose ring and DMA pacing supply the final rate limiting.
//! Receiver-side buffer overflow (the §3.1 pathology: an unpaced
//! producer blasts a song at wire speed and "you will only hear the
//! first few seconds") shows up here as ring-full drops.

use std::rc::Rc;

use bytes::Bytes;
use es_audio::convert::encode_samples_into;
use es_audio::{AudioConfig, Encoding};
use es_codec::{CodecId, Codecs};
use es_net::{Dest, Lan, McastGroup, NodeId};
use es_proto::auth::VerifierStats;
use es_proto::{ClientPhase, Packet, SessionClient, SessionClientConfig};
use es_sim::{shared, work_to_cycles, RepeatingTimer, Shared, Sim, SimCpu, SimDuration, SimTime};
use es_telemetry::{Histogram, Journal, Registry, Severity, Stamp, Telemetry};
use es_vad::{AudioDevice, HwDriver, Ioctl, OutputTap, Retention};

use crate::autovol::{AmbientProfile, AutoVolumeConfig};
use crate::node::{
    Action, Decoder, Pcm, Play, PlayMode, SharedBlock, SpeakerNode, MAX_WAITING_BLOCKS,
};
use crate::rx::SpeakerStats;

/// Speaker tuning knobs.
pub struct SpeakerConfig {
    /// Display name (also the LAN node name).
    pub name: String,
    /// Channel group to tune at startup.
    pub group: McastGroup,
    /// §3.2's epsilon: lateness tolerated before data is discarded.
    pub epsilon: SimDuration,
    /// Audio device ring capacity in bytes (§3.4's buffer budget).
    pub device_ring_capacity: usize,
    /// Audio device block length in milliseconds (§3.4's knob: "by
    /// reducing the buffer size, each of the stages ... finishes
    /// faster").
    pub device_block_ms: u64,
    /// Optional CPU model billed for decode work (the slow-Geode
    /// pipeline of §3.4).
    pub cpu: Option<Shared<SimCpu>>,
    /// Optional trust anchor enabling stream authentication (§5.1).
    pub auth_anchor: Option<[u8; 32]>,
    /// Fixed volume gain (linear).
    pub volume: f64,
    /// Optional ambient-tracking automatic volume (§5.2).
    pub auto_volume: Option<(AutoVolumeConfig, AmbientProfile)>,
    /// When set, the playback path runs as the paper's single-threaded
    /// player (§3.4): receive, decode, then a *blocking* write to the
    /// device, one packet at a time, with at most this many packets
    /// queued behind the busy thread (the socket receive buffer).
    /// Packets arriving beyond that are lost — the "skipped audio" of
    /// §3.4. `None` (default) is the fully pipelined mode.
    pub serial_queue_depth: Option<usize>,
    /// Play packets as soon as they are decoded, ignoring the §3.2
    /// deadlines — the behaviour of the paper's *early* Ethernet
    /// Speaker, whose only buffering was the audio device ring. Used by
    /// the §3.4 buffer-size experiment: blocks larger than the ring
    /// overflow and audibly skip.
    pub asap_playback: bool,
    /// Conceal a block still missing when it is due by replaying the
    /// last block played, faded, instead of letting the device insert
    /// silence — an extension beyond the paper (its LAN never lost
    /// packets, §2.3); the E-LOSS ablation measures what it buys.
    pub conceal_loss: bool,
    /// Keep every sample the DAC plays readable from
    /// [`EthernetSpeaker::tap`] (memory then grows with the stream).
    /// Off, the tap keeps counts and block times only — plus the one
    /// control period of PCM `auto_volume` listens to, if that is set.
    pub capture_output: bool,
    /// Join a channel by the session handshake instead of static
    /// wiring: `group` is then the announce group the handshake runs
    /// on, and the speaker tunes to whichever data group it is granted.
    /// `None` (default) is the paper's statically wired radio. Boxed,
    /// like the client it becomes: a fleet's static speakers keep one
    /// pointer each.
    pub session: Option<Box<SessionClientConfig>>,
}

/// The §5.2 auto-volume control period (4 Hz): how often the loop runs
/// and how much recent DAC output each run listens to.
const AUTOVOL_PERIOD: SimDuration = SimDuration::from_millis(250);

/// How often a negotiated speaker advances its session client's timers.
/// Handshake latency quantizes to this; correctness does not depend on
/// it.
const SESSION_TICK: SimDuration = SimDuration::from_millis(100);

impl SpeakerConfig {
    /// Defaults: 20 ms epsilon, stock ring geometry, no CPU model, no
    /// auth, unit volume.
    pub fn new(name: impl Into<String>, group: McastGroup) -> Self {
        SpeakerConfig {
            name: name.into(),
            group,
            epsilon: crate::sync::DEFAULT_EPSILON,
            device_ring_capacity: es_vad::device::DEFAULT_RING_CAPACITY,
            device_block_ms: es_vad::device::DEFAULT_BLOCK_MS,
            cpu: None,
            auth_anchor: None,
            volume: 1.0,
            auto_volume: None,
            serial_queue_depth: None,
            asap_playback: false,
            conceal_loss: false,
            capture_output: false,
            session: None,
        }
    }

    /// What the DAC tap must retain for this speaker's readers.
    fn tap_retention(&self) -> Retention {
        if self.capture_output {
            Retention::Everything
        } else if self.auto_volume.is_some() {
            Retention::Recent(AUTOVOL_PERIOD)
        } else {
            Retention::Nothing
        }
    }
}

/// How many distinct buffers each receive memo remembers. A clean
/// fleet needs one (all receivers of a datagram run back to back in
/// one delivery batch); jitter, reordering, duplicates, parity and
/// interleaved channels keep a handful of datagrams in flight at
/// once. Chosen by measurement: 64 speakers behind 20 ms jitter, 10 %
/// reordering, 5 % duplication and FEC received 137 distinct datagrams
/// and parsed 2223 / 800 / 144 / 137 / 137 times at 1 / 2 / 4 / 8 / 16
/// slots — 8 is the smallest size at which every datagram is parsed
/// and decoded exactly once (DESIGN.md §7).
const RX_MEMO_SLOTS: usize = 8;

/// A fixed-size memo of a pure function of an immutable byte buffer
/// (and a small key). §2.3's multicast hands every speaker on a group
/// the *same* bytes, so what one receiver computed from them — the
/// parse with its CRC check, the codec decode — is what every other
/// receiver would compute. Entries are matched by buffer identity
/// first (the LAN fans out one pointer-equal [`Bytes`], and a segment
/// relay forwards that same buffer) and by byte equality otherwise
/// (auth-released copies and FEC-recovered payloads); each holds a
/// clone of its buffer, so the allocation stays alive and a recycled
/// address can never alias. Newest first; the oldest entry falls off
/// the end.
struct RxMemo<K, V> {
    slots: [Option<(Bytes, K, V)>; RX_MEMO_SLOTS],
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, V> RxMemo<K, V> {
    const fn new() -> Self {
        RxMemo {
            slots: [const { None }; RX_MEMO_SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    /// Hands `read` the memoized value for `(buf, key)`, computing it
    /// with `fill` on a miss. `fill` receives the evicted value, if
    /// any, so it can reuse that value's allocation.
    fn with<R>(
        &mut self,
        buf: &Bytes,
        key: K,
        fill: impl FnOnce(Option<V>) -> V,
        read: impl FnOnce(&V) -> R,
    ) -> R {
        let same = |held: &Bytes| {
            (held.as_ptr() == buf.as_ptr() && held.len() == buf.len()) || held == buf
        };
        for (held, k, v) in self.slots.iter().flatten() {
            if *k == key && same(held) {
                self.hits += 1;
                return read(v);
            }
        }
        self.misses += 1;
        self.slots.rotate_right(1);
        let [newest, ..] = &mut self.slots;
        let evicted = newest.take().map(|(_, _, v)| v);
        let (_, _, v) = newest.insert((buf.clone(), key, fill(evicted)));
        read(v)
    }
}

impl SharedBlock {
    /// The block as device bytes in `encoding`: rendered by the first
    /// receiver to ask, a handle to that rendering for the rest. A
    /// stream that changed encoding under a waiting block renders it
    /// again; the stale bytes stay with whoever still plays them.
    fn device_bytes(&self, encoding: Encoding) -> Rc<Vec<u8>> {
        let mut rendered = self.rendered.borrow_mut();
        let (held, bytes) = &mut *rendered;
        let hit = *held == Some(encoding);
        if !hit {
            if Rc::get_mut(bytes).is_none() {
                *bytes = Rc::default();
            }
            let out = Rc::get_mut(bytes).expect("unique or just replaced");
            encode_samples_into(&self.samples, encoding, out);
            *held = Some(encoding);
        }
        RENDERS.with(|r| {
            let (hits, misses) = r.get();
            r.set((hits + hit as u64, misses + !hit as u64));
        });
        Rc::clone(bytes)
    }
}

/// What a payload decodes to under one `(codec, channels)`:
/// the PCM, or the OVL span (kept on failure too, for its allocation)
/// and the work units to bill, `None` when the payload does not decode.
type Decoded = (Pcm, Option<u64>);

thread_local! {
    /// Wire bytes → parsed packet, and payload bytes → PCM or OVL span.
    /// Per thread, because independent simulations (the test suite's)
    /// run on parallel threads.
    static PARSED: std::cell::RefCell<RxMemo<(), Result<Packet, es_proto::WireError>>> =
        const { std::cell::RefCell::new(RxMemo::new()) };
    static DECODED: std::cell::RefCell<RxMemo<(CodecId, u8), Decoded>> =
        const { std::cell::RefCell::new(RxMemo::new()) };
    /// Blocks the decode memo let go of while a receiver still held
    /// them (one waiting out a playout delay longer than the memo's
    /// slots), oldest first: kept for their memory until the receiver
    /// drops them; at most as many as one speaker holds waiting.
    static HELD: std::cell::RefCell<Vec<Pcm>> = const { std::cell::RefCell::new(Vec::new()) };
    /// One codec engine, shared by every speaker on the thread (its
    /// decode keeps nothing between packets: each node laps its own
    /// blocks; the engine only holds MDCT tables and scratch).
    static ENGINE: std::cell::OnceCell<Codecs> = const { std::cell::OnceCell::new() };
    /// Unity-gain renderings shared and executed: `(hits, misses)`.
    static RENDERS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// OVL spans' completions shared and executed: `(hits, misses)`.
    static COMPLETIONS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// The action buffer every speaker on the thread steps its node
    /// with: each carries out what its step queued before the next
    /// step, so one buffer serves them all.
    static ACTIONS: std::cell::RefCell<Vec<Action<NodeId>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Decodes `payload` once per distinct buffer and `(codec, channels)`.
/// Every caller gets a handle to the one shared PCM block, or OVL span,
/// and the work units to bill; `None` if the payload does not decode.
fn decode_shared(codec: CodecId, channels: u8, payload: &Bytes) -> Option<(Pcm, u64)> {
    DECODED.with(|m| {
        m.borrow_mut().with(
            payload,
            (codec, channels),
            |evicted| {
                // Decode into the allocation of a block the memo let go
                // of and no receiver holds any more.
                let mut pcm = HELD.with_borrow_mut(|held| {
                    held.extend(evicted.map(|(pcm, _)| pcm));
                    let free = held.iter().position(|b| Rc::strong_count(b) == 1);
                    let pcm = free.map(|i| held.remove(i)).unwrap_or_default();
                    if held.len() > MAX_WAITING_BLOCKS {
                        held.remove(0);
                    }
                    pcm
                });
                let work = Rc::get_mut(&mut pcm).and_then(|block| {
                    // What it rendered to was the evicted PCM.
                    block.rendered.get_mut().0 = None;
                    ENGINE.with(|engine| {
                        let engine = engine.get_or_init(Codecs::new);
                        if codec != CodecId::Ovl {
                            block.lapped = None;
                            return engine
                                .decode_into(codec, payload, channels, &mut block.samples)
                                .ok();
                        }
                        let span = block.lapped.get_or_insert_default();
                        span.recycle();
                        engine.decode_span(payload, channels, &mut span.span).ok()
                    })
                });
                (pcm, work)
            },
            |(pcm, work)| work.map(|work| (Rc::clone(pcm), work)),
        )
    })
}

/// Counts one completion of an OVL span: `shared` if another receiver
/// had completed it from the same block.
pub(crate) fn count_completion(shared: bool) {
    COMPLETIONS.with(|c| {
        let (hits, misses) = c.get();
        c.set((hits + shared as u64, misses + !shared as u64));
    });
}

/// Hit and miss counts of this thread's receive memos: a miss is a
/// parse, a codec decode, an OVL span's completion or a unity-gain
/// rendering to device bytes actually executed, a hit one shared from
/// an earlier receiver of the same bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxMemoStats {
    /// Packets whose parse was shared.
    pub parse_hits: u64,
    /// Packets parsed (CRC-checked) for real.
    pub parse_misses: u64,
    /// Payloads whose PCM was shared from an earlier decode.
    pub decode_hits: u64,
    /// Payloads run through a codec for real.
    pub decode_misses: u64,
    /// OVL blocks shared from an earlier receiver that completed the
    /// same span from the same block before it.
    pub completion_hits: u64,
    /// OVL spans completed for real.
    pub completion_misses: u64,
    /// Blocks played from device bytes an earlier receiver rendered.
    pub render_hits: u64,
    /// Shared blocks rendered to device bytes for real. A speaker that
    /// scales or fades renders privately and counts as neither.
    pub render_misses: u64,
}

/// Cumulative [`RxMemoStats`] of the calling thread. A wall-clock-side
/// diagnostic in the style of `Sim::runs_opened`: it never enters a
/// registry, so fingerprints cannot see how much work was shared.
pub fn rx_memo_stats() -> RxMemoStats {
    let (parse_hits, parse_misses) = PARSED.with(|m| {
        let m = m.borrow();
        (m.hits, m.misses)
    });
    let (decode_hits, decode_misses) = DECODED.with(|m| {
        let m = m.borrow();
        (m.hits, m.misses)
    });
    let (render_hits, render_misses) = RENDERS.with(std::cell::Cell::get);
    let (completion_hits, completion_misses) = COMPLETIONS.with(std::cell::Cell::get);
    RxMemoStats {
        parse_hits,
        parse_misses,
        decode_hits,
        decode_misses,
        completion_hits,
        completion_misses,
        render_hits,
        render_misses,
    }
}

/// The decoder both adapters lend their node: parse and decode once
/// per datagram for every speaker on the thread (a simulated fleet
/// shares them; a live speaker is alone on its thread), each receiver
/// billing its own CPU model, if it has one, for its decode.
pub struct MemoDecoder {
    cpu: Option<Shared<SimCpu>>,
}

impl MemoDecoder {
    /// The decoder `cfg` asks for: its CPU model.
    pub fn new(cfg: &SpeakerConfig) -> Self {
        MemoDecoder {
            cpu: cfg.cpu.clone(),
        }
    }
}

impl Decoder for MemoDecoder {
    fn parse(&mut self, raw: &Bytes) -> Result<Packet, es_proto::WireError> {
        PARSED.with(|m| {
            m.borrow_mut()
                .with(raw, (), |_| es_proto::decode(raw), Clone::clone)
        })
    }

    fn decode(
        &mut self,
        now: SimTime,
        codec: CodecId,
        channels: u8,
        payload: &Bytes,
    ) -> Option<(Pcm, u64, SimTime)> {
        let (pcm, work) = decode_shared(codec, channels, payload)?;
        let cycles = work_to_cycles(work);
        let ready = self
            .cpu
            .as_ref()
            .map_or(now, |cpu| cpu.borrow_mut().submit(now, cycles));
        Some((pcm, work, ready))
    }
}

struct SpkState {
    /// The speaker's decisions; this is their simulator adapter.
    node: SpeakerNode<NodeId, MemoDecoder>,
    /// Where this speaker scales or fades a block; the shared block is
    /// only ever read.
    gain_scratch: Vec<i16>,
    /// Device bytes of the blocks this speaker scaled or faded. The
    /// device ring holds a handle to each until it has played, so
    /// there are as many as the ring queues blocks; one whose handle
    /// came back is rendered into again.
    private_bytes: Vec<Rc<Vec<u8>>>,
    journal: Option<Journal>,
    tuned: McastGroup,
}

/// Where a negotiated speaker's handshake stands, as of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    phase: ClientPhase,
    session_id: Option<u32>,
    counts: (u64, u64, u64, u64),
}

impl SessionStatus {
    fn of(client: &SessionClient) -> Self {
        SessionStatus {
            phase: client.phase(),
            session_id: client.session_id(),
            counts: (
                client.discovers_sent,
                client.setups_sent,
                client.sessions_established,
                client.sessions_lost,
            ),
        }
    }

    /// Where the handshake stands.
    pub fn phase(&self) -> ClientPhase {
        self.phase
    }

    /// The granted session id, while established.
    pub fn session_id(&self) -> Option<u32> {
        self.session_id
    }

    /// Handshake counters `(discovers, setups, established, lost)`.
    pub fn client_counts(&self) -> (u64, u64, u64, u64) {
        self.counts
    }
}

/// A running Ethernet Speaker: a handle every event it schedules
/// clones, so one pointer.
#[derive(Clone)]
pub struct EthernetSpeaker(Rc<Parts>);

struct Parts {
    state: std::cell::RefCell<SpkState>,
    lan: Lan,
    node: NodeId,
    dev: Rc<AudioDevice>,
    tap: Shared<OutputTap>,
}

impl EthernetSpeaker {
    /// Attaches the speaker to the LAN, joins its channel — or, when
    /// negotiated, the announce group — and starts listening.
    pub fn start(sim: &mut Sim, lan: &Lan, cfg: SpeakerConfig) -> EthernetSpeaker {
        let node = lan.attach(cfg.name.clone());
        lan.join(node, cfg.group);
        let (drv, tap) = HwDriver::new(cfg.tap_retention());
        let dev = Rc::new(AudioDevice::with_geometry(
            shared(drv),
            cfg.device_ring_capacity,
            cfg.device_block_ms,
        ));
        dev.open().expect("fresh device opens");
        let decoder = MemoDecoder::new(&cfg);
        let (autovol, negotiated) = (cfg.auto_volume.is_some(), cfg.session.is_some());
        let state = std::cell::RefCell::new(SpkState {
            tuned: cfg.group,
            node: SpeakerNode::new(cfg, decoder),
            gain_scratch: Vec::new(),
            private_bytes: Vec::new(),
            journal: None,
        });
        let spk = EthernetSpeaker(Rc::new(Parts {
            state,
            lan: lan.clone(),
            node,
            dev,
            tap,
        }));
        let s2 = spk.clone();
        lan.set_handler(node, move |sim, dg| {
            s2.step(sim, |n, now| n.on_datagram(now, dg.src, &dg.payload));
        });
        // Auto-volume control loop.
        if autovol {
            let s3 = spk.clone();
            RepeatingTimer::start(sim, AUTOVOL_PERIOD, move |sim| s3.autovol_tick(sim));
        }
        // The session client's clock.
        if negotiated {
            let s4 = spk.clone();
            let phase = SimDuration::from_millis(10);
            RepeatingTimer::start_with_phase(sim, SESSION_TICK, phase, move |sim| {
                s4.step(sim, SpeakerNode::on_session_tick)
            });
        }
        spk
    }

    /// Switches channels ("the ability to receive input from the user
    /// (e.g., some remote control device)", §5.3): leaves the old
    /// group, joins the new one, and waits for that stream's control
    /// packet before playing again. A negotiated speaker never leaves
    /// its announce group: its handshake runs there, whoever tunes it.
    pub fn tune(&self, sim: &mut Sim, group: McastGroup) {
        self.step(sim, |n, _| n.tune(group));
    }

    /// The group currently tuned.
    pub fn tuned(&self) -> McastGroup {
        self.0.state.borrow().tuned
    }

    /// The speaker's configured name.
    pub fn name(&self) -> String {
        self.0.state.borrow().node.cfg.name.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SpeakerStats {
        self.0.state.borrow().node.stats
    }

    /// Authentication counters, when auth is enabled.
    pub fn auth_stats(&self) -> Option<VerifierStats> {
        let st = self.0.state.borrow();
        st.node.rx.verifier.as_ref().map(|v| v.stats())
    }

    /// The DAC output tap: how much played and when, always; the
    /// samples themselves only with [`SpeakerConfig::capture_output`].
    pub fn tap(&self) -> Shared<OutputTap> {
        self.0.tap.clone()
    }

    /// The speaker's audio device (ring stats, underruns).
    pub fn device(&self) -> Rc<AudioDevice> {
        self.0.dev.clone()
    }

    /// The LAN node id.
    pub fn node(&self) -> NodeId {
        self.0.node
    }

    /// Current clock offset estimate versus the producer.
    pub fn clock_offset_us(&self) -> Option<i64> {
        self.0.state.borrow().node.rx.clock.offset_us()
    }

    /// Current auto-volume gain, if enabled.
    pub fn auto_gain(&self) -> Option<f64> {
        self.0
            .state
            .borrow()
            .node
            .autovol
            .as_ref()
            .map(|a| a.gain())
    }

    /// Attaches a journal for structured diagnostics (tuning, late
    /// packets, the session handshake and the like).
    pub fn set_journal(&self, journal: Journal) {
        self.0.state.borrow_mut().journal = Some(journal);
    }

    /// Where a negotiated speaker's handshake stands; `None` for a
    /// statically wired one.
    pub fn session(&self) -> Option<SessionStatus> {
        self.0.state.borrow().node.session().map(SessionStatus::of)
    }

    /// From now on the speaker asks for the blocks it is missing: each
    /// NACK the protocol raises leaves as a datagram unicast to the
    /// node it last heard a control packet of its stream from.
    pub fn request_repairs(&self) {
        self.0.state.borrow_mut().node.request_repairs();
    }

    /// Distribution of deadline slack seen by the §3.2 play decision.
    pub fn deadline_slack(&self) -> Histogram {
        self.0.state.borrow().node.deadline_slack_us.clone()
    }

    /// Records speaker counters, the deadline-slack histogram, the
    /// jitter-buffer depth, the producer-clock sync offset and the
    /// interarrival jitter into `registry` under component `speaker`,
    /// and a negotiated speaker's handshake counters under component
    /// `session`.
    pub fn record_telemetry(&self, registry: &mut Registry) {
        let st = self.0.state.borrow();
        let (node, rx) = (&st.node, &st.node.rx);
        node.stats.record(registry);
        let depth = self.0.dev.stats().ring_occupancy;
        let mut s = registry.component("speaker");
        s.histogram("deadline_slack_us", &node.deadline_slack_us)
            .gauge("jitter_buffer_bytes", depth as f64)
            .gauge("sync_offset_us", rx.clock.offset_us().unwrap_or(0) as f64)
            .gauge("quality_jitter_us", rx.jitter_us());
        if let Some(session) = node.session().map(SessionStatus::of) {
            let (discovers, setups, established, lost) = session.client_counts();
            registry
                .component("session")
                .counter("discovers_sent", discovers)
                .counter("setups_sent", setups)
                .counter("sessions_established", established)
                .counter("sessions_lost", lost);
        }
    }

    /// Steps the node at the current instant with `f`, then carries out
    /// everything it decided, in order.
    fn step(&self, sim: &mut Sim, f: impl FnOnce(&mut SpeakerNode<NodeId, MemoDecoder>, SimTime)) {
        // The node queues into the thread's buffer, which stays warm
        // across a fleet; a step nested in carrying one out (the §3.4
        // player's next block) finds it lent out and uses one of its own.
        let mut batch = ACTIONS.with_borrow_mut(std::mem::take);
        {
            let node = &mut self.0.state.borrow_mut().node;
            std::mem::swap(&mut node.actions, &mut batch);
            f(node, sim.now());
            std::mem::swap(&mut node.actions, &mut batch);
        }
        for action in batch.drain(..) {
            self.act(sim, action);
        }
        ACTIONS.with_borrow_mut(|actions| *actions = batch);
    }

    /// Carries out one of the node's decisions.
    fn act(&self, sim: &mut Sim, action: Action<NodeId>) {
        match action {
            Action::Configure(config) => {
                // Valid by parse; a refusing device keeps its format.
                let _ = self.0.dev.ioctl(sim, Ioctl::SetInfo(config));
            }
            Action::Wake(at) => {
                let spk = self.clone();
                sim.schedule_at(at, move |sim| spk.step(sim, SpeakerNode::on_wake));
            }
            Action::Play(play) => match play.mode {
                PlayMode::Now => self.write_out(sim, &play),
                PlayMode::AtDeadline => self.write_out_resync(sim, &play),
                PlayMode::Serial => self.serial_write(sim, &play),
            },
            Action::Nack(to, nack) => self.0.lan.send(sim, self.0.node, Dest::Unicast(to), nack),
            Action::Announce(pkt) => {
                let announce = Dest::Multicast(self.0.state.borrow().node.cfg.group);
                self.0.lan.send(sim, self.0.node, announce, pkt);
            }
            Action::Tune(group) => {
                let (old, keep) = {
                    let mut st = self.0.state.borrow_mut();
                    let keep = st.node.session().is_some().then_some(st.node.cfg.group);
                    (std::mem::replace(&mut st.tuned, group), keep)
                };
                let groups = [("from_group", old.0.into()), ("to_group", group.0.into())];
                self.journal(sim, Severity::Info, "tuned to new channel", &groups);
                if keep != Some(old) {
                    self.0.lan.leave(self.0.node, old);
                }
                self.0.lan.join(self.0.node, group);
            }
            Action::Note(n) => self.journal_in(sim, n.severity, n.component, n.message, n.fields),
        }
    }

    /// Journals a diagnostic about this speaker, if a journal is
    /// attached; `fields` follow the speaker's name.
    fn journal(&self, sim: &Sim, severity: Severity, message: &str, fields: &[(&str, u64)]) {
        let fields = fields.iter().map(|&(k, v)| (k, v.to_string()));
        self.journal_in(sim, severity, "speaker", message, fields);
    }

    /// [`Self::journal`] under any `component`.
    fn journal_in<'a>(
        &self,
        sim: &Sim,
        severity: Severity,
        component: &str,
        message: &str,
        fields: impl IntoIterator<Item = (&'a str, String)>,
    ) {
        let st = self.0.state.borrow();
        if let Some(j) = &st.journal {
            let mut named = vec![("speaker", st.node.cfg.name.clone())];
            named.extend(fields);
            let stamp = Stamp::virtual_ns(sim.now().as_nanos());
            j.emit(stamp, severity, component, message, &named);
        }
    }

    /// Renders a block to device bytes in the stream's encoding. The
    /// block is shared with every other receiver of its datagram, and
    /// at unity gain so are the bytes: the first receiver encodes
    /// them, the rest take a handle. Any other gain scales a copy in
    /// `gain_scratch` and encodes that into bytes of the speaker's
    /// own. That scratch and a tap that retains what it played
    /// (`Retention::Recent` for auto-volume, `Everything` on request)
    /// are the only per-speaker PCM copies left.
    fn render(&self, play: &Play) -> (Rc<Vec<u8>>, AudioConfig) {
        let mut st = self.0.state.borrow_mut();
        let st = &mut *st;
        let cfg = st.node.stream_config();
        if play.unity() {
            return (play.pcm.device_bytes(cfg.encoding), cfg);
        }
        st.gain_scratch.clear();
        play.render_into(&mut st.gain_scratch);
        let free = st
            .private_bytes
            .iter()
            .position(|b| Rc::strong_count(b) == 1);
        let slot = free.unwrap_or_else(|| {
            st.private_bytes.push(Rc::default());
            st.private_bytes.len() - 1
        });
        let bytes = &mut st.private_bytes[slot];
        let out = Rc::get_mut(bytes).expect("the device let go of it");
        encode_samples_into(&st.gain_scratch, cfg.encoding, out);
        (Rc::clone(bytes), cfg)
    }

    /// The §3.4 player's blocking `write(2)`: short writes park it on
    /// the device's writable wakeup; the last one frees it.
    fn serial_write(&self, sim: &mut Sim, play: &Play) {
        let (bytes, cfg) = self.render(play);
        let bytes_per_sample = cfg.encoding.bytes_per_sample() as usize;
        let (spk, player) = (self.clone(), self.clone());
        let played = move |n: usize, _short: bool| {
            spk.0.state.borrow_mut().node.stats.samples_played += (n / bytes_per_sample) as u64;
        };
        self.0.dev.write_all(sim, bytes, 0, played, move |sim| {
            player.step(sim, SpeakerNode::serial_done);
        });
    }

    /// §3.2's catch-up rule applied to the device timeline: "throwing
    /// away data up until the current wall time".
    ///
    /// The card block-quantizes writes onto a DMA grid whose phase is
    /// fixed at the first `trigger_output` — which the speaker issued
    /// using its *initial* clock snap. If that first control packet
    /// was itself delayed, the grid is permanently late: once the
    /// clock estimate improves, deadline-paced writes merely wait
    /// longer for the next boundary while the audible timeline stays
    /// exactly as late as the anchor was. So when a block has slept to
    /// its deadline and would still start more than epsilon late on
    /// the current grid, flush and re-trigger the device so the grid
    /// re-anchors at this deadline. The audio between the old and new
    /// anchors is thrown away — the paper's catch-up rule. (The
    /// unpaced `PlayMode::Now` path keeps §3.1 overflow semantics:
    /// blocks arriving in a burst drop at the full ring, not here.)
    fn write_out_resync(&self, sim: &mut Sim, play: &Play) {
        let epsilon = self.0.state.borrow().node.cfg.epsilon;
        // This block's projected start: wait for the next DMA boundary,
        // then behind whatever the ring already holds.
        let boundary_wait = self
            .0
            .dev
            .next_block_start(sim.now())
            .map_or(SimDuration::ZERO, |b| b.saturating_since(sim.now()));
        let queued = SimDuration::from_nanos(
            self.0
                .dev
                .config()
                .nanos_for_bytes(self.0.dev.stats().ring_occupancy as u64),
        );
        let lateness = boundary_wait + queued;
        if lateness > epsilon {
            self.0.dev.restart_output(sim);
            self.0.state.borrow_mut().node.stats.playback_resyncs += 1;
            self.journal(
                sim,
                Severity::Debug,
                "playback grid resynced to stream clock",
                &[("late_us", lateness.as_micros())],
            );
        }
        self.write_out(sim, play);
    }

    /// Hands a block to the device, rendered at this speaker's gain —
    /// one handle moves, no bytes; a full ring drops the excess
    /// (receiver-side overflow, §3.1).
    fn write_out(&self, sim: &mut Sim, play: &Play) {
        let (bytes, cfg) = self.render(play);
        let written = self.0.dev.write_shared(sim, &bytes, 0).unwrap_or(0);
        let played = (written / cfg.encoding.bytes_per_sample() as usize) as u64;
        let mut st = self.0.state.borrow_mut();
        let stats = &mut st.node.stats;
        stats.samples_played += played;
        stats.dropped_overflow_bytes += (bytes.len() - written) as u64;
    }

    /// One auto-volume control period: sample the simulated microphone
    /// and update the gain.
    fn autovol_tick(&self, sim: &mut Sim) {
        let now_s = sim.now().as_secs_f64();
        let ambient = {
            let st = self.0.state.borrow();
            let Some((_, profile)) = st.node.cfg.auto_volume.as_ref() else {
                return;
            };
            profile.level_at(now_s)
        };
        // What the speaker itself is putting out right now: the RMS of
        // the most recent control period of tap output.
        let out_rms = {
            let now_ns = sim.now().as_nanos();
            let since = SimTime::from_nanos(now_ns.saturating_sub(AUTOVOL_PERIOD.as_nanos()));
            let recent = self
                .0
                .tap
                .borrow()
                .samples_since(since)
                .expect("tap_retention keeps one control period for auto-volume");
            es_audio::analysis::rms(&recent)
        };
        let mic = crate::autovol::microphone_rms(ambient, out_rms);
        if let Some(av) = self.0.state.borrow_mut().node.autovol.as_mut() {
            av.update(mic, out_rms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use es_net::LanConfig;
    use es_proto::{encode_control, encode_data, ControlPacket, DataPacket};

    /// A default speaker whose tap keeps the PCM the test reads back.
    fn capturing(name: &str, group: McastGroup) -> SpeakerConfig {
        let mut cfg = SpeakerConfig::new(name, group);
        cfg.capture_output = true;
        cfg
    }

    fn lan() -> (Sim, Lan, NodeId) {
        let sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        (sim, lan, producer)
    }

    fn control_packet(seq: u32, t_us: u64) -> Bytes {
        encode_control(&ControlPacket {
            stream_id: 1,
            seq,
            producer_time_us: t_us,
            config: AudioConfig::CD,
            codec: CodecId::Pcm.to_wire(),
            quality: 0,
            control_interval_ms: 500,
            flags: 0,
        })
    }

    fn data_packet(seq: u32, play_at_us: u64, frames: usize) -> Bytes {
        let samples = vec![1_000i16; frames * 2];
        encode_data(&DataPacket {
            stream_id: 1,
            seq,
            play_at_us,
            codec: CodecId::Pcm.to_wire(),
            payload: Bytes::from(es_audio::convert::encode_samples(
                &samples,
                es_audio::Encoding::Slinear16Le,
            )),
        })
    }

    #[test]
    fn data_before_control_is_dropped() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        lan.multicast(&mut sim, producer, g, data_packet(0, 1_000, 2_205));
        sim.run();
        assert_eq!(spk.stats().dropped_waiting_control, 1);
        assert_eq!(spk.stats().data_packets, 0);
        // Control arrives; subsequent data plays.
        let now_us = sim.now().as_micros();
        lan.multicast(&mut sim, producer, g, control_packet(0, now_us));
        sim.run();
        let play_at = sim.now().as_micros() + 100_000;
        lan.multicast(&mut sim, producer, g, data_packet(1, play_at, 2_205));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(spk.stats().data_packets, 1);
        assert!(spk.stats().samples_played > 0);
    }

    #[test]
    fn late_data_is_discarded_within_epsilon_rules() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let mut cfg = SpeakerConfig::new("es1", g);
        cfg.epsilon = SimDuration::from_millis(20);
        let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        // Now is ~0.0002s; a deadline 100 ms in the past is too late…
        lan.multicast(&mut sim, producer, g, data_packet(0, 0, 2_205));
        sim.run_for(SimDuration::from_millis(200));
        // …wait: deadline 0 arrives at ~200 us: within epsilon, plays.
        assert_eq!(spk.stats().data_packets, 1);
        // A deadline epsilon+ in the past discards.
        let past = sim.now().as_micros().saturating_sub(50_000);
        lan.multicast(&mut sim, producer, g, data_packet(1, past, 2_205));
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(spk.stats().dropped_late, 1);
    }

    #[test]
    fn future_deadline_delays_playback() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        let deadline_us = 500_000u64;
        lan.multicast(&mut sim, producer, g, data_packet(0, deadline_us, 2_205));
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(spk.stats().samples_played, 0, "must still be sleeping");
        sim.run_until(SimTime::from_millis(700));
        assert!(spk.stats().samples_played > 0);
        let t0 = spk.tap().borrow().first_block_time().unwrap();
        // Written at ~500 ms (clock offset ≈ transmission delay).
        assert!(
            (t0.as_millis() as i64 - 500).abs() <= 60,
            "first audio at {t0}"
        );
    }

    /// A synced speaker on a 1 GHz CPU model (a cycle a nanosecond)
    /// and one block sent at 10 ms, due at `deadline`; the CPU is
    /// pre-loaded so the block's decode completes at `ready`.
    fn decoding(ready: SimTime, deadline: SimTime, asap: bool) -> (Sim, EthernetSpeaker) {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let cpu = shared(SimCpu::new(1_000_000_000, SimDuration::from_secs(1)));
        let mut cfg = capturing("es1", g);
        cfg.cpu = Some(cpu.clone());
        cfg.asap_playback = asap;
        let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run_until(SimTime::from_millis(10));
        let decode = work_to_cycles(2 * 2_205);
        let busy = ready.saturating_since(sim.now()).as_nanos() - decode;
        cpu.borrow_mut().submit(sim.now(), busy);
        let offset = spk.clock_offset_us().expect("synced") as u64;
        let block = data_packet(0, deadline.as_micros() - offset, 2_205);
        lan.multicast(&mut sim, producer, g, block);
        (sim, spk)
    }

    #[test]
    fn a_cpu_billed_block_is_judged_when_its_decode_completes() {
        let ms = SimTime::from_millis;
        let played_at = |spk: &EthernetSpeaker| spk.tap().borrow().first_block_time();
        // (a) Decoded before its deadline: it sleeps to the deadline,
        // and the slack is what was left when the decode completed.
        let (mut sim, spk) = decoding(ms(40), ms(100), false);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(played_at(&spk), Some(ms(100)));
        let slack = spk.deadline_slack();
        assert_eq!((slack.count(), slack.sum()), (1, 60_000));
        // (b) Done within epsilon past it: plays when the decode is.
        let (mut sim, spk) = decoding(ms(50), ms(40), false);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(played_at(&spk), Some(ms(50)));
        assert_eq!(spk.deadline_slack().count(), 1);
        // (c) Done beyond epsilon: discarded, once the decode is.
        let (mut sim, spk) = decoding(ms(70), ms(40), false);
        sim.run_until(ms(70) - SimDuration::from_nanos(1));
        assert_eq!(spk.stats().dropped_late, 0);
        sim.run_until(ms(70));
        assert_eq!((spk.stats().dropped_late, spk.stats().data_packets), (1, 0));
        // (d) The early speaker plays it once decoded, deadline or not.
        let (mut sim, spk) = decoding(ms(40), ms(100), true);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(played_at(&spk), Some(ms(40)));
        // (e) A tune while it decodes drops it.
        let (mut sim, spk) = decoding(ms(40), ms(100), false);
        sim.run_until(ms(20));
        spk.tune(&mut sim, McastGroup(2));
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!((st.data_packets, st.samples_played), (0, 0), "{st:?}");
        assert_eq!(played_at(&spk), None);
    }

    #[test]
    fn ring_overflow_drops_bytes() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let mut cfg = SpeakerConfig::new("es1", g);
        cfg.device_ring_capacity = 16_384;
        let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        // Blast 10 packets of 50 ms each, all due "now" — the §3.1
        // no-rate-limit pathology.
        for seq in 0..10 {
            lan.multicast(&mut sim, producer, g, data_packet(seq, 1_000, 2_205));
        }
        sim.run_for(SimDuration::from_millis(100));
        let st = spk.stats();
        assert!(st.dropped_overflow_bytes > 0, "{st:?}");
    }

    #[test]
    fn tune_switches_groups_and_regates() {
        let (mut sim, lan, producer) = lan();
        let g1 = McastGroup(1);
        let g2 = McastGroup(2);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g1));
        lan.multicast(&mut sim, producer, g1, control_packet(0, 0));
        sim.run();
        assert_eq!(spk.stats().control_packets, 1);
        spk.tune(&mut sim, g2);
        assert_eq!(spk.tuned(), g2);
        assert!(!lan.is_member(spk.node(), g1));
        assert!(lan.is_member(spk.node(), g2));
        // Old channel's packets no longer arrive; new channel gates on
        // control again.
        lan.multicast(&mut sim, producer, g1, data_packet(5, 1_000, 100));
        lan.multicast(&mut sim, producer, g2, data_packet(0, 1_000, 100));
        sim.run();
        let st = spk.stats();
        assert_eq!(st.dropped_waiting_control, 1, "g2 data gated");
        assert_eq!(st.data_packets, 0);
    }

    #[test]
    fn a_tune_or_flush_drops_every_block_cleared_before_it() {
        type Regate = fn(&EthernetSpeaker, &mut Sim);
        let tune: Regate = |spk, sim| spk.tune(sim, McastGroup(2));
        let flush: Regate = |spk, sim| spk.step(sim, |n, _| n.resync());
        for (regate, serial) in [
            (tune, None),
            (flush, None),
            (tune, Some(4)),
            (flush, Some(4)),
        ] {
            let (mut sim, lan, producer) = lan();
            let g = McastGroup(1);
            let mut cfg = SpeakerConfig::new("es1", g);
            cfg.serial_queue_depth = serial;
            let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
            lan.multicast(&mut sim, producer, g, control_packet(0, 0));
            for seq in 0..4u32 {
                let play_at = 200_000 + seq as u64 * 50_000;
                lan.multicast(&mut sim, producer, g, data_packet(seq, play_at, 2_205));
            }
            sim.run_until(SimTime::from_millis(100));
            regate(&spk, &mut sim);
            sim.run_for(SimDuration::from_secs(1));
            let st = spk.stats();
            assert_eq!(
                (st.data_packets, st.samples_played),
                (0, 0),
                "{serial:?}: {st:?}"
            );
            assert_eq!(spk.0.state.borrow().node.next_wake(), None);
            // The player is free for the stream it re-gated onto.
            let (tuned, now_us) = (spk.tuned(), sim.now().as_micros());
            lan.multicast(&mut sim, producer, tuned, control_packet(0, now_us));
            let block = data_packet(9, now_us + 100_000, 2_205);
            lan.multicast(&mut sim, producer, tuned, block);
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(spk.stats().data_packets, 1, "{serial:?}");
        }
    }

    #[test]
    fn corrupt_packets_are_counted_not_played() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        let mut bytes = control_packet(0, 0).to_vec();
        bytes[5] ^= 0xFF;
        lan.multicast(&mut sim, producer, g, Bytes::from(bytes));
        sim.run();
        assert_eq!(spk.stats().bad_packets, 1);
        assert_eq!(spk.stats().control_packets, 0);
    }

    #[test]
    fn quality_monitor_reports_health() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es", g));
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        for seq in [0u32, 1, 2, 4, 5] {
            lan.multicast(
                &mut sim,
                producer,
                g,
                data_packet(seq, 500_000 + seq as u64 * 50_000, 2_205),
            );
        }
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!(
            (st.quality_expected, st.quality_lost),
            (6, 1),
            "seq 3 missing"
        );
        assert_eq!(st.quality_reordered, 0);
        let mut reg = Registry::new();
        spk.record_telemetry(&mut reg);
        let snap = reg.snapshot();
        let quality: Vec<&str> = snap
            .iter()
            .map(|m| m.key.name.as_str())
            .filter(|name| name.starts_with("quality_"))
            .collect();
        let keys = [
            "quality_expected",
            "quality_lost",
            "quality_reordered",
            "quality_jitter_us",
        ];
        assert_eq!(quality.len(), 4, "{quality:?}");
        assert!(keys.iter().all(|k| quality.contains(k)), "{quality:?}");
        assert_eq!(snap.counter("speaker/0/quality_lost"), Some(1));
    }

    #[test]
    fn gap_is_concealed_when_enabled() {
        let (mut sim, net, producer) = lan();
        let g = McastGroup(1);
        let mut cfg = capturing("plc", g);
        cfg.conceal_loss = true;
        let spk = EthernetSpeaker::start(&mut sim, &net, cfg);
        net.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        // Packets 0, 1, then 4 (2 and 3 lost on the wire).
        for (seq, ms) in [(0u32, 300u64), (1, 350), (4, 500)] {
            net.multicast(&mut sim, producer, g, data_packet(seq, ms * 1_000, 2_205));
        }
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!(st.concealed_packets, 2, "{st:?}");
        // Concealed audio is faded copies of packet 1's constant 1000s.
        let played = spk.tap().borrow().samples().expect("capture_output");
        let nonzero = played.iter().filter(|&&s| s != 0).count();
        // 5 packets' worth of audio (3 real + 2 concealed), not 3.
        assert!(
            nonzero > 4 * 4_410 - 500,
            "concealment should fill the gap: {nonzero} non-zero samples"
        );
        // And without PLC the same run leaves the gap silent.
        let (mut sim2, lan2, producer2) = lan();
        let spk2 = EthernetSpeaker::start(&mut sim2, &lan2, capturing("raw", g));
        lan2.multicast(&mut sim2, producer2, g, control_packet(0, 0));
        sim2.run();
        for (seq, ms) in [(0u32, 300u64), (1, 350), (4, 500)] {
            lan2.multicast(&mut sim2, producer2, g, data_packet(seq, ms * 1_000, 2_205));
        }
        sim2.run_for(SimDuration::from_secs(1));
        assert_eq!(spk2.stats().concealed_packets, 0);
        let played2 = spk2.tap().borrow().samples().expect("capture_output");
        let nonzero2 = played2.iter().filter(|&&s| s != 0).count();
        assert!(nonzero2 < nonzero, "{nonzero2} vs {nonzero}");
    }

    #[test]
    fn volume_scales_output() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let mut cfg = capturing("quiet", g);
        cfg.volume = 0.5;
        let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        lan.multicast(&mut sim, producer, g, data_packet(0, 10_000, 2_205));
        sim.run_for(SimDuration::from_millis(200));
        let played = spk.tap().borrow().samples().expect("capture_output");
        let peak = played.iter().map(|&s| s.abs()).max().unwrap_or(0);
        assert_eq!(peak, 500, "1000 * 0.5");
    }

    #[test]
    fn auto_volume_hears_the_same_with_and_without_capture() {
        // Ten seconds of 50 ms packets with a one-second hole, in a room
        // that gets loud and quiet again: the gain moves with both the
        // ambient level and the speaker's own output.
        let run = |capture: bool| {
            let (mut sim, lan, producer) = lan();
            let g = McastGroup(1);
            let mut cfg = SpeakerConfig::new("av", g);
            let room = AmbientProfile::steps(vec![(0.0, 0.01), (3.0, 0.2), (7.0, 0.03)]);
            cfg.auto_volume = Some((AutoVolumeConfig::Music, room));
            cfg.capture_output = capture;
            let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
            lan.multicast(&mut sim, producer, g, control_packet(0, 0));
            let mut gains = Vec::new();
            for seq in 0..200u32 {
                if !(80..100).contains(&seq) {
                    let play_at = 300_000 + seq as u64 * 50_000;
                    lan.multicast(&mut sim, producer, g, data_packet(seq, play_at, 2_205));
                }
                sim.run_for(SimDuration::from_millis(50));
                gains.push(spk.auto_gain().unwrap());
            }
            let held = spk.tap().borrow().retained_samples();
            (gains, format!("{:?}", spk.stats()), held)
        };
        let (gains, stats, held) = run(false);
        let (gains_cap, stats_cap, held_cap) = run(true);
        assert!(gains.iter().any(|&g| g != gains[0]), "the gain moved");
        assert_eq!(gains, gains_cap, "one control period is all it listens to");
        assert_eq!(stats, stats_cap);
        // 250 ms of 50 ms blocks plus the one just started, however
        // long the stream; the capture holds all of it.
        assert!(held <= 6 * 4_410, "{held}");
        assert!(held_cap > 8 * 88_200, "{held_cap}");
    }

    #[test]
    fn duplicate_data_packets_play_once() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        // Each packet sent twice — the LAN duplication impairment seen
        // from the receiver side.
        for seq in 0..5u32 {
            let play_at = 300_000 + seq as u64 * 50_000;
            lan.multicast(&mut sim, producer, g, data_packet(seq, play_at, 2_205));
            lan.multicast(&mut sim, producer, g, data_packet(seq, play_at, 2_205));
        }
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!(st.dropped_duplicate, 5, "{st:?}");
        assert_eq!(st.data_packets, 5, "each timestamp plays exactly once");
        assert_eq!(st.samples_played, 5 * 4_410, "no doubled audio");
        // A copy never reaches the reception-quality count.
        assert_eq!((st.quality_expected, st.quality_lost), (5, 0));
    }

    #[test]
    fn tune_resets_duplicate_window() {
        let (mut sim, lan, producer) = lan();
        let g1 = McastGroup(1);
        let g2 = McastGroup(2);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g1));
        lan.multicast(&mut sim, producer, g1, control_packet(0, 0));
        sim.run();
        lan.multicast(&mut sim, producer, g1, data_packet(0, 300_000, 100));
        sim.run_for(SimDuration::from_millis(400));
        assert_eq!(spk.stats().data_packets, 1);
        // New channel reuses sequence number 0: it must not be filtered
        // as a duplicate of the old stream's packet 0.
        spk.tune(&mut sim, g2);
        let now_us = sim.now().as_micros();
        lan.multicast(&mut sim, producer, g2, control_packet(0, now_us));
        sim.run();
        lan.multicast(
            &mut sim,
            producer,
            g2,
            data_packet(0, now_us + 300_000, 100),
        );
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!(st.dropped_duplicate, 0, "{st:?}");
        assert_eq!(st.data_packets, 2);
    }

    /// A 50 ms CD block of the constant `value`, due at `300 ms + seq ·
    /// 50 ms` — late enough for a whole repair round trip.
    fn block(seq: u32, value: i16) -> Bytes {
        encode_data(&DataPacket {
            stream_id: 1,
            seq,
            play_at_us: due(seq).as_micros(),
            codec: CodecId::Pcm.to_wire(),
            payload: Bytes::from(es_audio::convert::encode_samples(
                &vec![value; 2 * 2_205],
                es_audio::Encoding::Slinear16Le,
            )),
        })
    }

    fn due(seq: u32) -> SimTime {
        SimTime::from_millis(300 + 50 * seq as u64)
    }

    /// Every NACK datagram a node received, with when it arrived.
    type NackLog = Shared<Vec<(SimTime, Vec<(u32, u16)>)>>;

    /// [`serving`] by a producer that answers nothing.
    fn repairing() -> (Sim, Lan, NodeId, EthernetSpeaker, NackLog) {
        serving(|_| false)
    }

    /// A concealing speaker that requests repairs, synchronized at
    /// time zero by a control packet from the producer node — so that
    /// is where its NACKs go. The node logs each NACK of stream 1 and,
    /// where `answer(k)` says so for the `k`-th, multicasts the blocks
    /// it names (`block(seq, 100 + seq)`).
    fn serving(
        answer: impl Fn(usize) -> bool + 'static,
    ) -> (Sim, Lan, NodeId, EthernetSpeaker, NackLog) {
        let (mut sim, lan, producer) = lan();
        let mut cfg = capturing("plc", McastGroup(1));
        cfg.conceal_loss = true;
        let spk = EthernetSpeaker::start(&mut sim, &lan, cfg);
        spk.request_repairs();
        let nacks: NackLog = shared(Vec::new());
        let (log, net) = (nacks.clone(), lan.clone());
        lan.set_handler(producer, move |sim, dg| {
            let Ok(Packet::Nack {
                stream_id: 1,
                ranges,
            }) = es_proto::decode(&dg.payload)
            else {
                return;
            };
            let k = log.borrow().len();
            log.borrow_mut().push((sim.now(), ranges.clone()));
            if answer(k) {
                for (first, count) in ranges {
                    for seq in first..first + u32::from(count) {
                        net.multicast(sim, producer, McastGroup(1), block(seq, 100 + seq as i16));
                    }
                }
            }
        });
        lan.multicast(&mut sim, producer, McastGroup(1), control_packet(0, 0));
        sim.run();
        (sim, lan, producer, spk, nacks)
    }

    /// The constant each 50 ms slot from `due(first)` on played at —
    /// `None` where the DAC had nothing (it pauses after two idle
    /// blocks).
    fn slots(spk: &EthernetSpeaker, first: u32, count: u32) -> Vec<Option<i16>> {
        let tap = spk.tap();
        let tap = tap.borrow();
        // Writes land on the DMA grid, up to a block after the
        // deadline: sample well inside the slot.
        let mid = |seq| due(seq) + SimDuration::from_millis(35);
        (first..first + count)
            .map(|seq| {
                let idx = tap.sample_index_at(mid(seq))?;
                tap.window(idx, 1)?.first().copied()
            })
            .collect()
    }

    /// `count` 50 ms OVL CD blocks of one stream, a chord, due like
    /// [`block`]'s; the encoder starts a fresh lap at each of `fresh`
    /// (the producer restarting) besides the first.
    fn ovl_blocks(count: u32, fresh: &[u32]) -> Vec<Bytes> {
        let codecs = Codecs::new();
        let mut chord = es_audio::gen::MultiTone::music(44_100);
        (0..count)
            .map(|seq| {
                if fresh.contains(&seq) {
                    codecs.reset();
                }
                let samples = es_audio::gen::render_interleaved(&mut chord, 2, 2_205);
                let enc = codecs.encode(CodecId::Ovl, &samples, 2, es_codec::MAX_QUALITY);
                encode_data(&DataPacket {
                    stream_id: 1,
                    seq,
                    play_at_us: due(seq).as_micros(),
                    codec: CodecId::Ovl.to_wire(),
                    payload: Bytes::from(enc.bytes),
                })
            })
            .collect()
    }

    /// A step of an OVL run, taken between its blocks.
    type Step<'a> = &'a dyn Fn(&mut Sim, &Lan, NodeId, &EthernetSpeaker);

    /// What a concealing, repair-asking speaker played of `blocks`, but
    /// for those `skip` names: its counters and every sample, after
    /// `between` ran at its instant (offered the sim, the LAN, the
    /// producer and the speaker).
    fn ovl_run(
        blocks: &[Bytes],
        skip: &[u32],
        between: Option<(SimTime, Step<'_>)>,
    ) -> (SpeakerStats, Vec<i16>) {
        let (mut sim, lan, producer, spk, _) = repairing();
        for (seq, b) in blocks.iter().enumerate() {
            if !skip.contains(&(seq as u32)) {
                lan.multicast(&mut sim, producer, McastGroup(1), b.clone());
            }
        }
        if let Some((at, step)) = between {
            sim.run_until(at);
            step(&mut sim, &lan, producer, &spk);
        }
        sim.run_for(SimDuration::from_secs(1));
        let played = spk.tap().borrow().samples().expect("capturing");
        (spk.stats(), played)
    }

    /// The block `seq`'s samples among those played, and its head: the
    /// frames the block before it laps.
    fn in_block(played: &[i16], seq: u32) -> (&[i16], &[i16]) {
        let block = &played[seq as usize * 4_410..][..4_410];
        let phase = seq as usize * 2_205 % es_codec::ovl::BLOCK;
        block.split_at(2 * (es_codec::ovl::DELAY - phase))
    }

    #[test]
    fn a_lost_ovl_block_fades_the_next_ones_head_and_is_concealed_once() {
        let blocks = ovl_blocks(6, &[]);
        let (clean, heard) = ovl_run(&blocks, &[], None);
        assert_eq!(
            (
                clean.faded_heads,
                clean.concealed_packets,
                clean.data_packets
            ),
            (0, 0, 6),
            "{clean:?}"
        );
        let (lossy, lost) = ovl_run(&blocks, &[3], None);
        assert_eq!(
            (
                lossy.faded_heads,
                lossy.concealed_packets,
                lossy.data_packets
            ),
            (1, 1, 6),
            "{lossy:?}"
        );
        assert_eq!(lost.len(), heard.len());
        // Block 3 is a replica, block 4's head faded; the rest is the
        // clean run's.
        for seq in [0, 1, 2, 5] {
            assert_eq!(in_block(&lost, seq), in_block(&heard, seq), "block {seq}");
        }
        assert_ne!(in_block(&lost, 3), in_block(&heard, 3));
        let ((faded, body), (head, clean_body)) = (in_block(&lost, 4), in_block(&heard, 4));
        assert_eq!(body, clean_body);
        assert_ne!(faded, head);
    }

    #[test]
    fn a_block_refilled_before_its_successor_plays_completes_its_head() {
        // Block 3's copy comes 25 ms after it was due (concealed by
        // then): it plays nothing, but block 4 laps it as in the clean
        // run.
        let blocks = ovl_blocks(6, &[]);
        let (_, heard) = ovl_run(&blocks, &[], None);
        let refill = |sim: &mut Sim, lan: &Lan, producer, _: &EthernetSpeaker| {
            lan.multicast(sim, producer, McastGroup(1), blocks[3].clone());
        };
        let at = due(3) + SimDuration::from_millis(25);
        let (st, played) = ovl_run(&blocks, &[3], Some((at, &refill)));
        assert_eq!(
            (st.refill_late, st.concealed_packets, st.faded_heads),
            (1, 1, 0),
            "{st:?}"
        );
        for seq in [0, 1, 2, 4, 5] {
            assert_eq!(in_block(&played, seq), in_block(&heard, seq), "block {seq}");
        }
    }

    #[test]
    fn a_refill_after_its_successor_played_rewrites_nothing() {
        let blocks = ovl_blocks(6, &[]);
        let (lossy, lost) = ovl_run(&blocks, &[3], None);
        let refill = |sim: &mut Sim, lan: &Lan, producer, _: &EthernetSpeaker| {
            lan.multicast(sim, producer, McastGroup(1), blocks[3].clone());
        };
        let at = due(4) + SimDuration::from_millis(25);
        let (st, played) = ovl_run(&blocks, &[3], Some((at, &refill)));
        assert_eq!((st.refill_late, st.faded_heads), (1, 1), "{st:?}");
        assert_eq!(
            (st.concealed_packets, st.data_packets),
            (lossy.concealed_packets, lossy.data_packets)
        );
        assert_eq!(played, lost, "block 5 still laps block 4");
    }

    #[test]
    fn flush_retune_and_a_new_format_each_start_a_fresh_lap() {
        // Between blocks 2 and 3 the speaker lets go of the stream and
        // hears its control packet again, then blocks 3–5: block 3 laps
        // a block the speaker no longer holds.
        let blocks = ovl_blocks(6, &[]);
        let resume = |sim: &mut Sim, lan: &Lan, producer, control: Bytes| {
            lan.multicast(sim, producer, McastGroup(1), control);
            for b in &blocks[3..] {
                lan.multicast(sim, producer, McastGroup(1), b.clone());
            }
        };
        let flush = |sim: &mut Sim, lan: &Lan, producer, spk: &EthernetSpeaker| {
            spk.step(sim, |node, _| node.resync());
            resume(sim, lan, producer, control_packet(1, sim.now().as_micros()));
        };
        let retune = |sim: &mut Sim, lan: &Lan, producer, spk: &EthernetSpeaker| {
            spk.tune(sim, McastGroup(1));
            resume(sim, lan, producer, control_packet(1, sim.now().as_micros()));
        };
        let reformat = |sim: &mut Sim, lan: &Lan, producer, _: &EthernetSpeaker| {
            let control = ControlPacket {
                stream_id: 1,
                seq: 1,
                producer_time_us: sim.now().as_micros(),
                config: AudioConfig {
                    sample_rate: 48_000,
                    ..AudioConfig::CD
                },
                codec: CodecId::Ovl.to_wire(),
                quality: 10,
                control_interval_ms: 500,
                flags: 0,
            };
            resume(sim, lan, producer, encode_control(&control));
        };
        let at = due(2) + SimDuration::from_millis(10);
        let between: [Step<'_>; 3] = [&flush, &retune, &reformat];
        for (what, step) in ["flush", "retune", "new format"].iter().zip(between) {
            let (st, _) = ovl_run(&blocks, &[3, 4, 5], Some((at, step)));
            assert_eq!(
                (st.faded_heads, st.concealed_packets, st.data_packets),
                (1, 0, 6),
                "{what}: {st:?}"
            );
        }
    }

    #[test]
    fn a_producer_restart_starts_a_fresh_lap_complete_on_its_own() {
        // The encoder starts over at block 3: it laps nothing, so its
        // head is what it decodes to alone, and no head is faded.
        let blocks = ovl_blocks(6, &[3]);
        let (st, played) = ovl_run(&blocks, &[], None);
        assert_eq!((st.faded_heads, st.data_packets), (0, 6), "{st:?}");
        let Ok(Packet::Data(d)) = es_proto::decode(&blocks[3]) else {
            panic!("block 3 parses");
        };
        let (alone, _) = Codecs::new().decode(CodecId::Ovl, &d.payload, 2).unwrap();
        assert_eq!(&played[3 * 4_410..][..4_410], &alone[..]);
    }

    #[test]
    fn hole_closed_by_fec_before_its_deadline_plays_the_real_block_once() {
        use es_proto::{encode_parity, ParityAccumulator};
        let (mut sim, lan, producer, spk, nacks) = repairing();
        let g = McastGroup(1);
        let data_of = |bytes: &Bytes| match es_proto::decode(bytes) {
            Ok(es_proto::Packet::Data(d)) => d,
            other => panic!("{other:?}"),
        };
        // Two parity groups of four, one per millisecond; seq 5 is
        // lost and its group's parity rebuilds it 3 ms after the gap
        // shows — inside the hold-off, so nothing is asked for either.
        let mut acc = ParityAccumulator::new(4);
        for seq in 0..8u32 {
            let b = block(seq, 100 + seq as i16);
            let parity = acc.absorb(&data_of(&b));
            if seq != 5 {
                lan.multicast(&mut sim, producer, g, b);
            }
            if let Some(p) = parity {
                lan.multicast(&mut sim, producer, g, encode_parity(&p));
            }
            sim.run_for(SimDuration::from_millis(1));
        }
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(spk.stats().fec_recovered, 1);
        assert_eq!(spk.0.state.borrow().node.table_sizes()[0], 0, "hole closed");
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!(
            (st.concealed_packets, st.playback_resyncs),
            (0, 0),
            "{st:?}"
        );
        assert_eq!((st.data_packets, st.samples_played), (8, 8 * 4_410));
        let want: Vec<_> = (100..108).map(Some).collect();
        assert_eq!(slots(&spk, 0, 8), want, "each block once, in its slot");
        assert!(nacks.borrow().is_empty(), "{:?}", nacks.borrow());
    }

    #[test]
    fn hole_closed_by_a_refill_before_its_deadline_plays_the_real_block_once() {
        let (mut sim, lan, producer, spk, nacks) = repairing();
        let g = McastGroup(1);
        for seq in [0u32, 1, 2, 5, 6] {
            lan.multicast(&mut sim, producer, g, block(seq, 100 + seq as i16));
        }
        // The hold-off passes, one NACK names both holes.
        sim.run_until(SimTime::from_millis(40));
        let asked: Vec<_> = nacks.borrow().iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(asked, [vec![(3, 2)]]);
        assert!(nacks.borrow()[0].0 >= SimTime::from_millis(20));
        // The producer answers; a LAN duplicate of one refill rides along.
        for seq in [3u32, 4, 4] {
            lan.multicast(&mut sim, producer, g, block(seq, 100 + seq as i16));
        }
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!((st.refills_received, st.refill_late), (2, 0), "{st:?}");
        assert_eq!(
            (st.concealed_packets, st.playback_resyncs),
            (0, 0),
            "{st:?}"
        );
        assert_eq!((st.data_packets, st.dropped_duplicate), (7, 1), "{st:?}");
        let want: Vec<_> = (100..107).map(Some).collect();
        assert_eq!(slots(&spk, 0, 7), want);
        assert_eq!(
            nacks.borrow().len(),
            1,
            "a filled hole is not asked for again"
        );
    }

    #[test]
    fn a_lost_nack_is_asked_again_and_the_refill_plays_in_its_slot() {
        // The producer loses the first request; the re-ask, 40 ms on,
        // is answered well before the block is due.
        let (mut sim, lan, producer, spk, nacks) = serving(|k| k == 1);
        for seq in [0u32, 1, 2, 4, 5] {
            lan.multicast(
                &mut sim,
                producer,
                McastGroup(1),
                block(seq, 100 + seq as i16),
            );
        }
        sim.run_for(SimDuration::from_secs(1));
        // (The gap shows when block 4 lands, four blocks' serialization
        // in; each NACK crosses the LAN once.)
        let times: Vec<u64> = nacks.borrow().iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, [23, 63], "{:?}", nacks.borrow());
        assert!(nacks.borrow().iter().all(|(_, r)| r == &[(3, 1)]));
        let st = spk.stats();
        assert_eq!(
            (st.nacks_sent, st.refills_received, st.refill_late),
            (2, 1, 0)
        );
        assert_eq!(
            (st.concealed_packets, st.playback_resyncs),
            (0, 0),
            "{st:?}"
        );
        let want: Vec<_> = (100..106).map(Some).collect();
        assert_eq!(slots(&spk, 0, 6), want);
    }

    #[test]
    fn both_asks_lost_write_exactly_one_replica() {
        let (mut sim, lan, producer, spk, nacks) = repairing();
        for seq in [0u32, 1, 2, 4, 5] {
            lan.multicast(
                &mut sim,
                producer,
                McastGroup(1),
                block(seq, 100 + seq as i16),
            );
        }
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(nacks.borrow().len(), 2, "asked twice, then left alone");
        let st = spk.stats();
        assert_eq!((st.nacks_sent, st.refills_received), (2, 0), "{st:?}");
        assert_eq!((st.concealed_packets, st.data_packets), (1, 6), "{st:?}");
        // Block 2 × 0.6 in the hole's slot.
        assert_eq!(slots(&spk, 0, 6), [100, 101, 102, 61, 104, 105].map(Some));
    }

    #[test]
    fn unrepaired_run_of_five_plays_three_fading_replicas_then_silence() {
        let (mut sim, lan, producer, spk, nacks) = repairing();
        let g = McastGroup(1);
        for (seq, value) in [(0u32, 1_000), (1, 1_000), (7, 5_000), (8, 5_000)] {
            lan.multicast(&mut sim, producer, g, block(seq, value));
        }
        // Nobody answers: asked at the hold-off, once more after the
        // re-ask interval, then left alone.
        sim.run_until(due(1));
        let times: Vec<u64> = nacks.borrow().iter().map(|(t, _)| t.as_millis()).collect();
        // (The gap showed when seq 7 arrived, a transit time in.)
        assert_eq!(times, [22, 62], "{:?}", nacks.borrow());
        assert!(nacks.borrow().iter().all(|(_, r)| r == &[(2, 5)]));
        assert_eq!(spk.stats().concealed_packets, 0, "nothing is due yet");
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!(st.concealed_packets, 3, "{st:?}");
        assert_eq!((st.data_packets, st.playback_resyncs), (4 + 3, 0), "{st:?}");
        // The last block *played* (not the newest received) × 0.6,
        // 0.36, 0.216 in the first three missing slots, nothing in the
        // other two, then the stream again.
        assert_eq!(
            slots(&spk, 1, 7),
            [1_000, 600, 360, 216, 0, 0, 5_000].map(Some)
        );
    }

    #[test]
    fn a_new_hole_is_asked_for_on_its_own_schedule() {
        let (mut sim, lan, producer, _spk, nacks) = repairing();
        let g = McastGroup(1);
        for seq in [0u32, 2] {
            lan.multicast(&mut sim, producer, g, block(seq, 1_000));
        }
        // Hole 1 has been asked for and waits for its re-ask when hole
        // 3 opens: the wakeup armed for the one moves up for the other.
        sim.run_until(SimTime::from_millis(30));
        lan.multicast(&mut sim, producer, g, block(4, 1_000));
        sim.run_until(due(0));
        let log: Vec<_> = nacks
            .borrow()
            .iter()
            .map(|(t, r)| (t.as_millis(), r[0]))
            .collect();
        assert_eq!(
            log,
            [(21, (1, 1)), (50, (3, 1)), (61, (1, 1)), (90, (3, 1))]
        );
    }

    #[test]
    fn a_gap_that_shows_late_conceals_only_what_is_not_yet_due() {
        let (mut sim, lan, producer, spk, nacks) = repairing();
        let g = McastGroup(1);
        for seq in [0u32, 1] {
            lan.multicast(&mut sim, producer, g, block(seq, 1_000));
        }
        // An outage longer than the playout delay: when seq 6 shows
        // the gap, blocks 2 and 3 are 80 and 30 ms overdue — heard as
        // silence already — and block 4 is due in 20 ms.
        sim.run_until(due(3) + SimDuration::from_millis(30));
        lan.multicast(&mut sim, producer, g, block(6, 5_000));
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        // Third in the run, so faded that far; the fourth is silent.
        assert_eq!((st.concealed_packets, st.dropped_late), (1, 0), "{st:?}");
        let heard: Vec<i16> = slots(&spk, 1, 6)
            .into_iter()
            .map(|s| s.unwrap_or(0))
            .collect();
        assert_eq!(heard, [1_000, 0, 0, 216, 0, 5_000]);
        // Only what a round trip could still save was asked for.
        assert!(nacks.borrow().iter().all(|(_, r)| r == &[(5, 1)]));
        assert_eq!(nacks.borrow().len(), 2);
    }

    #[test]
    fn refill_after_the_deadline_is_billed_late_and_writes_nothing() {
        let (mut sim, lan, producer, spk, _nacks) = repairing();
        let g = McastGroup(1);
        for seq in [0u32, 1, 3, 4] {
            lan.multicast(&mut sim, producer, g, block(seq, 1_000));
        }
        // The refill of seq 2 turns up 5 ms after the block was due:
        // inside §3.2's epsilon, but the replica has played.
        sim.run_until(due(2) + SimDuration::from_millis(5));
        assert_eq!(spk.stats().concealed_packets, 1);
        lan.multicast(&mut sim, producer, g, block(2, 7_777));
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!((st.refills_received, st.refill_late), (1, 1), "{st:?}");
        assert_eq!((st.dropped_late, st.dropped_duplicate), (0, 0), "{st:?}");
        assert_eq!((st.data_packets, st.samples_played), (5, 5 * 4_410));
        assert_eq!(
            slots(&spk, 0, 5),
            [1_000, 1_000, 600, 1_000, 1_000].map(Some)
        );
        // A late copy of a block nobody asked for is a plain miss.
        let past = sim.now().as_micros() - 100_000;
        lan.multicast(&mut sim, producer, g, data_packet(2_000, past, 100));
        sim.run_for(SimDuration::from_millis(100));
        let st = spk.stats();
        assert_eq!((st.dropped_late, st.refill_late), (1, 1), "{st:?}");
    }

    #[test]
    fn a_speaker_that_neither_conceals_nor_nacks_keeps_no_holes() {
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        for seq in [0u32, 1, 5] {
            lan.multicast(&mut sim, producer, g, block(seq, 1_000));
        }
        sim.run();
        assert_eq!(spk.0.state.borrow().node.table_sizes()[..2], [0, 0]);
        assert_eq!(spk.0.state.borrow().node.next_wake(), None);
        // A copy past its deadline is §3.2's discard, as ever.
        sim.run_until(due(3) + SimDuration::from_millis(30));
        lan.multicast(&mut sim, producer, g, block(3, 1_000));
        sim.run_for(SimDuration::from_secs(1));
        let st = spk.stats();
        assert_eq!((st.dropped_late, st.refill_late), (1, 0), "{st:?}");
        assert_eq!((st.data_packets, st.concealed_packets), (3, 0), "{st:?}");
    }

    #[test]
    fn parity_group_change_rebuilds_recoverer() {
        use es_proto::{encode_parity, ParityAccumulator};
        let (mut sim, lan, producer) = lan();
        let g = McastGroup(1);
        let spk = EthernetSpeaker::start(&mut sim, &lan, SpeakerConfig::new("es1", g));
        lan.multicast(&mut sim, producer, g, control_packet(0, 0));
        sim.run();
        let base = sim.now().as_micros() + 400_000;
        let raw = |seq: u32| data_packet(seq, base + seq as u64 * 10_000, 100);
        let data_of = |bytes: &Bytes| {
            let es_proto::Packet::Data(d) = es_proto::decode(bytes).unwrap() else {
                unreachable!()
            };
            d
        };
        // Priming group [0, 4): fully delivered. Its parity instantiates
        // the recoverer (it is created lazily on first parity).
        let mut acc = ParityAccumulator::new(4);
        let mut parity = None;
        for seq in 0..4u32 {
            let b = raw(seq);
            parity = acc.absorb(&data_of(&b)).or(parity);
            lan.multicast(&mut sim, producer, g, b);
            sim.run();
        }
        lan.multicast(&mut sim, producer, g, encode_parity(&parity.unwrap()));
        sim.run();
        // Lossy group [4, 8): seq 6 withheld — parity rebuilds it.
        let mut parity = None;
        for seq in 4..8u32 {
            let b = raw(seq);
            parity = acc.absorb(&data_of(&b)).or(parity);
            if seq != 6 {
                lan.multicast(&mut sim, producer, g, b);
                sim.run();
            }
        }
        lan.multicast(&mut sim, producer, g, encode_parity(&parity.unwrap()));
        sim.run();
        assert_eq!(spk.stats().fec_recovered, 1, "{:?}", spk.stats());
        // The healing plane tightens FEC to groups of 2: the first
        // count=2 parity must rebuild the recoverer, which then still
        // recovers a loss at the new level (parity-first ordering).
        let mut acc2 = ParityAccumulator::new(2);
        let mut parity2 = None;
        for seq in 8..10u32 {
            parity2 = acc2.absorb(&data_of(&raw(seq))).or(parity2);
        }
        lan.multicast(&mut sim, producer, g, encode_parity(&parity2.unwrap()));
        sim.run();
        lan.multicast(&mut sim, producer, g, raw(8)); // seq 9 withheld
        sim.run();
        assert_eq!(spk.stats().fec_recovered, 2, "{:?}", spk.stats());
        sim.run_for(SimDuration::from_secs(1));
    }
}
