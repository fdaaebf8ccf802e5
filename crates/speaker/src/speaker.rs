//! The Ethernet Speaker — the receive-only playback device (§2.3, §2.4).
//!
//! "Our Ethernet Speakers function like radios, i.e., receive-only
//! devices": the speaker joins a multicast group, *waits for a control
//! packet* ("The Ethernet Speaker has to wait till it receives a
//! control packet before it can start playing the audio stream"),
//! learns the producer wall clock, and then plays each data packet at
//! its deadline — sleeping, playing, or discarding per §3.2's rule.
//! What the packets mean is [`SpeakerRx`]'s call; this is the driver
//! that feeds it from the simulated LAN and plays what it clears — and,
//! once it [requests repairs](EthernetSpeaker::request_repairs), sends
//! the protocol's NACKs back up the LAN to whoever it hears the stream
//! from.
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
use es_audio::mix::apply_gain;
use es_audio::{AudioConfig, Encoding};
use es_codec::{CodecId, Codecs};
use es_net::{Datagram, Dest, Lan, McastGroup, NodeId};
use es_proto::auth::VerifierStats;
use es_proto::Packet;
use es_sim::{shared, CostModel, Shared, Sim, SimCpu, SimDuration, SimTime};
use es_telemetry::{Histogram, Journal, Registry, Severity, Stamp, Telemetry};
use es_vad::{AudioDevice, HwDriver, Ioctl, OutputTap, Retention};

use crate::autovol::{AmbientProfile, AutoVolume, AutoVolumeConfig};
use crate::rx::{RxBlock, RxEvent, SpeakerRx, SpeakerStats};
use crate::sync::{decide, PlayDecision};

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
    /// How transform decode work is billed to the CPU model: FFT
    /// accounting by default, [`es_codec::CostModel::Direct`] for the
    /// paper's O(N²)-codec load figures.
    pub cost_model: es_codec::CostModel,
    /// Keep every sample the DAC plays readable from
    /// [`EthernetSpeaker::tap`] (memory then grows with the stream).
    /// Off, the tap keeps counts and block times only — plus the one
    /// control period of PCM `auto_volume` listens to, if that is set.
    pub capture_output: bool,
}

/// The §5.2 auto-volume control period (4 Hz): how often the loop runs
/// and how much recent DAC output each run listens to.
const AUTOVOL_PERIOD: SimDuration = SimDuration::from_millis(250);

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
            cost_model: es_codec::CostModel::default(),
            capture_output: false,
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

// es-hot-path
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

/// One decoded block, shared by every receiver of the datagram it came
/// from: the interleaved PCM and, once a receiver has played it at
/// unity gain, the device bytes that PCM renders to. Nobody holding a
/// handle changes either: a speaker that scales or fades audio does so
/// in a copy of its own.
#[derive(Default)]
struct SharedBlock {
    samples: Vec<i16>,
    /// `samples` in the device encoding last asked for (`None` until
    /// somebody asks), in a buffer the device rings hold handles to.
    rendered: std::cell::RefCell<(Option<Encoding>, Rc<Vec<u8>>)>,
}

type Pcm = Rc<SharedBlock>;

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

/// What a payload decodes to under one `(cost model, codec, channels)`:
/// the PCM (kept on failure too, for its allocation) and the work
/// units to bill, `None` when the payload does not decode.
type Decoded = (Pcm, Option<u64>);

thread_local! {
    /// Wire bytes → parsed packet, and payload bytes → PCM. Per thread,
    /// because independent simulations (the test suite's) run on
    /// parallel threads.
    static PARSED: std::cell::RefCell<RxMemo<(), Result<Packet, es_proto::WireError>>> =
        const { std::cell::RefCell::new(RxMemo::new()) };
    static DECODED: std::cell::RefCell<RxMemo<(CostModel, CodecId, u8), Decoded>> =
        const { std::cell::RefCell::new(RxMemo::new()) };
    /// One codec engine per cost model, shared by every speaker on the
    /// thread (decode is stateless across packets; the engine only
    /// holds MDCT tables and scratch).
    static ENGINES: (std::cell::OnceCell<Codecs>, std::cell::OnceCell<Codecs>) =
        const { (std::cell::OnceCell::new(), std::cell::OnceCell::new()) };
    /// Unity-gain renderings shared and executed: `(hits, misses)`.
    static RENDERS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Decodes `payload` once per distinct buffer and `(model, codec,
/// channels)`. Every caller gets a handle to the one shared PCM block
/// and the work units to bill; `None` if the payload does not decode.
fn decode_shared(
    model: CostModel,
    codec: CodecId,
    channels: u8,
    payload: &Bytes,
) -> Option<(Pcm, u64)> {
    DECODED.with(|m| {
        m.borrow_mut().with(
            payload,
            (model, codec, channels),
            |evicted| {
                // Decode into the evicted block's allocation — unless
                // a receiver is still holding that block to play it.
                let mut pcm = evicted
                    .map(|(pcm, _)| pcm)
                    .filter(|pcm| Rc::strong_count(pcm) == 1)
                    .unwrap_or_default();
                let work = Rc::get_mut(&mut pcm).and_then(|block| {
                    // What it rendered to was the evicted PCM.
                    block.rendered.get_mut().0 = None;
                    ENGINES.with(|(direct, fft)| {
                        let engine = match model {
                            CostModel::Direct => direct,
                            CostModel::Fft => fft,
                        };
                        engine
                            .get_or_init(|| Codecs::with_cost_model(model))
                            .decode_into(codec, payload, channels, &mut block.samples)
                            .ok()
                    })
                });
                (pcm, work)
            },
            |(pcm, work)| work.map(|work| (Rc::clone(pcm), work)),
        )
    })
}

/// Hit and miss counts of this thread's receive memos: a miss is a
/// parse, a codec decode or a unity-gain rendering to device bytes
/// actually executed, a hit one shared from an earlier receiver of the
/// same bytes.
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
    RxMemoStats {
        parse_hits,
        parse_misses,
        decode_hits,
        decode_misses,
        render_hits,
        render_misses,
    }
}

// es-hot-path-end

/// Parses a wire packet (CRC check included) once per distinct
/// buffer: the first receiver of a datagram pays, the rest of the
/// fan-out clone the result.
fn parse_shared(raw: &Bytes) -> Result<Packet, es_proto::WireError> {
    PARSED.with(|m| {
        m.borrow_mut()
            .with(raw, (), |_| es_proto::decode(raw), Clone::clone)
    })
}

struct SpkState {
    cfg: SpeakerConfig,
    /// The receive protocol; this speaker is its simulator driver.
    rx: SpeakerRx,
    /// Reused buffer for what a message made the protocol decide.
    events: Vec<RxEvent>,
    serial_busy: bool,
    serial_queue: std::collections::VecDeque<RxBlock>,
    /// The block most recently handed to the device, kept for
    /// concealment.
    last_block: Option<Pcm>,
    /// The instant the protocol's next [`SpeakerRx::poll`] is scheduled
    /// for, if one is.
    wake_at: Option<SimTime>,
    /// Where this speaker scales or fades a block; the shared block is
    /// only ever read.
    gain_scratch: Vec<i16>,
    /// Device bytes of the blocks this speaker scaled or faded. The
    /// device ring holds a handle to each until it has played, so
    /// there are as many as the ring queues blocks; one whose handle
    /// came back is rendered into again.
    private_bytes: Vec<Rc<Vec<u8>>>,
    /// How early decoded blocks reach the §3.2 play decision, in
    /// microseconds (0 = at or past the deadline).
    deadline_slack_us: Histogram,
    journal: Option<Journal>,
    autovol: Option<AutoVolume>,
    tuned: McastGroup,
    /// The stream id and sender of the last control packet heard: the
    /// producer, its promoted standby, or a relay — where a NACK goes.
    source: Option<(u16, NodeId)>,
}

impl SpkState {
    /// What the protocol just decided, and the instant it wants to be
    /// polled at if that is sooner than the wakeup already armed.
    /// (Carrying the events out cannot open or close a hole, so the
    /// instant is known before they are.)
    fn take_decisions(&mut self) -> (Vec<RxEvent>, Option<SimTime>) {
        let next = self.rx.next_wakeup();
        let sooner = next.filter(|&at| self.wake_at.is_none_or(|armed| at < armed));
        if sooner.is_some() {
            self.wake_at = sooner;
        }
        (std::mem::take(&mut self.events), sooner)
    }
}

/// Callback receiving control-plane packets (see
/// [`EthernetSpeaker::set_session_handler`]).
type SessionHook = Box<dyn FnMut(&mut Sim, es_proto::SessionPacket)>;

/// A running Ethernet Speaker.
#[derive(Clone)]
pub struct EthernetSpeaker {
    state: Shared<SpkState>,
    lan: Lan,
    node: NodeId,
    dev: Rc<AudioDevice>,
    tap: Shared<OutputTap>,
    /// The control-plane delegate (the negotiated-mode wrapper owns
    /// the handshake; the speaker stays a §2.3 radio), in a cell of its
    /// own so the callback may re-enter `tune` and `resync`.
    session: Rc<std::cell::RefCell<Option<SessionHook>>>,
}

impl EthernetSpeaker {
    /// Attaches the speaker to the LAN, joins its channel and starts
    /// listening.
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
        let autovol = cfg
            .auto_volume
            .as_ref()
            .map(|(avc, _)| AutoVolume::new(*avc));
        let mut rx = SpeakerRx::new(cfg.auth_anchor);
        if cfg.conceal_loss {
            rx.conceal_losses();
        }
        let state = shared(SpkState {
            rx,
            events: Vec::new(),
            serial_busy: false,
            serial_queue: std::collections::VecDeque::new(),
            last_block: None,
            wake_at: None,
            gain_scratch: Vec::new(),
            private_bytes: Vec::new(),
            deadline_slack_us: Histogram::default(),
            journal: None,
            autovol,
            tuned: cfg.group,
            source: None,
            cfg,
        });
        let spk = EthernetSpeaker {
            state,
            lan: lan.clone(),
            node,
            dev,
            tap,
            session: Rc::default(),
        };
        let s2 = spk.clone();
        lan.set_handler(node, move |sim, dg| s2.on_datagram(sim, dg));
        // Auto-volume control loop.
        if spk.state.borrow().autovol.is_some() {
            let s3 = spk.clone();
            let timer =
                es_sim::RepeatingTimer::start(sim, AUTOVOL_PERIOD, move |sim| s3.autovol_tick(sim));
            std::mem::forget(timer);
        }
        spk
    }

    /// Switches channels ("the ability to receive input from the user
    /// (e.g., some remote control device)", §5.3): leaves the old
    /// group, joins the new one, and waits for that stream's control
    /// packet before playing again.
    pub fn tune(&self, sim: &mut Sim, group: McastGroup) {
        let old = {
            let mut st = self.state.borrow_mut();
            st.rx.retune();
            st.last_block = None;
            std::mem::replace(&mut st.tuned, group)
        };
        let groups = [("from_group", old.0.into()), ("to_group", group.0.into())];
        self.journal(sim, Severity::Info, "tuned to new channel", &groups);
        self.lan.leave(self.node, old);
        self.lan.join(self.node, group);
    }

    /// The group currently tuned.
    pub fn tuned(&self) -> McastGroup {
        self.state.borrow().tuned
    }

    /// The speaker's configured name.
    pub fn name(&self) -> String {
        self.state.borrow().cfg.name.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SpeakerStats {
        self.state.borrow().rx.stats
    }

    /// Authentication counters, when auth is enabled.
    pub fn auth_stats(&self) -> Option<VerifierStats> {
        self.state.borrow().rx.verifier.as_ref().map(|v| v.stats())
    }

    /// Reception-quality snapshot (jitter/loss/reorder) — what a §5.3
    /// management console would poll.
    pub fn quality(&self) -> es_proto::QualityReport {
        self.state.borrow().rx.monitor.report()
    }

    /// The DAC output tap: how much played and when, always; the
    /// samples themselves only with [`SpeakerConfig::capture_output`].
    pub fn tap(&self) -> Shared<OutputTap> {
        self.tap.clone()
    }

    /// The speaker's audio device (ring stats, underruns).
    pub fn device(&self) -> Rc<AudioDevice> {
        self.dev.clone()
    }

    /// The LAN node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current clock offset estimate versus the producer.
    pub fn clock_offset_us(&self) -> Option<i64> {
        self.state.borrow().rx.clock.offset_us()
    }

    /// Current auto-volume gain, if enabled.
    pub fn auto_gain(&self) -> Option<f64> {
        self.state.borrow().autovol.as_ref().map(|a| a.gain())
    }

    /// Attaches a journal for structured diagnostics (tuning, late
    /// packets and the like).
    pub fn set_journal(&self, journal: Journal) {
        self.state.borrow_mut().journal = Some(journal);
    }

    /// Installs the control-plane delegate: session packets received
    /// on any group this node listens to are handed to `f` instead of
    /// being dropped. Used by the negotiated-session wrapper in
    /// `es-core`; the speaker itself stays a stateless radio.
    pub fn set_session_handler(&self, f: impl FnMut(&mut Sim, es_proto::SessionPacket) + 'static) {
        *self.session.borrow_mut() = Some(Box::new(f));
    }

    /// From now on the speaker asks for the blocks it is missing: each
    /// NACK the protocol raises leaves as a datagram unicast to the
    /// node it last heard a control packet of its stream from.
    pub fn request_repairs(&self) {
        self.state.borrow_mut().rx.request_repairs();
    }

    /// Control-plane FLUSH: drop playback state and re-gate on the
    /// next control packet; see [`SpeakerRx::resync`].
    pub fn resync(&self, sim: &mut Sim) {
        {
            let mut st = self.state.borrow_mut();
            st.rx.resync();
            st.last_block = None;
        }
        self.journal(sim, Severity::Info, "session flush resync", &[]);
    }

    /// Sets the fixed volume gain (the control plane's PARAM update;
    /// auto-volume, when enabled, still multiplies on top).
    pub fn set_volume(&self, volume: f64) {
        self.state.borrow_mut().cfg.volume = volume;
    }

    /// Distribution of deadline slack seen by the §3.2 play decision.
    pub fn deadline_slack(&self) -> Histogram {
        self.state.borrow().deadline_slack_us.clone()
    }

    /// Records speaker counters, the deadline-slack histogram, the
    /// jitter-buffer depth, the producer-clock sync offset and the
    /// [`es_proto::StreamMonitor`] quality numbers into `registry`
    /// under component `speaker`.
    pub fn record_telemetry(&self, registry: &mut Registry) {
        let (stats, slack, offset, report) = {
            let st = self.state.borrow();
            (
                st.rx.stats,
                st.deadline_slack_us.clone(),
                st.rx.clock.offset_us(),
                st.rx.monitor.report(),
            )
        };
        stats.record(registry);
        let depth = self.dev.stats().ring_occupancy;
        let mut s = registry.component("speaker");
        s.histogram("deadline_slack_us", &slack)
            .gauge("jitter_buffer_bytes", depth as f64)
            .gauge("sync_offset_us", offset.unwrap_or(0) as f64)
            .gauge("quality_loss_fraction", report.loss_fraction)
            .gauge("quality_jitter_us", report.jitter_us)
            .counter("quality_received", report.received)
            .counter("quality_lost", report.lost)
            .counter("quality_reordered", report.reordered)
            .counter("quality_duplicates", report.duplicates);
    }

    /// Journals a diagnostic about this speaker, if a journal is
    /// attached; `fields` follow the speaker's name.
    fn journal(&self, sim: &Sim, severity: Severity, message: &str, fields: &[(&str, u64)]) {
        let st = self.state.borrow();
        if let Some(j) = &st.journal {
            let mut named = vec![("speaker", st.cfg.name.clone())];
            named.extend(fields.iter().map(|&(k, v)| (k, v.to_string())));
            let stamp = Stamp::virtual_ns(sim.now().as_nanos());
            j.emit(stamp, severity, "speaker", message, &named);
        }
    }

    fn on_datagram(&self, sim: &mut Sim, dg: Datagram) {
        let released = self.state.borrow_mut().rx.admit(&dg.payload);
        for raw in released {
            self.handle_packet(sim, dg.src, &raw);
        }
    }

    /// Every message this speaker acts on enters here, through the
    /// shared parse, and steps the protocol once.
    fn handle_packet(&self, sim: &mut Sim, from: NodeId, raw: &Bytes) {
        let parsed = parse_shared(raw);
        let decided = {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            match parsed {
                Ok(pkt) => {
                    if let Packet::Control(c) = &pkt {
                        st.source = Some((c.stream_id, from));
                    }
                    st.rx.on_packet(sim.now(), pkt, &mut st.events)
                }
                Err(_) => st.rx.stats.bad_packets += 1,
            }
            st.take_decisions()
        };
        self.carry_out(sim, decided);
    }

    /// Carries out what a step of the protocol — a message, or the
    /// clock — decided, before anything else is looked at, and makes
    /// sure the protocol is polled at the next instant it asks for.
    fn carry_out(&self, sim: &mut Sim, (mut events, wake): (Vec<RxEvent>, Option<SimTime>)) {
        for event in events.drain(..) {
            match event {
                RxEvent::Configure(config) => {
                    // Valid by parse; a refusing device keeps its format.
                    let _ = self.dev.ioctl(sim, Ioctl::SetInfo(config));
                }
                RxEvent::Block(block) => self.on_block(sim, block),
                RxEvent::Session(sp) => {
                    if let Some(hook) = self.session.borrow_mut().as_mut() {
                        hook(sim, *sp);
                    }
                }
                RxEvent::FecGroupChanged { from, to } => self.journal(
                    sim,
                    Severity::Info,
                    "fec parity group changed",
                    &[("from", from.into()), ("to", to.into())],
                ),
                RxEvent::Nack(ranges) => self.send_nack(sim, &ranges),
                RxEvent::Conceal { deadline, nth } => self.conceal(sim, deadline, nth),
                RxEvent::Late { deadline, refill } => self.note_late_drop(sim, deadline, refill),
            }
        }
        self.state.borrow_mut().events = events;
        if let Some(at) = wake {
            let spk = self.clone();
            sim.schedule_at(at.max(sim.now()), move |sim| spk.on_wakeup(sim, at));
        }
    }

    /// Unicasts a NACK for `ranges` to the stream's source. Holes open
    /// only behind a control packet, so there is one.
    fn send_nack(&self, sim: &mut Sim, ranges: &[(u32, u16)]) {
        let Some((stream_id, to)) = self.state.borrow().source else {
            return;
        };
        self.state.borrow_mut().rx.stats.nacks_sent += 1;
        let nack = es_proto::encode_nack(stream_id, ranges);
        self.lan.send(sim, self.node, Dest::Unicast(to), nack);
    }

    /// The instant the protocol asked for: holes that have waited out
    /// the reorder hold-off are NACKed, holes that are due concealed.
    /// A wakeup superseded by an earlier one finds `wake_at` moved on
    /// and does nothing.
    fn on_wakeup(&self, sim: &mut Sim, at: SimTime) {
        let decided = {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            if st.wake_at != Some(at) {
                return;
            }
            st.wake_at = None;
            st.rx.poll(sim.now(), &mut st.events);
            st.take_decisions()
        };
        self.carry_out(sim, decided);
    }

    /// PLC: nothing repaired the block due at `deadline`, the `nth`
    /// missing in a row. Replay the block played last, faded a step
    /// further each time — this speaker's fade alone, applied when it
    /// renders: its neighbours may be playing the same shared block.
    /// A gap that only showed once the block was overdue (an outage
    /// longer than the playout delay) has been heard as silence
    /// already; there is nothing left to paper over.
    fn conceal(&self, sim: &mut Sim, deadline: SimTime, nth: u32) {
        let (prev, epsilon) = {
            let st = self.state.borrow();
            (st.last_block.clone(), st.cfg.epsilon)
        };
        let overdue = sim.now().saturating_since(deadline) > epsilon;
        if let Some(prev) = prev.filter(|b| !overdue && !b.samples.is_empty()) {
            // Due now: straight to the device.
            self.write_out(sim, prev, 0.6f64.powi(nth as i32));
        }
    }

    /// Hands one block the protocol cleared to the player.
    fn on_block(&self, sim: &mut Sim, block: RxBlock) {
        let mut st = self.state.borrow_mut();
        let Some(depth) = st.cfg.serial_queue_depth else {
            drop(st);
            return self.process_pipelined(sim, block);
        };
        if st.serial_busy {
            if st.serial_queue.len() < depth {
                st.serial_queue.push_back(block);
            } else {
                // The player thread is wedged and the receive buffer is
                // full: §3.4's lost audio.
                st.rx.stats.dropped_busy += 1;
            }
            return;
        }
        st.serial_busy = true;
        drop(st);
        self.process_serial(sim, block);
    }

    // es-hot-path
    /// Decodes a cleared block against the *live* stream state (a
    /// control packet can reconfigure the stream while a block sits
    /// in the serial queue), billing the CPU model — every receiver
    /// pays for its decode, however many shared it; returns the
    /// samples — a handle to the shared decode — and the (possibly
    /// future) completion time.
    fn decode_pending(&self, sim: &mut Sim, p: &RxBlock) -> Option<(Pcm, SimTime)> {
        let (codec, channels, model) = {
            let st = self.state.borrow();
            let channels = st.rx.stream_config().channels;
            (st.rx.codec_for(p.codec_wire), channels, st.cfg.cost_model)
        };
        let Some((samples, work)) = decode_shared(model, codec, channels, &p.payload) else {
            self.state.borrow_mut().rx.stats.decode_errors += 1;
            return None;
        };
        let decoded_at = {
            let mut st = self.state.borrow_mut();
            st.rx.stats.decode_work_units += work;
            match &st.cfg.cpu {
                Some(cpu) => cpu
                    .borrow_mut()
                    .submit(sim.now(), crate::decode_work_to_cycles(work)),
                None => sim.now(),
            }
        };
        Some((samples, decoded_at))
    }

    /// The default pipelined path: every packet decodes independently
    /// and is scheduled at its deadline.
    fn process_pipelined(&self, sim: &mut Sim, p: RxBlock) {
        let Some((samples, decoded_at)) = self.decode_pending(sim, &p) else {
            return;
        };
        let spk = self.clone();
        sim.schedule_at(decoded_at, move |sim| {
            spk.schedule_play(sim, samples, p.deadline, p.refill);
        });
    }

    /// The §3.4 single-threaded path: decode, sleep to the deadline,
    /// then a blocking write; only then is the next packet considered.
    fn process_serial(&self, sim: &mut Sim, p: RxBlock) {
        let Some((samples, decoded_at)) = self.decode_pending(sim, &p) else {
            self.finish_serial(sim);
            return;
        };
        let (deadline, refill) = (p.deadline, p.refill);
        let spk = self.clone();
        sim.schedule_at(decoded_at, move |sim| {
            let epsilon = spk.state.borrow().cfg.epsilon;
            spk.observe_slack(sim, deadline);
            match decide(deadline, sim.now(), epsilon) {
                PlayDecision::Sleep(d) => {
                    let spk2 = spk.clone();
                    sim.schedule_in(d, move |sim| spk2.serial_write(sim, samples));
                }
                PlayDecision::PlayNow => spk.serial_write(sim, samples),
                PlayDecision::Discard { .. } => {
                    spk.note_late_drop(sim, deadline, refill);
                    spk.finish_serial(sim);
                }
            }
        });
    }

    fn serial_write(&self, sim: &mut Sim, samples: Pcm) {
        let (bytes, cfg) = self.render(&samples, 1.0);
        self.serial_write_bytes(sim, bytes, 0, cfg);
    }

    /// Counts a block as played and renders it to device bytes at this
    /// speaker's volume, times `fade` for a concealment replica. The
    /// block is shared with every other receiver of its datagram, and
    /// at unity gain so are the bytes: the first receiver encodes
    /// them, the rest take a handle. Any other gain scales a copy in
    /// `gain_scratch` and encodes that into bytes of the speaker's
    /// own. That scratch and a tap that retains what it played
    /// (`Retention::Recent` for auto-volume, `Everything` on request)
    /// are the only per-speaker PCM copies left.
    fn render(&self, block: &SharedBlock, fade: f64) -> (Rc<Vec<u8>>, AudioConfig) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        st.rx.stats.data_packets += 1;
        let cfg = st.rx.stream_config();
        let gain = st.cfg.volume * st.autovol.as_ref().map_or(1.0, |a| a.gain());
        let scaled = (gain - 1.0).abs() > 1e-9;
        if !scaled && fade == 1.0 {
            return (block.device_bytes(cfg.encoding), cfg);
        }
        st.gain_scratch.clear();
        st.gain_scratch.extend_from_slice(&block.samples);
        if fade != 1.0 {
            apply_gain(&mut st.gain_scratch, fade);
        }
        if scaled {
            apply_gain(&mut st.gain_scratch, gain);
        }
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

    /// A blocking `write(2)`: short writes park the player thread on
    /// the device's writable wakeup.
    fn serial_write_bytes(
        &self,
        sim: &mut Sim,
        bytes: Rc<Vec<u8>>,
        offset: usize,
        cfg: AudioConfig,
    ) {
        let n = self.dev.write_shared(sim, &bytes, offset).unwrap_or(0);
        let played = (n / cfg.encoding.bytes_per_sample() as usize) as u64;
        self.state.borrow_mut().rx.stats.samples_played += played;
        let next = offset + n;
        if next < bytes.len() {
            let spk = self.clone();
            self.dev.on_writable(move |sim| {
                spk.serial_write_bytes(sim, bytes, next, cfg);
            });
        } else {
            self.finish_serial(sim);
        }
    }

    /// The player thread finished a packet: take the next one or go
    /// idle.
    fn finish_serial(&self, sim: &mut Sim) {
        let next = {
            let mut st = self.state.borrow_mut();
            let next = st.serial_queue.pop_front();
            st.serial_busy = next.is_some();
            next
        };
        if let Some(p) = next {
            self.process_serial(sim, p);
        }
    }

    /// Applies §3.2's sleep/play/discard rule to a decoded block.
    fn schedule_play(&self, sim: &mut Sim, samples: Pcm, deadline: SimTime, refill: bool) {
        if self.state.borrow().cfg.asap_playback {
            // The early-ES pipeline: straight to the device.
            self.write_out(sim, samples, 1.0);
            return;
        }
        let epsilon = self.state.borrow().cfg.epsilon;
        self.observe_slack(sim, deadline);
        match decide(deadline, sim.now(), epsilon) {
            PlayDecision::Sleep(d) => {
                let spk = self.clone();
                sim.schedule_in(d, move |sim| spk.write_out_resync(sim, samples));
            }
            PlayDecision::PlayNow => self.write_out(sim, samples, 1.0),
            PlayDecision::Discard { .. } => self.note_late_drop(sim, deadline, refill),
        }
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
    /// unpaced PlayNow path keeps §3.1 overflow semantics: blocks
    /// arriving in a burst drop at the full ring, not here.)
    fn write_out_resync(&self, sim: &mut Sim, samples: Pcm) {
        let epsilon = self.state.borrow().cfg.epsilon;
        // This block's projected start: wait for the next DMA boundary,
        // then behind whatever the ring already holds.
        let boundary_wait = self
            .dev
            .next_block_start(sim.now())
            .map_or(SimDuration::ZERO, |b| b.saturating_since(sim.now()));
        let queued = SimDuration::from_nanos(
            self.dev
                .config()
                .nanos_for_bytes(self.dev.stats().ring_occupancy as u64),
        );
        let lateness = boundary_wait + queued;
        if lateness > epsilon {
            self.dev.restart_output(sim);
            self.state.borrow_mut().rx.stats.playback_resyncs += 1;
            self.journal(
                sim,
                Severity::Debug,
                "playback grid resynced to stream clock",
                &[("late_us", lateness.as_micros())],
            );
        }
        self.write_out(sim, samples, 1.0);
    }

    /// Records how early (or late: slack 0) a block reached the play
    /// decision.
    fn observe_slack(&self, sim: &mut Sim, deadline: SimTime) {
        let slack = deadline.saturating_since(sim.now()).as_micros();
        self.state.borrow_mut().deadline_slack_us.observe(slack);
    }

    /// Counts a §3.2 deadline miss and journals it. A late NACK refill
    /// is billed to `refill_late` instead: the gap it repaired was
    /// already counted as lost when detected, and classifying the
    /// repair itself as a miss made every loss burst cost the healing
    /// detector a second sick epoch (the "refill echo").
    fn note_late_drop(&self, sim: &mut Sim, deadline: SimTime, refill: bool) {
        self.state.borrow_mut().rx.stats.note_late(refill);
        let message = if refill {
            "nack refill arrived past deadline"
        } else {
            "data packet discarded past deadline"
        };
        let late = sim.now().saturating_since(deadline).as_micros();
        self.journal(sim, Severity::Debug, message, &[("late_us", late)]);
    }

    /// Hands a decoded block to the device, rendered at this speaker's
    /// volume — one handle moves, no bytes; a full ring drops the
    /// excess (receiver-side overflow, §3.1).
    fn write_out(&self, sim: &mut Sim, samples: Pcm, fade: f64) {
        let (bytes, cfg) = self.render(&samples, fade);
        let written = self.dev.write_shared(sim, &bytes, 0).unwrap_or(0);
        let played = (written / cfg.encoding.bytes_per_sample() as usize) as u64;
        let mut st = self.state.borrow_mut();
        st.rx.stats.samples_played += played;
        st.rx.stats.dropped_overflow_bytes += (bytes.len() - written) as u64;
        if fade != 1.0 {
            st.rx.stats.concealed_packets += 1;
        } else if st.cfg.conceal_loss {
            // What a replica replays: the last real block played.
            st.last_block = Some(samples);
        }
    }

    // es-hot-path-end

    /// One auto-volume control period: sample the simulated microphone
    /// and update the gain.
    fn autovol_tick(&self, sim: &mut Sim) {
        let now_s = sim.now().as_secs_f64();
        let (ambient, coupling) = {
            let st = self.state.borrow();
            let Some((avc, profile)) = st.cfg.auto_volume.as_ref() else {
                return;
            };
            (profile.level_at(now_s), avc.self_coupling)
        };
        // What the speaker itself is putting out right now: the RMS of
        // the most recent control period of tap output.
        let out_rms = {
            let now_ns = sim.now().as_nanos();
            let since = SimTime::from_nanos(now_ns.saturating_sub(AUTOVOL_PERIOD.as_nanos()));
            let recent = self
                .tap
                .borrow()
                .samples_since(since)
                .expect("tap_retention keeps one control period for auto-volume");
            es_audio::analysis::rms(&recent)
        };
        let mic = crate::autovol::microphone_rms(ambient, out_rms, coupling);
        if let Some(av) = self.state.borrow_mut().autovol.as_mut() {
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
        let q = spk.quality();
        assert_eq!(q.received, 5);
        assert_eq!(q.lost, 1, "seq 3 missing");
        assert!(q.loss_fraction > 0.1);
        assert_ne!(q.grade(), "good");
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
            cfg.auto_volume = Some((AutoVolumeConfig::music(), room));
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
        // The monitor still sees the duplicates (management numbers).
        assert_eq!(spk.quality().duplicates, 5);
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
        assert_eq!(spk.state.borrow().rx.table_sizes()[0], 0, "hole closed");
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
        assert_eq!(spk.state.borrow().rx.table_sizes()[..2], [0, 0]);
        assert_eq!(spk.state.borrow().wake_at, None);
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
