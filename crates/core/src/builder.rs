//! The system builder: one call-site to assemble a whole Ethernet
//! Speaker deployment in the simulator.
//!
//! A built system is Figure 1 of the paper: a producer host running the
//! VAD + rebroadcaster per channel, any number of Ethernet Speakers on
//! the same LAN (joining at arbitrary times — the mid-stream-join case
//! §3.2 worries about), and the catalog announcer of §4.3.

use std::rc::Rc;

use es_audio::gen::{ImpulseTrain, MultiTone, Signal, Sine, Sweep, WhiteNoise};
use es_audio::AudioConfig;
use es_codec::CostModel;
use es_net::{Datagram, Lan, LanConfig, McastGroup};
use es_proto::auth::StreamSigner;
use es_proto::{Capabilities, Packet, SessionClientConfig, StreamInfo};
use es_rebroadcast::{
    AppPacing, AudioApp, CompressionPolicy, RateLimiter, Rebroadcaster, RebroadcasterConfig,
    RelayConfig, SegmentRelay,
};
use es_sim::{Shared, Sim, SimCpu, SimDuration, SimTime};
use es_speaker::{AmbientProfile, AutoVolumeConfig, EthernetSpeaker, SessionStatus, SpeakerConfig};
use es_telemetry::{Journal, MetricsSnapshot, Registry, Telemetry};

use crate::catalog::CatalogAnnouncer;
use crate::error::Error;
use crate::heal_ctl::{HealMonitor, HealSpec};
use crate::session_ctl::{stream_info_for, SessionBroker};

/// What an audio application plays into a channel.
#[derive(Debug, Clone)]
pub enum Source {
    /// A pure tone at the given frequency.
    Tone(f32),
    /// The deterministic harmonic "music" generator.
    Music,
    /// Seeded white noise.
    Noise(u64),
    /// A linear sweep `f0 → f1` over the clip duration.
    Sweep(f32, f32),
    /// A click train (one impulse every N samples) — the sharpest
    /// signal for sync measurements.
    Impulses(u32),
}

impl Source {
    fn build(&self, cfg: &AudioConfig, duration: SimDuration) -> Box<dyn Signal> {
        match *self {
            Source::Tone(f) => Box::new(Sine::new(f, cfg.sample_rate, 0.6)),
            Source::Music => Box::new(MultiTone::music(cfg.sample_rate)),
            Source::Noise(seed) => Box::new(WhiteNoise::new(seed, 0.5)),
            Source::Sweep(f0, f1) => Box::new(Sweep::new(
                f0,
                f1,
                duration.as_secs_f64() as f32,
                cfg.sample_rate,
                0.6,
            )),
            Source::Impulses(period) => Box::new(ImpulseTrain::new(period, 0.9)),
        }
    }
}

/// One channel: an application, a VAD, a rebroadcaster, a group.
pub struct ChannelSpec {
    /// Stream id and packet label.
    pub stream_id: u16,
    /// Multicast group.
    pub group: McastGroup,
    /// Human-readable name (catalog entry).
    pub name: String,
    /// Stream format the application configures.
    pub config: AudioConfig,
    /// What the application plays.
    pub source: Source,
    /// Clip length.
    pub duration: SimDuration,
    /// Application pacing (wire-speed file playback vs. live source).
    pub pacing: AppPacing,
    /// Rate limiter for the rebroadcaster.
    pub rate_limiter: RateLimiter,
    /// Compression policy.
    pub policy: CompressionPolicy,
    /// Stream flags (e.g. [`es_proto::FLAG_PRIORITY`]).
    pub flags: u16,
    /// Bill encode work to this CPU (Figure 4).
    pub cpu: Option<Shared<SimCpu>>,
    /// Sign the stream (§5.1).
    pub signer: Option<Rc<StreamSigner>>,
    /// Delay before the application starts playing.
    pub start_at: SimDuration,
    /// VAD block length in milliseconds — one network packet per block,
    /// so this is §3.4's buffer-size knob.
    pub vad_block_ms: u64,
    /// Playout delay granted to receivers (data deadlines sit this far
    /// behind the producer stream clock).
    pub playout_delay: SimDuration,
    /// One XOR-parity packet per this many data packets (FEC extension
    /// for lossy links).
    pub fec_group: Option<u8>,
    /// How transform work is billed to the CPU model (paper-fidelity
    /// direct cost vs. the default FFT fast path).
    pub cost_model: CostModel,
}

impl ChannelSpec {
    /// A CD-quality music channel with paper-default settings.
    pub fn new(stream_id: u16, group: McastGroup, name: impl Into<String>) -> Self {
        ChannelSpec {
            stream_id,
            group,
            name: name.into(),
            config: AudioConfig::CD,
            source: Source::Music,
            duration: SimDuration::from_secs(10),
            pacing: AppPacing::RealTime,
            rate_limiter: RateLimiter::new(),
            policy: CompressionPolicy::paper_default(),
            flags: 0,
            cpu: None,
            signer: None,
            start_at: SimDuration::ZERO,
            vad_block_ms: 50,
            playout_delay: SimDuration::from_millis(200),
            fec_group: None,
            cost_model: CostModel::default(),
        }
    }

    /// Sets the stream format the application configures.
    pub fn config(mut self, config: AudioConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets what the application plays.
    pub fn source(mut self, source: Source) -> Self {
        self.source = source;
        self
    }

    /// Sets the clip length.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the application pacing.
    pub fn pacing(mut self, pacing: AppPacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Sets the rebroadcaster's rate limiter.
    pub fn rate_limiter(mut self, rl: RateLimiter) -> Self {
        self.rate_limiter = rl;
        self
    }

    /// Sets the compression policy.
    pub fn policy(mut self, policy: CompressionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the stream flags.
    pub fn flags(mut self, flags: u16) -> Self {
        self.flags = flags;
        self
    }

    /// Bills encode work to a CPU model.
    pub fn cpu(mut self, cpu: Shared<SimCpu>) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Signs the stream (§5.1).
    pub fn signer(mut self, signer: Rc<StreamSigner>) -> Self {
        self.signer = Some(signer);
        self
    }

    /// Delays the application start.
    pub fn start_at(mut self, at: SimDuration) -> Self {
        self.start_at = at;
        self
    }

    /// Sets the VAD block length in milliseconds.
    pub fn vad_block_ms(mut self, ms: u64) -> Self {
        self.vad_block_ms = ms;
        self
    }

    /// Sets the receiver playout delay.
    pub fn playout_delay(mut self, d: SimDuration) -> Self {
        self.playout_delay = d;
        self
    }

    /// Emits one XOR-parity packet per `n` data packets.
    pub fn fec_group(mut self, n: u8) -> Self {
        self.fec_group = Some(n);
        self
    }

    /// Selects how transform work is billed to the CPU model.
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }
}

/// One speaker: where it listens and when it powers on.
///
/// Builder methods use bare field names (`epsilon`, `volume`, …), the
/// same convention as [`ChannelSpec`].
pub struct SpeakerSpec {
    /// Speaker configuration.
    pub config: SpeakerConfig,
    /// When the speaker joins (mid-stream joins exercise §3.2).
    pub start_at: SimDuration,
}

impl SpeakerSpec {
    /// A default speaker statically wired to `group`, on from t=0. A
    /// speaker behind a [`RelaySpec`] is wired to the relay's
    /// downstream group.
    pub fn new(name: impl Into<String>, group: McastGroup) -> Self {
        SpeakerSpec {
            config: SpeakerConfig::new(name, group),
            start_at: SimDuration::ZERO,
        }
    }

    /// A speaker that joins `channel` via the session handshake: it
    /// discovers the line-up on the announce group, negotiates codec
    /// and playout delay, and only then tunes to the granted data
    /// group. Requires [`SystemBuilder::sessions`], whose announce
    /// group becomes the speaker's [`SpeakerConfig::group`].
    pub fn negotiated(name: impl Into<String>, channel: impl Into<String>) -> Self {
        let name = name.into();
        let mut spec = SpeakerSpec::new(name.clone(), McastGroup(0));
        spec.config.session = Some(Box::new(SessionClientConfig::new(name, channel)));
        spec
    }

    /// Sets the power-on time.
    pub fn starting_at(mut self, at: SimDuration) -> Self {
        self.start_at = at;
        self
    }

    /// Sets the capabilities a negotiated speaker advertises in the
    /// handshake; a static speaker advertises nothing.
    pub fn caps(mut self, caps: Capabilities) -> Self {
        if let Some(session) = &mut self.config.session {
            session.caps = caps;
        }
        self
    }

    // Shim owed to the next `benchmark` PR: the frozen `benches/ledger`
    // still labels its relayed speakers. Events carry no label; the
    // value is ignored.
    #[doc(hidden)]
    pub fn segment(self, _label: u32) -> Self {
        self
    }

    /// Sets the §3.2 epsilon.
    pub fn epsilon(mut self, eps: SimDuration) -> Self {
        self.config.epsilon = eps;
        self
    }

    /// Enables auth with a trust anchor.
    pub fn auth_anchor(mut self, anchor: [u8; 32]) -> Self {
        self.config.auth_anchor = Some(anchor);
        self
    }

    /// Bills decode work to a CPU model.
    pub fn cpu(mut self, cpu: Shared<SimCpu>) -> Self {
        self.config.cpu = Some(cpu);
        self
    }

    /// Enables ambient-tracking auto-volume.
    pub fn auto_volume(mut self, avc: AutoVolumeConfig, profile: AmbientProfile) -> Self {
        self.config.auto_volume = Some((avc, profile));
        self
    }

    /// Switches to the §3.4 single-threaded player with the given
    /// receive-queue depth.
    pub fn serial_pipeline(mut self, queue_depth: usize) -> Self {
        self.config.serial_queue_depth = Some(queue_depth);
        self
    }

    /// Overrides the audio device geometry (ring capacity, block ms).
    pub fn device_geometry(mut self, ring_capacity: usize, block_ms: u64) -> Self {
        self.config.device_ring_capacity = ring_capacity;
        self.config.device_block_ms = block_ms;
        self
    }

    /// Sets the fixed volume gain.
    pub fn volume(mut self, volume: f64) -> Self {
        self.config.volume = volume;
        self
    }

    /// Plays packets as soon as decoded, ignoring deadlines (the early
    /// ES of §3.4).
    pub fn asap_playback(mut self) -> Self {
        self.config.asap_playback = true;
        self
    }

    /// Enables packet-loss concealment (replay-and-fade).
    pub fn loss_concealment(mut self) -> Self {
        self.config.conceal_loss = true;
        self
    }

    /// Selects how transform decode work is billed to the CPU model.
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.config.cost_model = cost_model;
        self
    }

    /// Keeps every sample this speaker plays readable from its DAC tap
    /// — for WAV dumps, PCM comparisons and
    /// [`EsSystem::playback_offset`]. Without it the tap answers how
    /// much played and when, and the speaker's memory does not grow
    /// with the stream.
    pub fn capture_output(mut self) -> Self {
        self.config.capture_output = true;
        self
    }
}

/// One segment relay: subscribes to an upstream group and
/// re-multicasts every datagram it hears, unchanged and 2 ms later, on
/// a downstream group (the §4.4 "internet radio" hierarchy node; see
/// [`es_rebroadcast::SegmentRelay`]). Its fleet is the speakers tuned
/// to that group, and their §3.2 clock offset absorbs the hop.
pub struct RelaySpec {
    /// Group the relay subscribes to (a channel's group, or another
    /// relay's downstream).
    pub upstream: McastGroup,
    /// Group the relay re-multicasts on; its fleet's speakers tune
    /// here.
    pub downstream: McastGroup,
}

impl RelaySpec {
    /// A relay forwarding `upstream` onto `downstream`.
    pub fn new(upstream: McastGroup, downstream: McastGroup) -> Self {
        RelaySpec {
            upstream,
            downstream,
        }
    }

    // Shim owed to the next `benchmark` PR: the frozen `benches/ledger`
    // still labels its relays. Events carry no label; the value is
    // ignored.
    #[doc(hidden)]
    pub fn segment(self, _label: u32) -> Self {
        self
    }
}

/// Control-plane configuration: the announce group sessions are
/// negotiated on. The handshake's timers are
/// [`SessionClientConfig::new`]'s, and the broker expires a session
/// after the same [`es_proto::SESSION_TIMEOUT_US`] of silence.
pub struct SessionSpec {
    /// Group DISCOVER/OFFER (and the catalog, if enabled) run on.
    pub announce_group: McastGroup,
}

impl SessionSpec {
    /// Control plane on `announce_group`.
    pub fn new(announce_group: McastGroup) -> Self {
        SessionSpec { announce_group }
    }
}

/// Builder for a complete simulated deployment.
pub struct SystemBuilder {
    seed: u64,
    lan: LanConfig,
    channels: Vec<ChannelSpec>,
    speakers: Vec<SpeakerSpec>,
    relays: Vec<RelaySpec>,
    announce_group: Option<McastGroup>,
    sessions: Option<SessionSpec>,
    healing: Option<HealSpec>,
}

impl SystemBuilder {
    /// Starts a build with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        SystemBuilder {
            seed,
            lan: LanConfig::default(),
            channels: Vec::new(),
            speakers: Vec::new(),
            relays: Vec::new(),
            announce_group: None,
            sessions: None,
            healing: None,
        }
    }

    /// Sets the LAN physical parameters.
    pub fn lan(mut self, lan: LanConfig) -> Self {
        self.lan = lan;
        self
    }

    /// Adds a channel.
    pub fn channel(mut self, spec: ChannelSpec) -> Self {
        self.channels.push(spec);
        self
    }

    /// Adds a speaker.
    pub fn speaker(mut self, spec: SpeakerSpec) -> Self {
        self.speakers.push(spec);
        self
    }

    /// Adds a segment relay, making a producer → relays → per-group
    /// fleet topology declarable in one spec. A relay cannot parse an
    /// authenticated stream's control packets, so it could not route
    /// that stream's NACKs; combining relays with a channel signer is
    /// rejected by [`Self::try_build`].
    pub fn relay(mut self, spec: RelaySpec) -> Self {
        self.relays.push(spec);
        self
    }

    // Shim owed to the next `benchmark` PR: the engine has one event
    // queue, but the frozen `benches/ledger` harness still passes its
    // `--shards` value here.
    #[doc(hidden)]
    pub fn sim_shards(self, _n: usize) -> Self {
        self
    }

    /// Enables the §4.3 catalog announcer on `group`.
    pub fn announce_on(mut self, group: McastGroup) -> Self {
        self.announce_group = Some(group);
        self
    }

    /// Enables the session control plane: a [`SessionBroker`] on the
    /// producer host answers DISCOVER/SETUP on the spec's announce
    /// group, and [`SpeakerSpec::negotiated`] speakers become legal.
    pub fn sessions(mut self, spec: SessionSpec) -> Self {
        self.sessions = Some(spec);
        self
    }

    /// Enables the self-healing plane: every speaker asks for the
    /// blocks it misses (a NACK to whoever it hears the stream from),
    /// and a [`HealMonitor`] samples the fleet's counters every
    /// `spec.epoch` and repairs sustained faults (loss-adaptive FEC
    /// and — with [`HealSpec::standby`] — producer failover).
    pub fn healing(mut self, spec: HealSpec) -> Self {
        self.healing = Some(spec);
        self
    }

    /// Inert: decode lanes are gone — each datagram is decoded once
    /// and shared across the fan-out (DESIGN.md §7), which left the
    /// lanes nothing to parallelize. Kept only because the frozen
    /// `benches/ledger` harness still calls it; the next `benchmark`
    /// PR retires it together with the ledger's `--lanes` flag and
    /// `sim.lanes2_wall_ratio`.
    pub fn fleet_threads(self, _n: usize) -> Self {
        self
    }

    /// Assembles the system, panicking on invalid configuration. See
    /// [`Self::try_build`] for the fallible form.
    pub fn build(self) -> EsSystem {
        match self.try_build() {
            Ok(sys) => sys,
            Err(e) => panic!("invalid system configuration: {e}"),
        }
    }

    /// Validates the configuration and assembles the system.
    /// Applications and speakers with start delays are scheduled;
    /// nothing runs until [`EsSystem::run_for`]/[`EsSystem::run_until`].
    pub fn try_build(self) -> Result<EsSystem, Error> {
        let mut seen_ids = std::collections::BTreeSet::new();
        for ch in &self.channels {
            if !seen_ids.insert(ch.stream_id) {
                return Err(Error::Config(format!(
                    "duplicate stream id {}",
                    ch.stream_id
                )));
            }
        }
        if !self.relays.is_empty() {
            if let Some(ch) = self.channels.iter().find(|c| c.signer.is_some()) {
                return Err(Error::Config(format!(
                    "channel '{}' is signed, but a relay cannot parse a signed stream's \
                     control packets, so it cannot route that stream's NACKs",
                    ch.name
                )));
            }
            for r in &self.relays {
                if r.upstream == r.downstream {
                    return Err(Error::Config(format!(
                        "relay on group {} would loop: upstream == downstream",
                        r.upstream.0
                    )));
                }
            }
        }
        // Metrics instances, the detector's receivers and their
        // baselines are all keyed by name.
        let mut seen_names = std::collections::BTreeSet::new();
        for spec in &self.speakers {
            if !seen_names.insert(&spec.config.name) {
                return Err(Error::Config(format!(
                    "duplicate speaker name '{}'",
                    spec.config.name
                )));
            }
            if let Some(session) = &spec.config.session {
                if self.sessions.is_none() {
                    return Err(Error::Config(format!(
                        "negotiated speaker '{}' requires sessions(SessionSpec)",
                        spec.config.name
                    )));
                }
                if !self.channels.iter().any(|c| c.name == session.channel) {
                    return Err(Error::Config(format!(
                        "negotiated speaker '{}' wants unknown channel '{}'",
                        spec.config.name, session.channel
                    )));
                }
            }
        }

        let mut sim = Sim::new(self.seed);
        let journal = Journal::new();
        let lan = Lan::new(self.lan);
        lan.set_journal(journal.clone());
        let producer_node = lan.attach("producer-host");

        let mut rebroadcasters = Vec::new();
        let mut standbys = Vec::new();
        let mut apps: Vec<Shared<Option<AudioApp>>> = Vec::new();
        let mut stream_infos: Vec<StreamInfo> = Vec::new();
        let want_standby = self.healing.as_ref().is_some_and(|h| h.standby);
        let standby_node = want_standby.then(|| lan.attach("standby-host"));

        for ch in self.channels {
            // The slave ring must hold several blocks even when blocks
            // are large (§3.4 sweeps block sizes up to half a second).
            let block_bytes = ch.config.bytes_for_nanos(ch.vad_block_ms * 1_000_000) as usize;
            let ring = es_vad::device::DEFAULT_RING_CAPACITY.max(block_bytes * 4);
            let (slave, master) = es_vad::vad_pair_with_geometry(
                es_vad::VadMode::KernelThread {
                    poll: SimDuration::from_millis((ch.vad_block_ms / 4).max(5)),
                },
                ring,
                ch.vad_block_ms,
            );
            let mut rcfg = RebroadcasterConfig::new(ch.stream_id, ch.group);
            rcfg.tx.rate_limiter = ch.rate_limiter;
            rcfg.tx.policy = ch.policy;
            rcfg.tx.flags = ch.flags;
            rcfg.cpu = ch.cpu.clone();
            rcfg.tx.signer = ch.signer.clone();
            rcfg.tx.playout_delay = ch.playout_delay;
            rcfg.tx.fec_group = ch.fec_group;
            rcfg.tx.cost_model = ch.cost_model;
            // A warm standby shares the VAD master: it sees the same
            // stream but neither reads nor sends until promoted.
            let standby_parts = standby_node.map(|node| (node, master.clone(), rcfg.clone()));
            let rb = Rebroadcaster::start(&mut sim, lan.clone(), producer_node, master, rcfg);
            rb.set_journal(journal.clone());
            if let Some((node, master, scfg)) = standby_parts {
                let srb = Rebroadcaster::start_standby(&mut sim, lan.clone(), node, master, scfg);
                srb.set_journal(journal.clone());
                standbys.push(srb);
            }
            // The advertised entry carries the real codec selection and
            // capability set, derived from the channel's policy.
            stream_infos.push(stream_info_for(
                ch.stream_id,
                ch.group,
                &ch.name,
                ch.config,
                ch.flags,
                &ch.policy,
            ));

            // The application starts at its delay.
            let slave = Rc::new(slave);
            let signal = ch.source.build(&ch.config, ch.duration);
            let app_slot: Shared<Option<AudioApp>> = es_sim::shared(None);
            let slot2 = app_slot.clone();
            let cfg = ch.config;
            let duration = ch.duration;
            let pacing = ch.pacing;
            sim.schedule_in(ch.start_at, move |sim| {
                if let Ok(app) = AudioApp::start(sim, slave, cfg, signal, duration, pacing) {
                    *slot2.borrow_mut() = Some(app);
                }
            });
            apps.push(app_slot);
            rebroadcasters.push(rb);
        }

        let relays: Vec<SegmentRelay> = self
            .relays
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut rcfg = RelayConfig::new(spec.upstream, spec.downstream);
                rcfg.name = format!("relay{i}");
                SegmentRelay::start(&mut sim, &lan, rcfg)
            })
            .collect();

        let announcer = self.announce_group.map(|group| {
            lan.join(producer_node, group);
            CatalogAnnouncer::start(
                &mut sim,
                lan.clone(),
                producer_node,
                group,
                stream_infos.clone(),
            )
        });

        let producers = Rc::new(Producers {
            primaries: rebroadcasters,
            standbys,
        });
        let stream_ids: Rc<[u16]> = stream_infos.iter().map(|s| s.stream_id).collect();
        let broker = self.sessions.as_ref().map(|ses| {
            let journal = Some(journal.clone());
            SessionBroker::start(&mut sim, &lan, producer_node, ses, stream_infos, journal)
        });
        // What a producer host hears: session packets for the broker,
        // and NACKs, each served by whoever serves its stream now.
        let host = {
            let (producers, broker) = (producers.clone(), broker.clone());
            move |sim: &mut Sim, dg: Datagram| match es_proto::decode(&dg.payload) {
                Ok(Packet::Session(sp)) => {
                    if let Some(broker) = &broker {
                        broker.on_packet(sim, dg.src, &sp);
                    }
                }
                Ok(Packet::Nack { stream_id, ranges }) => {
                    if let Some(i) = stream_ids.iter().position(|&id| id == stream_id) {
                        producers.live(i).retransmit(sim, &ranges);
                    }
                }
                _ => {}
            }
        };
        for node in std::iter::once(producer_node).chain(standby_node) {
            lan.set_handler(node, host.clone());
        }

        let speakers: Rc<[SpeakerHandle]> =
            self.speakers.iter().map(|_| Default::default()).collect();
        let heal = self.healing.map(|spec| {
            let (producers, speakers) = (producers.clone(), speakers.clone());
            HealMonitor::new(spec, producers, speakers, broker.clone(), journal.clone())
        });
        for (mut spec, handle) in self.speakers.into_iter().zip(speakers.iter().cloned()) {
            if spec.config.session.is_some() {
                let ses = self.sessions.as_ref().expect("validated above");
                spec.config.group = ses.announce_group;
            }
            let (lan, journal) = (lan.clone(), journal.clone());
            // Under a healing plane every speaker repairs its own losses.
            let repair = heal.is_some();
            let power_on = move |sim: &mut Sim| {
                let spk = EthernetSpeaker::start(sim, &lan, spec.config);
                spk.set_journal(journal);
                if repair {
                    spk.request_repairs();
                }
                *handle.0.borrow_mut() = Some(spk);
            };
            // Inline at t=0: no event the build did not schedule before.
            if spec.start_at.is_zero() {
                power_on(&mut sim);
            } else {
                sim.schedule_in(spec.start_at, power_on);
            }
        }
        if let Some(mon) = &heal {
            mon.start(&mut sim);
        }

        Ok(EsSystem {
            sim,
            hub: MetricsHub {
                lan,
                producers,
                relays,
                apps,
                speakers,
                announcer,
                broker,
                heal,
            },
            journal,
        })
    }
}

/// Every channel's producers, in declaration order.
pub(crate) struct Producers {
    pub(crate) primaries: Vec<Rebroadcaster>,
    /// One per channel under [`HealSpec::standby`], else empty.
    pub(crate) standbys: Vec<Rebroadcaster>,
}

impl Producers {
    /// Who serves channel `i` now: its standby once promoted, else the
    /// primary. Asked of the rebroadcasters themselves every time —
    /// NACKs and FEC changes both follow this one answer, so neither
    /// can keep talking to a detached primary.
    pub(crate) fn live(&self, i: usize) -> &Rebroadcaster {
        match self.standbys.get(i) {
            Some(standby) if !standby.is_standby() => standby,
            _ => &self.primaries[i],
        }
    }
}

/// One declared speaker: empty until it powers on.
#[derive(Clone, Default)]
pub(crate) struct SpeakerHandle(Shared<Option<EthernetSpeaker>>);

impl SpeakerHandle {
    /// The speaker, once powered on.
    pub(crate) fn speaker(&self) -> Option<EthernetSpeaker> {
        self.0.borrow().clone()
    }
}

/// Every component's telemetry handles: the one place the "walk the
/// whole deployment and snapshot it" logic lives.
/// [`EsSystem::metrics`] delegates here.
struct MetricsHub {
    lan: Lan,
    producers: Rc<Producers>,
    relays: Vec<SegmentRelay>,
    apps: Vec<Shared<Option<AudioApp>>>,
    speakers: Rc<[SpeakerHandle]>,
    announcer: Option<CatalogAnnouncer>,
    broker: Option<SessionBroker>,
    heal: Option<HealMonitor>,
}

impl MetricsHub {
    /// Walks every component into one registry and freezes it; the
    /// registry's map becomes the snapshot, so at no point are there
    /// two copies of a fleet's metrics.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut reg = Registry::new();
        reg.set_instance("lan0");
        self.lan.stats().record(&mut reg);
        for (i, rb) in self.producers.primaries.iter().enumerate() {
            reg.set_instance(&format!("ch{i}"));
            rb.record_telemetry(&mut reg);
            // The stream's negotiated receivers live in the broker's
            // table, not in the producer; they are reported beside it.
            let broker = self.broker.as_ref();
            let (opened, expired, closed, active) =
                broker.map_or((0, 0, 0, 0), |b| b.table_counts(i));
            reg.component("rebroadcast")
                .counter("sessions_opened", opened)
                .counter("sessions_expired", expired)
                .counter("sessions_closed", closed)
                .gauge("sessions_active", active as f64);
            rb.vad_stats().record(&mut reg);
            if let Some(app) = self.apps[i].borrow().as_ref() {
                app.stats().record(&mut reg);
            }
        }
        for (i, rb) in self.producers.standbys.iter().enumerate() {
            reg.set_instance(&format!("standby{i}"));
            rb.record_telemetry(&mut reg);
        }
        for (i, relay) in self.relays.iter().enumerate() {
            reg.set_instance(&format!("relay{i}"));
            relay.stats().record(&mut reg);
        }
        for handle in self.speakers.iter() {
            let Some(spk) = handle.speaker() else {
                continue;
            };
            reg.set_instance(&spk.name());
            spk.record_telemetry(&mut reg);
            spk.device().stats().record(&mut reg);
        }
        if let Some(a) = &self.announcer {
            reg.set_instance("catalog");
            reg.component("net").counter("announcements_sent", a.sent());
        }
        if let Some(b) = &self.broker {
            reg.set_instance("broker");
            b.record_telemetry(&mut reg);
        }
        if let Some(m) = &self.heal {
            reg.set_instance("heal0");
            m.stats().record(&mut reg);
        }
        reg.snapshot()
    }
}

/// A built deployment.
pub struct EsSystem {
    /// The simulator; exposed for custom event scheduling.
    pub sim: Sim,
    hub: MetricsHub,
    journal: Journal,
}

impl EsSystem {
    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Runs until an absolute virtual time.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// The LAN fabric.
    pub fn lan(&self) -> &Lan {
        &self.hub.lan
    }

    /// Channel rebroadcasters, in declaration order.
    pub fn rebroadcaster(&self, i: usize) -> &Rebroadcaster {
        &self.hub.producers.primaries[i]
    }

    /// Channel `i`'s warm-standby rebroadcaster, when
    /// [`HealSpec::standby`] is on.
    pub fn standby(&self, i: usize) -> Option<&Rebroadcaster> {
        self.hub.producers.standbys.get(i)
    }

    /// Segment relay `i`, in declaration order.
    pub fn relay(&self, i: usize) -> Option<&SegmentRelay> {
        self.hub.relays.get(i)
    }

    /// Number of declared segment relays.
    pub fn relay_count(&self) -> usize {
        self.hub.relays.len()
    }

    /// The healing monitor, if [`SystemBuilder::healing`] was set.
    pub fn heal(&self) -> Option<&HealMonitor> {
        self.hub.heal.as_ref()
    }

    /// The application driving channel `i` (None before its start
    /// delay).
    pub fn app(&self, i: usize) -> Option<AudioApp> {
        self.hub.apps.get(i)?.borrow().clone()
    }

    /// Speaker `i` (None before its power-on time, and for an `i`
    /// past the last declared speaker).
    pub fn speaker(&self, i: usize) -> Option<EthernetSpeaker> {
        self.hub.speakers.get(i)?.speaker()
    }

    /// Where speaker `i`'s session handshake stands (None for a
    /// statically wired speaker or before power-on).
    pub fn session(&self, i: usize) -> Option<SessionStatus> {
        self.speaker(i)?.session()
    }

    /// Number of declared speakers.
    pub fn speaker_count(&self) -> usize {
        self.hub.speakers.len()
    }

    /// The catalog announcer, if enabled.
    pub fn announcer(&self) -> Option<&CatalogAnnouncer> {
        self.hub.announcer.as_ref()
    }

    /// The session broker, if [`SystemBuilder::sessions`] was set.
    pub fn broker(&self) -> Option<&SessionBroker> {
        self.hub.broker.as_ref()
    }

    /// The system-wide event journal (virtual-time stamps).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Takes a merged metrics snapshot of every component: the LAN
    /// fabric (instance `lan0`), each channel's rebroadcaster, VAD and
    /// application (instance `chN`), each powered-on speaker (instance
    /// = its name) with its device ring, the catalog announcer, any
    /// warm standbys (`standbyN`), and the healing monitor (`heal0`).
    ///
    /// The snapshot serializes to JSON lines via
    /// [`MetricsSnapshot::to_json_lines`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.hub.snapshot()
    }

    /// Measures the playback offset between two speakers' outputs.
    ///
    /// Both DAC taps are sampled over a short window anchored at the
    /// same absolute instant (block timestamps give the coarse
    /// alignment); cross-correlation of the window then measures the
    /// residual offset. Returns the magnitude of the total offset —
    /// `None` if either speaker was not built with
    /// [`SpeakerSpec::capture_output`], has not played through the
    /// window, or the correlation is ambiguous.
    pub fn playback_offset(
        &self,
        a: usize,
        b: usize,
        window_start: SimTime,
        max_lag: SimDuration,
    ) -> Option<SimDuration> {
        let sa = self.speaker(a)?;
        let sb = self.speaker(b)?;
        let cfg = sa.device().config();
        let rate = cfg.sample_rate as u64 * cfg.channels as u64; // interleaved samples/s
        let window = (rate / 2) as usize; // half a second of signal
        let slice = |spk: &EthernetSpeaker| -> Option<Vec<i16>> {
            let tap = spk.tap();
            let tap = tap.borrow();
            let heard = tap.window(tap.sample_index_at(window_start)?, window)?;
            (heard.len() >= window / 2).then_some(heard)
        };
        let xa = slice(&sa)?;
        let xb = slice(&sb)?;
        // The coarse alignment above leaves at most a few blocks of
        // skew; bound the search to keep the correlation cheap.
        let max_lag_samples =
            ((max_lag.as_nanos() as u128 * rate as u128 / 1_000_000_000) as usize).min(8_192);
        let lag = es_audio::analysis::correlation_lag(&xa, &xb, max_lag_samples.max(4))?;
        let lag_ns = (lag.unsigned_abs() as u128 * 1_000_000_000 / rate as u128) as u64;
        Some(SimDuration::from_nanos(lag_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_tone_reaches_three_speakers() {
        let mut sys = SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .speaker(SpeakerSpec::new("es1", McastGroup(1)))
            .speaker(SpeakerSpec::new("es2", McastGroup(1)))
            .speaker(SpeakerSpec::new("es3", McastGroup(1)))
            .build();
        sys.run_for(SimDuration::from_secs(5));
        for i in 0..3 {
            let spk = sys.speaker(i).unwrap();
            let st = spk.stats();
            assert!(st.control_packets >= 8, "speaker {i}: {st:?}");
            assert!(st.data_packets > 30, "speaker {i}: {st:?}");
            assert!(st.samples_played > 100_000, "speaker {i}: {st:?}");
            assert_eq!(st.bad_packets, 0);
        }
        let rb = sys.rebroadcaster(0);
        assert!(rb.stats().data_packets > 30);
    }

    #[test]
    fn late_speaker_joins_mid_stream() {
        let mut sys = SystemBuilder::new(2)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .speaker(SpeakerSpec::new("early", McastGroup(1)))
            .speaker(SpeakerSpec::new("late", McastGroup(1)).starting_at(SimDuration::from_secs(4)))
            .build();
        sys.run_for(SimDuration::from_secs(3));
        assert!(sys.speaker(1).is_none(), "late speaker not yet powered");
        sys.run_for(SimDuration::from_secs(5));
        let late = sys.speaker(1).unwrap();
        let st = late.stats();
        // It waited for a control packet, then played.
        assert!(st.samples_played > 0, "{st:?}");
        assert!(st.control_packets > 0);
    }

    #[test]
    fn negotiated_speaker_joins_and_plays() {
        let mut sys = SystemBuilder::new(7)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .sessions(SessionSpec::new(McastGroup(0)))
            .speaker(SpeakerSpec::negotiated("es1", "radio"))
            .build();
        sys.run_for(SimDuration::from_secs(6));
        let status = sys.session(0).expect("negotiated");
        assert_eq!(status.phase(), es_proto::ClientPhase::Established);
        assert!(status.session_id().is_some());
        let st = sys.speaker(0).unwrap().stats();
        assert!(st.samples_played > 100_000, "{st:?}");
        assert_eq!(st.bad_packets, 0);
        let broker = sys.broker().unwrap();
        assert_eq!(broker.sessions_active(), 1);
        assert!(broker.stats().acks >= 1);
    }

    /// A §5.3 `tune` from outside — the override controller's, a
    /// remote control's — moves a discovering speaker's data group but
    /// never takes it off the announce group its handshake runs on.
    #[test]
    fn an_outside_tune_does_not_strand_a_discovering_speaker() {
        let mut sys = SystemBuilder::new(7)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .sessions(SessionSpec::new(McastGroup(0)))
            .speaker(SpeakerSpec::negotiated("es1", "radio"))
            .build();
        let spk = sys.speaker(0).expect("powered at t=0");
        spk.tune(&mut sys.sim, McastGroup(9));
        sys.run_for(SimDuration::from_secs(3));
        assert!(sys.lan().is_member(spk.node(), McastGroup(0)));
        let status = sys.session(0).expect("negotiated");
        assert_eq!(status.phase(), es_proto::ClientPhase::Established);
    }

    /// A negotiated speaker gets no keepalive ACK: the data group's
    /// control packets, counted at each session tick, are what keeps
    /// its session alive, and their silence is what loses it.
    #[test]
    fn a_session_lives_on_control_packets_and_dies_without_them() {
        let mut sys = SystemBuilder::new(7)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .sessions(SessionSpec::new(McastGroup(0)))
            .speaker(SpeakerSpec::negotiated("es1", "radio"))
            .build();
        let lost = |sys: &EsSystem| sys.session(0).expect("negotiated").client_counts().3;
        sys.run_for(SimDuration::from_secs(1));
        let status = sys.session(0).expect("negotiated");
        assert_eq!(status.phase(), es_proto::ClientPhase::Established);
        sys.run_for(SimDuration::from_secs(3));
        assert_eq!(lost(&sys), 0, "control packets kept the session alive");
        sys.rebroadcaster(0).clone().crash(&mut sys.sim);
        sys.run_for(SimDuration::from_secs(3));
        assert!(lost(&sys) >= 1, "silence must lose the session");
        let events = sys.journal().events();
        assert!(events
            .iter()
            .any(|e| e.component == "session" && e.message == "session lost; rediscovering"));
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let err = |r: Result<EsSystem, Error>| match r {
            Ok(_) => panic!("expected a config error"),
            Err(e) => e,
        };
        let e = err(SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "a"))
            .channel(ChannelSpec::new(1, McastGroup(2), "b"))
            .try_build());
        assert!(matches!(e, crate::Error::Config(_)), "{e}");

        let e = err(SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .speaker(SpeakerSpec::negotiated("es1", "radio"))
            .try_build());
        assert!(e.to_string().contains("requires sessions"), "{e}");

        let e = err(SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .sessions(SessionSpec::new(McastGroup(0)))
            .speaker(SpeakerSpec::negotiated("es1", "jazz"))
            .try_build());
        assert!(e.to_string().contains("unknown channel"), "{e}");

        // One name would merge two speakers' counters and health.
        let e = err(SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .sessions(SessionSpec::new(McastGroup(0)))
            .speaker(SpeakerSpec::new("es", McastGroup(1)))
            .speaker(SpeakerSpec::negotiated("es", "radio"))
            .try_build());
        assert!(matches!(e, crate::Error::Config(_)), "{e}");
        assert!(e.to_string().contains("duplicate speaker name"), "{e}");
    }

    /// The producer host's handler is the driver of the data plane's
    /// back channel: a NACK datagram for a stream on the line-up comes
    /// back out as re-multicast data packets, one for a stream nobody
    /// sends comes back as nothing, and the widest NACK costs at most
    /// the 64-packet window.
    #[test]
    fn a_nack_datagram_at_the_producer_host_is_served_by_its_stream() {
        let mut sys = SystemBuilder::new(13)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .build();
        let lan = sys.lan().clone();
        let tap = lan.attach("tap");
        lan.join(tap, McastGroup(1));
        let heard: Shared<Vec<(es_net::NodeId, Packet)>> = es_sim::shared(Vec::new());
        let log = heard.clone();
        lan.set_handler(tap, move |_, dg: Datagram| {
            if let Ok(p) = es_proto::decode(&dg.payload) {
                log.borrow_mut().push((dg.src, p));
            }
        });
        sys.run_for(SimDuration::from_secs(5));
        let (host, newest) = {
            let heard = heard.borrow();
            let host = heard.iter().find(|(_, p)| matches!(p, Packet::Control(_)));
            let seqs = heard.iter().filter_map(|(_, p)| match p {
                Packet::Data(d) => Some(d.seq),
                _ => None,
            });
            (
                host.expect("control heard").0,
                seqs.max().expect("data heard"),
            )
        };
        assert!(newest > 64, "the window has slid: {newest}");
        let copies_of = |seq: u32| {
            let heard = heard.borrow();
            let of =
                |(_, p): &&(es_net::NodeId, Packet)| matches!(p, Packet::Data(d) if d.seq == seq);
            heard.iter().filter(of).count()
        };
        let nack = |sys: &mut EsSystem, stream_id, ranges: &[(u32, u16)]| {
            let nack = es_proto::encode_nack(stream_id, ranges);
            lan.send(&mut sys.sim, tap, es_net::Dest::Unicast(host), nack);
            sys.run_for(SimDuration::from_millis(20));
        };
        nack(&mut sys, 1, &[(newest - 1, 2)]);
        nack(&mut sys, 99, &[(newest - 1, 2)]);
        let st = sys.rebroadcaster(0).stats();
        assert_eq!((st.nacks_received, st.retransmits_sent), (1, 2));
        assert_eq!(copies_of(newest - 1), 2, "original + retransmission");
        nack(&mut sys, 1, &[(0, u16::MAX); 16]);
        let st = sys.rebroadcaster(0).stats();
        assert_eq!((st.nacks_received, st.retransmits_sent), (2, 2 + 64));
        let snap = sys.metrics();
        assert_eq!(snap.counter("rebroadcast/ch0/nacks_received"), Some(2));
    }

    #[test]
    fn healing_monitor_runs_epochs_and_exports_stats() {
        let mut sys = SystemBuilder::new(5)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .speaker(SpeakerSpec::new("es1", McastGroup(1)))
            .healing(HealSpec::new().standby())
            .build();
        sys.run_for(SimDuration::from_secs(3));
        let mon = sys.heal().expect("monitor handle");
        assert!(mon.stats().epochs >= 5, "{:?}", mon.stats());
        assert_eq!(mon.stats().failovers, 0, "healthy producer failed over");
        assert_eq!(mon.health_of("es1"), es_heal::Health::Healthy);
        let standby = sys.standby(0).expect("standby handle");
        assert!(standby.is_standby(), "unpromoted standby");
        let snap = sys.metrics();
        assert_eq!(snap.counter("heal/heal0/epochs"), Some(mon.stats().epochs));
        assert_eq!(
            snap.counter("rebroadcast/standby0/data_packets"),
            Some(0),
            "a standby must stay silent"
        );
    }

    #[test]
    fn relayed_fleet_plays_through_segment_relay() {
        // producer → relay → two speakers on the relay's downstream
        // group.
        let mut sys = SystemBuilder::new(11)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .relay(RelaySpec::new(McastGroup(1), McastGroup(101)))
            .speaker(SpeakerSpec::new("r1a", McastGroup(101)))
            .speaker(SpeakerSpec::new("r1b", McastGroup(101)))
            .build();
        sys.run_for(SimDuration::from_secs(5));
        assert_eq!(sys.relay_count(), 1);
        let rstats = sys.relay(0).unwrap().stats();
        assert!(rstats.data_relayed > 30, "{rstats:?}");
        assert!(rstats.control_relayed >= 8, "{rstats:?}");
        for i in 0..2 {
            let st = sys.speaker(i).unwrap().stats();
            assert!(st.samples_played > 100_000, "speaker {i}: {st:?}");
            assert_eq!(st.bad_packets, 0, "speaker {i}: {st:?}");
        }
        let snap = sys.metrics();
        assert_eq!(
            snap.counter("relay/relay0/data_relayed"),
            Some(rstats.data_relayed)
        );
    }

    #[test]
    fn try_build_rejects_signed_channel_with_relay() {
        let signer = Rc::new(StreamSigner::new(b"relay-test", 64, 4));
        let e = SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio").signer(signer))
            .relay(RelaySpec::new(McastGroup(1), McastGroup(101)))
            .try_build()
            .err()
            .expect("signed channel + relay must be rejected");
        assert!(
            e.to_string().contains("cannot route that stream's NACKs"),
            "{e}"
        );
    }

    #[test]
    fn handles_past_the_last_index_are_none() {
        let sys = SystemBuilder::new(1)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .speaker(SpeakerSpec::new("es1", McastGroup(1)))
            .build();
        assert!(sys.speaker(0).is_some());
        assert!(sys.session(0).is_none(), "a static speaker has no session");
        assert!(sys.speaker(sys.speaker_count()).is_none());
        assert!(sys.session(sys.speaker_count()).is_none());
        assert!(sys.app(1).is_none());
    }

    #[test]
    fn two_speakers_play_in_sync() {
        let mut sys = SystemBuilder::new(3)
            .channel({
                let mut c = ChannelSpec::new(1, McastGroup(1), "clicks");
                c.source = Source::Impulses(11_025); // 4 clicks/sec.
                c.policy = CompressionPolicy::Never;
                c
            })
            .speaker(SpeakerSpec::new("a", McastGroup(1)).capture_output())
            .speaker(
                SpeakerSpec::new("b", McastGroup(1))
                    .starting_at(SimDuration::from_millis(1_700))
                    .capture_output(),
            )
            .speaker(SpeakerSpec::new("c", McastGroup(1)))
            .build();
        sys.run_for(SimDuration::from_secs(8));
        let at = SimTime::from_secs(3);
        let max_lag = SimDuration::from_millis(400);
        let offset = sys
            .playback_offset(0, 1, at, max_lag)
            .expect("correlation must lock");
        assert!(
            offset <= SimDuration::from_millis(60),
            "speakers out of sync by {offset}"
        );
        // Perfect lock, as measured when the whole capture was
        // flattened per call; the half-second window it correlates now
        // is the same samples.
        assert_eq!(offset, SimDuration::ZERO);
        for i in 0..2 {
            let tap = sys.speaker(i).unwrap().tap();
            let tap = tap.borrow();
            let idx = tap.sample_index_at(at).unwrap();
            let all = tap.samples().expect("capture_output");
            assert_eq!(tap.window(idx, 44_100).unwrap(), all[idx..idx + 44_100]);
        }
        // A default speaker played the same audio but kept none of it.
        let c = sys.speaker(2).unwrap();
        assert_eq!(
            c.stats().samples_played,
            sys.speaker(0).unwrap().stats().samples_played
        );
        assert_eq!(c.tap().borrow().retained_samples(), 0);
        assert_eq!(sys.playback_offset(0, 2, at, max_lag), None);
        assert_eq!(sys.playback_offset(2, 0, at, max_lag), None);
    }
}
