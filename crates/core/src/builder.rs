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
use es_net::{Lan, LanConfig, McastGroup};
use es_proto::auth::StreamSigner;
use es_proto::{Capabilities, SessionClientConfig, StreamInfo};
use es_rebroadcast::{
    AppPacing, AudioApp, CompressionPolicy, RateLimiter, Rebroadcaster, RebroadcasterConfig,
    RelayConfig, SegmentRelay,
};
use es_sim::{Shared, Sim, SimCpu, SimDuration, SimTime};
use es_speaker::{AmbientProfile, AutoVolumeConfig, EthernetSpeaker, SpeakerConfig};
use es_telemetry::{Journal, MetricsSnapshot, Registry, Telemetry};

use crate::catalog::CatalogAnnouncer;
use crate::error::Error;
use crate::heal_ctl::{HealMonitor, HealSpec};
use crate::session_ctl::{stream_info_for, NegotiatedSpeaker, SessionBroker};

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
    /// Logical segment label of the producer host (see
    /// `es_sim::ShardRouter`). The producer host is shared, so the
    /// last channel that sets a non-zero segment wins.
    pub segment: u32,
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
            segment: 0,
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

    /// Pins the producer host to a logical segment. Segments are
    /// topology labels and never change what the fleet plays.
    pub fn segment(mut self, segment: u32) -> Self {
        self.segment = segment;
        self
    }
}

/// One speaker: where it listens and when it powers on.
///
/// Builder methods use bare field names (`epsilon`, `volume`, …), the
/// same convention as [`ChannelSpec`] and [`SessionSpec`].
pub struct SpeakerSpec {
    /// Speaker configuration.
    pub config: SpeakerConfig,
    /// When the speaker joins (mid-stream joins exercise §3.2).
    pub start_at: SimDuration,
    /// Channel to join by handshake instead of static group wiring.
    /// `Some` makes this a negotiated speaker and requires
    /// [`SystemBuilder::sessions`].
    pub channel: Option<String>,
    /// Capabilities advertised during the handshake (negotiated mode).
    pub caps: Capabilities,
    /// Logical segment this speaker's deliveries execute in (see
    /// `es_sim::ShardRouter`); speakers behind a relay share the
    /// relay's segment.
    pub segment: u32,
}

impl SpeakerSpec {
    /// A default speaker statically wired to `group`, on from t=0.
    pub fn new(name: impl Into<String>, group: McastGroup) -> Self {
        SpeakerSpec {
            config: SpeakerConfig::new(name, group),
            start_at: SimDuration::ZERO,
            channel: None,
            caps: Capabilities::any(),
            segment: 0,
        }
    }

    /// A speaker that joins `channel` via the session handshake: it
    /// discovers the line-up on the announce group, negotiates codec
    /// and playout delay, and only then tunes to the granted data
    /// group. Requires [`SystemBuilder::sessions`].
    pub fn negotiated(name: impl Into<String>, channel: impl Into<String>) -> Self {
        let mut spec = SpeakerSpec::new(name, McastGroup(0));
        spec.channel = Some(channel.into());
        spec
    }

    /// Sets the power-on time.
    pub fn starting_at(mut self, at: SimDuration) -> Self {
        self.start_at = at;
        self
    }

    /// Sets the capabilities advertised in the handshake.
    pub fn caps(mut self, caps: Capabilities) -> Self {
        self.caps = caps;
        self
    }

    /// Pins this speaker to a logical engine segment (a speaker behind
    /// a [`RelaySpec`] should use the relay's segment and the relay's
    /// downstream group).
    pub fn segment(mut self, segment: u32) -> Self {
        self.segment = segment;
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

/// One segment relay: subscribes to an upstream group, re-times and
/// re-stamps the stream against its own segment clock, and
/// re-multicasts on a downstream group for its segment's fleet (the
/// §4.4 "internet radio" hierarchy node; see
/// [`es_rebroadcast::SegmentRelay`]).
pub struct RelaySpec {
    /// Group the relay subscribes to (a channel's group, or another
    /// relay's downstream).
    pub upstream: McastGroup,
    /// Group the relay re-multicasts on; its fleet's speakers tune
    /// here.
    pub downstream: McastGroup,
    /// Logical engine segment of the relay and its fleet.
    pub segment: u32,
    /// Hold window: packets forward this long after arrival, timeline
    /// fields shifted to match.
    pub hold: SimDuration,
}

impl RelaySpec {
    /// A relay forwarding `upstream` onto `downstream` with the
    /// default 2 ms hold, in segment 0.
    pub fn new(upstream: McastGroup, downstream: McastGroup) -> Self {
        let d = RelayConfig::new(upstream, downstream);
        RelaySpec {
            upstream,
            downstream,
            segment: d.segment,
            hold: d.hold,
        }
    }

    /// Sets the relay's (and its fleet's) logical engine segment.
    pub fn segment(mut self, segment: u32) -> Self {
        self.segment = segment;
        self
    }

    /// Sets the hold window.
    pub fn hold(mut self, hold: SimDuration) -> Self {
        self.hold = hold;
        self
    }
}

/// Control-plane configuration: the announce group sessions are
/// negotiated on, plus the handshake's timers. Defaults match
/// [`SessionClientConfig::new`].
pub struct SessionSpec {
    /// Group DISCOVER/OFFER (and the catalog, if enabled) run on.
    pub announce_group: McastGroup,
    /// DISCOVER period while a receiver is unattached.
    pub discover_interval: SimDuration,
    /// SETUP retransmit period.
    pub setup_retry: SimDuration,
    /// KEEPALIVE period while established.
    pub keepalive_interval: SimDuration,
    /// Silence after which either side declares the session dead.
    pub session_timeout: SimDuration,
    /// How often the broker sweeps its tables for expired sessions.
    pub sweep_interval: SimDuration,
}

impl SessionSpec {
    /// Control plane on `announce_group` with simulator-scale timers.
    pub fn new(announce_group: McastGroup) -> Self {
        SessionSpec {
            announce_group,
            discover_interval: SimDuration::from_millis(300),
            setup_retry: SimDuration::from_millis(400),
            keepalive_interval: SimDuration::from_secs(1),
            session_timeout: SimDuration::from_millis(2_500),
            sweep_interval: SimDuration::from_millis(500),
        }
    }

    /// Sets the DISCOVER period.
    pub fn discover_interval(mut self, d: SimDuration) -> Self {
        self.discover_interval = d;
        self
    }

    /// Sets the SETUP retransmit period.
    pub fn setup_retry(mut self, d: SimDuration) -> Self {
        self.setup_retry = d;
        self
    }

    /// Sets the KEEPALIVE period.
    pub fn keepalive_interval(mut self, d: SimDuration) -> Self {
        self.keepalive_interval = d;
        self
    }

    /// Sets the session-loss timeout.
    pub fn session_timeout(mut self, d: SimDuration) -> Self {
        self.session_timeout = d;
        self
    }

    /// Sets the broker's expiry-sweep period.
    pub fn sweep_interval(mut self, d: SimDuration) -> Self {
        self.sweep_interval = d;
        self
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

    /// Adds a segment relay, making a producer → relays → per-segment
    /// fleet topology declarable in one spec. Relays cannot re-sign
    /// authenticated streams, so combining them with a channel signer
    /// is rejected by [`Self::try_build`].
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

    /// Enables the self-healing plane: a [`HealMonitor`] samples the
    /// fleet's telemetry every `spec.epoch` and repairs sustained
    /// faults (loss-adaptive FEC, NACK retransmission, and — with
    /// [`HealSpec::standby`] — producer failover).
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
                    "channel '{}' is signed but relays cannot re-sign a re-stamped stream",
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
        for spec in &self.speakers {
            if let Some(channel) = &spec.channel {
                if self.sessions.is_none() {
                    return Err(Error::Config(format!(
                        "negotiated speaker '{}' requires sessions(SessionSpec)",
                        spec.config.name
                    )));
                }
                if !self.channels.iter().any(|c| &c.name == channel) {
                    return Err(Error::Config(format!(
                        "negotiated speaker '{}' wants unknown channel '{}'",
                        spec.config.name, channel
                    )));
                }
            }
        }

        let mut sim = Sim::new(self.seed);
        let journal = Journal::new();
        let lan = Lan::new(self.lan);
        lan.set_journal(journal.clone());
        let producer_node = lan.attach("producer-host");
        if let Some(seg) = self
            .channels
            .iter()
            .rev()
            .find_map(|c| (c.segment != 0).then_some(c.segment))
        {
            lan.set_segment(producer_node, seg);
        }

        let mut rebroadcasters = Vec::new();
        let mut standbys = Vec::new();
        let mut apps: Vec<Shared<Option<AudioApp>>> = Vec::new();
        let mut stream_infos: Vec<StreamInfo> = Vec::new();
        let want_standby = self.healing.as_ref().is_some_and(|h| h.standby);
        let standby_node = want_standby.then(|| lan.attach("standby-host"));

        for ch in self.channels {
            lan.join(producer_node, ch.group);
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

        // Standby shares the producer's segment: promotion swaps the
        // sender without moving the stream across segments.
        if let Some(node) = standby_node {
            lan.set_segment(node, lan.segment(producer_node));
        }

        let relays: Vec<SegmentRelay> = self
            .relays
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut rcfg = RelayConfig::new(spec.upstream, spec.downstream);
                rcfg.name = format!("relay{i}");
                rcfg.segment = spec.segment;
                rcfg.hold = spec.hold;
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
        let broker = self.sessions.as_ref().map(|ses| {
            SessionBroker::start(
                &mut sim,
                &lan,
                producer_node,
                ses,
                stream_infos,
                producers.clone(),
                Some(journal.clone()),
            )
        });

        // Under a healing plane every speaker repairs its own losses:
        // a negotiated one NACKs over its session, a statically wired
        // one through the monitor, which starts once they all exist.
        let heal_slot: Shared<Option<HealMonitor>> = es_sim::shared(None);
        let repairs = self.healing.is_some();

        let mut speakers = Vec::new();
        for spec in self.speakers {
            let segment = spec.segment;
            if let Some(channel) = spec.channel {
                let ses = self.sessions.as_ref().expect("validated above");
                let mut ccfg = SessionClientConfig::new(spec.config.name.clone(), channel);
                ccfg.caps = spec.caps.clone();
                ccfg.discover_interval_us = ses.discover_interval.as_micros();
                ccfg.setup_retry_us = ses.setup_retry.as_micros();
                ccfg.keepalive_interval_us = ses.keepalive_interval.as_micros();
                ccfg.session_timeout_us = ses.session_timeout.as_micros();
                let announce = ses.announce_group;
                if spec.start_at.is_zero() {
                    let ns = NegotiatedSpeaker::start(
                        &mut sim,
                        &lan,
                        spec.config,
                        announce,
                        ccfg,
                        Some(journal.clone()),
                    );
                    lan.set_segment(ns.speaker().node(), segment);
                    if repairs {
                        ns.nack_over_session();
                    }
                    speakers.push(SpeakerHandle::Negotiated(ns));
                } else {
                    let slot: Shared<Option<NegotiatedSpeaker>> = es_sim::shared(None);
                    let slot2 = slot.clone();
                    let lan2 = lan.clone();
                    let cfg = spec.config;
                    let j2 = journal.clone();
                    sim.schedule_in(spec.start_at, move |sim| {
                        let ns =
                            NegotiatedSpeaker::start(sim, &lan2, cfg, announce, ccfg, Some(j2));
                        lan2.set_segment(ns.speaker().node(), segment);
                        if repairs {
                            ns.nack_over_session();
                        }
                        *slot2.borrow_mut() = Some(ns);
                    });
                    speakers.push(SpeakerHandle::DeferredNegotiated(slot));
                }
            } else if spec.start_at.is_zero() {
                let spk = EthernetSpeaker::start(&mut sim, &lan, spec.config);
                lan.set_segment(spk.node(), segment);
                spk.set_journal(journal.clone());
                if repairs {
                    nack_via_monitor(&spk, &heal_slot);
                }
                speakers.push(SpeakerHandle::Ready(spk));
            } else {
                let slot: Shared<Option<EthernetSpeaker>> = es_sim::shared(None);
                let slot2 = slot.clone();
                let lan2 = lan.clone();
                let cfg = spec.config;
                let j2 = journal.clone();
                let heal2 = heal_slot.clone();
                sim.schedule_in(spec.start_at, move |sim| {
                    let spk = EthernetSpeaker::start(sim, &lan2, cfg);
                    lan2.set_segment(spk.node(), segment);
                    spk.set_journal(j2.clone());
                    if repairs {
                        nack_via_monitor(&spk, &heal2);
                    }
                    *slot2.borrow_mut() = Some(spk);
                });
                speakers.push(SpeakerHandle::Deferred(slot));
            }
        }

        let hub = MetricsHub {
            lan,
            producers,
            relays,
            apps,
            speakers: Rc::new(speakers),
            announcer,
            broker,
            heal: heal_slot,
        };
        let heal = self.healing.map(|spec| {
            let mon = HealMonitor::start(&mut sim, hub.clone(), spec, journal.clone());
            *hub.heal.borrow_mut() = Some(mon.clone());
            mon
        });

        Ok(EsSystem {
            sim,
            hub,
            heal,
            journal,
        })
    }
}

/// Makes the healing monitor in `heal` the back channel of a
/// statically wired speaker: its NACKs go to the stream's live
/// producer through [`HealMonitor::retransmit_request`].
fn nack_via_monitor(spk: &EthernetSpeaker, heal: &Shared<Option<HealMonitor>>) {
    let (heal, from) = (heal.clone(), spk.clone());
    spk.set_nack_handler(move |sim, ranges| {
        let monitor = heal.borrow().clone();
        if let Some(monitor) = monitor {
            monitor.retransmit_request(sim, &from, ranges);
        }
    });
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
    /// repair, FEC changes and NACK routing all follow this one
    /// answer, so none of them can keep talking to a detached primary.
    pub(crate) fn live(&self, i: usize) -> &Rebroadcaster {
        match self.standbys.get(i) {
            Some(standby) if !standby.is_standby() => standby,
            _ => &self.primaries[i],
        }
    }
}

#[derive(Clone)]
pub(crate) enum SpeakerHandle {
    Ready(EthernetSpeaker),
    Deferred(Shared<Option<EthernetSpeaker>>),
    Negotiated(NegotiatedSpeaker),
    DeferredNegotiated(Shared<Option<NegotiatedSpeaker>>),
}

/// Clone-shareable view of every component's telemetry handles: the
/// one place the "walk the whole deployment and snapshot it" logic
/// lives. [`EsSystem::metrics`] delegates here, and the healing
/// monitor holds its own clone so it can read speakers and producers
/// from inside simulator callbacks, where `EsSystem` itself is not
/// reachable.
#[derive(Clone)]
pub(crate) struct MetricsHub {
    pub(crate) lan: Lan,
    pub(crate) producers: Rc<Producers>,
    pub(crate) relays: Vec<SegmentRelay>,
    pub(crate) apps: Vec<Shared<Option<AudioApp>>>,
    pub(crate) speakers: Rc<Vec<SpeakerHandle>>,
    pub(crate) announcer: Option<CatalogAnnouncer>,
    pub(crate) broker: Option<SessionBroker>,
    /// Back-reference filled in once the monitor starts, so its
    /// counters appear in the same snapshot it produces.
    pub(crate) heal: Shared<Option<HealMonitor>>,
}

impl MetricsHub {
    pub(crate) fn speaker_count(&self) -> usize {
        self.speakers.len()
    }

    pub(crate) fn speaker(&self, i: usize) -> Option<EthernetSpeaker> {
        match &self.speakers[i] {
            SpeakerHandle::Ready(s) => Some(s.clone()),
            SpeakerHandle::Deferred(slot) => slot.borrow().clone(),
            SpeakerHandle::Negotiated(ns) => Some(ns.speaker().clone()),
            SpeakerHandle::DeferredNegotiated(slot) => {
                slot.borrow().as_ref().map(|ns| ns.speaker().clone())
            }
        }
    }

    pub(crate) fn session(&self, i: usize) -> Option<NegotiatedSpeaker> {
        match &self.speakers[i] {
            SpeakerHandle::Negotiated(ns) => Some(ns.clone()),
            SpeakerHandle::DeferredNegotiated(slot) => slot.borrow().clone(),
            _ => None,
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
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
        for i in 0..self.speakers.len() {
            let Some(spk) = self.speaker(i) else { continue };
            reg.set_instance(&spk.name());
            spk.record_telemetry(&mut reg);
            spk.device().stats().record(&mut reg);
            if let Some(ns) = self.session(i) {
                ns.record_telemetry(&mut reg);
            }
        }
        if let Some(a) = &self.announcer {
            reg.set_instance("catalog");
            reg.component("net").counter("announcements_sent", a.sent());
        }
        if let Some(b) = &self.broker {
            reg.set_instance("broker");
            b.record_telemetry(&mut reg);
        }
        if let Some(m) = self.heal.borrow().as_ref() {
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
    heal: Option<HealMonitor>,
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
        self.heal.as_ref()
    }

    /// The application driving channel `i` (None before its start
    /// delay).
    pub fn app(&self, i: usize) -> Option<AudioApp> {
        self.hub.apps[i].borrow().clone()
    }

    /// Speaker `i` (None before its power-on time). Negotiated
    /// speakers resolve to their underlying [`EthernetSpeaker`].
    pub fn speaker(&self, i: usize) -> Option<EthernetSpeaker> {
        self.hub.speaker(i)
    }

    /// The negotiated-session wrapper for speaker `i` (None for
    /// statically wired speakers or before power-on).
    pub fn session(&self, i: usize) -> Option<NegotiatedSpeaker> {
        self.hub.session(i)
    }

    /// Number of declared speakers.
    pub fn speaker_count(&self) -> usize {
        self.hub.speaker_count()
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
        let ns = sys.session(0).expect("negotiated handle");
        assert_eq!(ns.phase(), es_proto::ClientPhase::Established);
        assert!(ns.session_id().is_some());
        let st = sys.speaker(0).unwrap().stats();
        assert!(st.samples_played > 100_000, "{st:?}");
        assert_eq!(st.bad_packets, 0);
        let broker = sys.broker().unwrap();
        assert_eq!(broker.sessions_active(), 1);
        assert!(broker.stats().acks >= 1);
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
        // producer (segment 0) → relay (segment 1) → two speakers on
        // the relay's downstream group, in the relay's segment.
        let mut sys = SystemBuilder::new(11)
            .channel(ChannelSpec::new(1, McastGroup(1), "radio"))
            .relay(RelaySpec::new(McastGroup(1), McastGroup(101)).segment(1))
            .speaker(SpeakerSpec::new("r1a", McastGroup(101)).segment(1))
            .speaker(SpeakerSpec::new("r1b", McastGroup(101)).segment(1))
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
        // The upstream hand-off crossed the segment boundary.
        assert!(sys.lan().cross_segment_posts() > 0);
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
        assert!(e.to_string().contains("re-sign"), "{e}");
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
