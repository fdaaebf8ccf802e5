//! The simulated switched-Ethernet LAN.
//!
//! §2.3 restricts the whole system to one Ethernet segment: "low error
//! rates, ample bandwidth, and most importantly, well behaved packet
//! arrival", with multicast available by default. This module models
//! exactly that environment — and lets the experiments break each
//! assumption on purpose (legacy 10 Mbps links for the bandwidth
//! experiment, injected loss and jitter for E-LOSS).
//!
//! The model is a store-and-forward switch: each sender owns an egress
//! link with FIFO serialization at the configured line rate; delivery
//! to every receiver adds propagation delay plus optional Gaussian
//! jitter; loss is sampled per receiver. Multicast frames fan out to
//! all members of the destination group ("everybody receives a
//! multicast packet at the same time" — §3.2's uniformity assumption —
//! holds exactly when jitter is zero).

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use es_sim::random::{chance, normal, GilbertElliott};
use es_sim::{
    shared, BucketAccumulator, ShardRouter, Shared, Sim, SimDuration, SimTime, TimeSeries,
};
use es_telemetry::{Journal, Registry, Severity, Stamp, Telemetry};

/// Identifies a host attached to the LAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

/// A multicast group address ("the multicast addresses used for the
/// audio channels", §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct McastGroup(pub u16);

/// A datagram destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// One host.
    Unicast(NodeId),
    /// Every member of a group except the sender.
    Multicast(McastGroup),
}

/// A received datagram, as handed to a node's receive handler.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sending host.
    pub src: NodeId,
    /// Destination as sent.
    pub dst: Dest,
    /// Payload bytes (the UDP payload; wire overhead is accounted
    /// separately).
    pub payload: Bytes,
}

/// Per-frame wire overhead in bytes: Ethernet header + CRC (18), IP
/// (20), UDP (8), preamble + inter-frame gap (20).
pub const WIRE_OVERHEAD: usize = 66;

/// How the medium is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MediumMode {
    /// Modern switched Ethernet: every sender owns its link, the switch
    /// forwards at line rate (the paper's "fast Ethernet" case).
    #[default]
    Switched,
    /// A shared collision domain (hub / coax / the paper's "legacy
    /// 10Mbps" and "wireless links"): one transmission at a time for
    /// the whole segment.
    SharedHub,
}

/// Gilbert–Elliott burst-loss parameters (per receiver, per fragment).
///
/// When set on a [`LanConfig`] this *replaces* the i.i.d. `loss_prob`
/// model: each receiver carries its own two-state chain, stepped once
/// per wire fragment, losing fragments at `loss_good` in the quiet
/// state and `loss_bad` inside a burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLossConfig {
    /// Per-step probability of entering a burst.
    pub p_good_to_bad: f64,
    /// Per-step probability of a burst ending (mean burst length is its
    /// reciprocal, in fragments).
    pub p_bad_to_good: f64,
    /// Fragment loss probability in the quiet state.
    pub loss_good: f64,
    /// Fragment loss probability inside a burst.
    pub loss_bad: f64,
}

impl BurstLossConfig {
    /// A convenient bursty profile: clean quiet state, bursts of mean
    /// length `mean_burst` fragments arriving so that the long-run
    /// fragment loss rate is roughly `target_loss` (burst-state loss is
    /// total).
    pub fn bursty(target_loss: f64, mean_burst: f64) -> Self {
        let p_bad_to_good = 1.0 / mean_burst.max(1.0);
        // Stationary bad occupancy g/(g+b) == target_loss.
        let p_good_to_bad = (target_loss * p_bad_to_good / (1.0 - target_loss).max(1e-9)).min(1.0);
        BurstLossConfig {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }
}

/// LAN physical parameters.
#[derive(Debug, Clone, Copy)]
pub struct LanConfig {
    /// Line rate per link in bits per second (100 Mbps fast Ethernet by
    /// default; 10 Mbps reproduces the paper's "legacy" case).
    pub bandwidth_bps: u64,
    /// Fixed propagation + switching delay.
    pub propagation: SimDuration,
    /// Standard deviation of Gaussian per-receiver delivery jitter.
    pub jitter_std: SimDuration,
    /// Independent per-receiver, per-fragment drop probability (ignored
    /// while `burst` is set).
    pub loss_prob: f64,
    /// Maximum UDP payload per wire frame; larger datagrams fragment
    /// and are lost whole if any fragment is lost.
    pub mtu: usize,
    /// Switched or shared medium.
    pub medium: MediumMode,
    /// Two-state burst loss; `None` keeps the i.i.d. `loss_prob` model.
    pub burst: Option<BurstLossConfig>,
    /// Probability a delivery is reordered: held back by
    /// `reorder_delay` so later traffic overtakes it.
    pub reorder_prob: f64,
    /// How long a reordered delivery is held back (bounded — the packet
    /// is late, never dropped by the reorderer itself).
    pub reorder_delay: SimDuration,
    /// Probability a delivery is duplicated; the copy trails the
    /// original by one extra propagation delay.
    pub duplicate_prob: f64,
}

impl Default for LanConfig {
    fn default() -> Self {
        LanConfig {
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_micros(50),
            jitter_std: SimDuration::ZERO,
            loss_prob: 0.0,
            mtu: 1_472,
            medium: MediumMode::Switched,
            burst: None,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            duplicate_prob: 0.0,
        }
    }
}

impl LanConfig {
    /// Legacy 10 Mbps Ethernet — where §2.2 says raw CD streams became
    /// unacceptable. Legacy segments were shared collision domains, so
    /// the whole LAN carries one frame at a time.
    pub fn legacy_10mbps() -> Self {
        LanConfig {
            bandwidth_bps: 10_000_000,
            medium: MediumMode::SharedHub,
            ..LanConfig::default()
        }
    }

    /// A misbehaving network for fault-injection experiments.
    pub fn lossy(loss_prob: f64, jitter_std: SimDuration) -> Self {
        LanConfig {
            loss_prob,
            jitter_std,
            ..LanConfig::default()
        }
    }

    /// Gilbert–Elliott burst loss on an otherwise clean LAN.
    pub fn bursty(target_loss: f64, mean_burst: f64) -> Self {
        LanConfig {
            burst: Some(BurstLossConfig::bursty(target_loss, mean_burst)),
            ..LanConfig::default()
        }
    }

    /// A reordering LAN: each delivery is held back by `delay` with
    /// probability `prob`.
    pub fn reordering(prob: f64, delay: SimDuration) -> Self {
        LanConfig {
            reorder_prob: prob,
            reorder_delay: delay,
            ..LanConfig::default()
        }
    }

    /// A duplicating LAN: each delivery is copied with probability
    /// `prob`.
    pub fn duplicating(prob: f64) -> Self {
        LanConfig {
            duplicate_prob: prob,
            ..LanConfig::default()
        }
    }
}

/// Aggregate traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LanStats {
    /// Datagrams submitted by senders.
    pub datagrams_sent: u64,
    /// Datagrams submitted to a multicast destination.
    pub multicast_sent: u64,
    /// Datagram deliveries (one per receiver; duplicates count again).
    pub datagrams_delivered: u64,
    /// Deliveries suppressed by the loss model (including partition
    /// drops).
    pub datagrams_lost: u64,
    /// Lost multi-fragment datagrams where only *some* fragments were
    /// dropped — reassembly failures, kept distinct from whole-datagram
    /// loss so burst statistics stay honest.
    pub datagrams_lost_partial: u64,
    /// Deliveries suppressed because the receiver was partitioned
    /// (subset of `datagrams_lost`).
    pub datagrams_partitioned: u64,
    /// Deliveries suppressed by a per-receiver degrade window
    /// ([`Lan::degrade`]; subset of `datagrams_lost`).
    pub datagrams_degraded: u64,
    /// Deliveries held back by the reorder impairment.
    pub datagrams_reordered: u64,
    /// Extra copies created by the duplication impairment.
    pub datagrams_duplicated: u64,
    /// Payload bytes submitted.
    pub payload_bytes_sent: u64,
    /// Bytes on the wire including fragmentation and frame overhead.
    pub wire_bytes_sent: u64,
}

impl LanStats {
    /// Mean offered load in bits/s over `elapsed`.
    pub fn offered_bits_per_sec(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.wire_bytes_sent as f64 * 8.0 / elapsed.as_secs_f64()
    }

    /// Mean receivers reached per multicast datagram.
    pub fn multicast_fanout(&self) -> f64 {
        if self.multicast_sent == 0 {
            0.0
        } else {
            (self.datagrams_delivered + self.datagrams_lost) as f64 / self.multicast_sent as f64
        }
    }
}

impl Telemetry for LanStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("net");
        s.counter("frames_sent", self.datagrams_sent)
            .counter("frames_delivered", self.datagrams_delivered)
            .counter("frames_dropped", self.datagrams_lost)
            .counter("frames_dropped_partial", self.datagrams_lost_partial)
            .counter("frames_partitioned", self.datagrams_partitioned)
            .counter("frames_degraded", self.datagrams_degraded)
            .counter("frames_reordered", self.datagrams_reordered)
            .counter("frames_duplicated", self.datagrams_duplicated)
            .counter("multicast_frames", self.multicast_sent)
            .counter("payload_bytes_sent", self.payload_bytes_sent)
            .counter("wire_bytes_sent", self.wire_bytes_sent)
            .gauge("multicast_fanout", self.multicast_fanout());
    }
}

type RecvHandler = Box<dyn FnMut(&mut Sim, Datagram)>;

struct Node {
    name: String,
    handler: Option<RecvHandler>,
    groups: Vec<McastGroup>,
    link_busy_until: SimTime,
    /// This receiver's private impairment RNG stream, seeded lazily
    /// from the sim seed and the node index. Keeping the draws out of
    /// the global stream makes each receiver's loss/jitter pattern
    /// independent of who else is attached and of fan-out order.
    rng: Option<StdRng>,
    /// Per-receiver Gilbert–Elliott burst-loss chain state.
    burst_chain: GilbertElliott,
    /// While set and in the future, every delivery to this node drops
    /// (its switch port is dark).
    partitioned_until: Option<SimTime>,
    /// Extra per-datagram loss probability for this receiver alone (a
    /// flaky NIC or radio link); 0.0 = healthy. One draw per datagram
    /// from the node's private stream, on top of the LAN-wide model.
    degrade_loss: f64,
    /// Logical segment this host's deliveries execute in (see
    /// `es_sim::ShardRouter`). A topology label, fixed per scenario.
    segment: u32,
}

/// Derives a node's private RNG stream from the sim seed. SplitMix64's
/// output finalizer scrambles whatever we feed it, so a simple
/// golden-ratio mix of the node index suffices.
fn node_stream_seed(seed: u64, node: u32) -> u64 {
    seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct LanInner {
    config: LanConfig,
    nodes: Vec<Node>,
    stats: LanStats,
    wire_usage: BucketAccumulator,
    /// Shared-medium busy horizon ([`MediumMode::SharedHub`] only).
    medium_busy_until: SimTime,
    /// Payload bytes per multicast group (channel accounting).
    group_bytes: std::collections::BTreeMap<McastGroup, u64>,
    /// Event journal for loss diagnostics, if attached.
    journal: Option<Journal>,
    /// Cross-segment channel: every delivery is posted into the
    /// receiver's segment through here.
    router: ShardRouter,
}

/// The LAN fabric. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Lan {
    inner: Shared<LanInner>,
}

impl Lan {
    /// Creates a LAN with the given physical parameters.
    pub fn new(config: LanConfig) -> Self {
        Lan {
            inner: shared(LanInner {
                config,
                nodes: Vec::new(),
                stats: LanStats::default(),
                wire_usage: BucketAccumulator::new("wire-bytes", SimDuration::from_secs(1)),
                medium_busy_until: SimTime::ZERO,
                group_bytes: std::collections::BTreeMap::new(),
                journal: None,
                router: ShardRouter::new(),
            }),
        }
    }

    /// Attaches an event journal; subsequent datagram drops are logged
    /// as warnings with the sender's name and the loss count.
    pub fn set_journal(&self, journal: Journal) {
        self.inner.borrow_mut().journal = Some(journal);
    }

    /// Attaches a host and returns its id. Install a receive handler
    /// with [`Lan::set_handler`] to get packets.
    pub fn attach(&self, name: impl Into<String>) -> NodeId {
        let mut inner = self.inner.borrow_mut();
        inner.nodes.push(Node {
            name: name.into(),
            handler: None,
            groups: Vec::new(),
            link_busy_until: SimTime::ZERO,
            rng: None,
            burst_chain: GilbertElliott::new(),
            partitioned_until: None,
            degrade_loss: 0.0,
            segment: 0,
        });
        NodeId(inner.nodes.len() as u32 - 1)
    }

    /// Assigns `node` to a logical segment; its deliveries are
    /// scheduled into that segment from now on. Segments are topology
    /// (e.g. "the fleet behind relay 2"), set once at build time.
    pub fn set_segment(&self, node: NodeId, segment: u32) {
        self.inner.borrow_mut().nodes[node.0 as usize].segment = segment;
    }

    /// The logical segment `node` is assigned to (0 = default).
    pub fn segment(&self, node: NodeId) -> u32 {
        self.inner.borrow().nodes[node.0 as usize].segment
    }

    /// Deliveries posted across a segment boundary (a topology
    /// diagnostic; not in any telemetry snapshot).
    pub fn cross_segment_posts(&self) -> u64 {
        self.inner.borrow().router.cross_posts()
    }

    /// The host's display name.
    pub fn node_name(&self, node: NodeId) -> String {
        self.inner.borrow().nodes[node.0 as usize].name.clone()
    }

    /// Installs (or replaces) the receive handler for `node`.
    pub fn set_handler(&self, node: NodeId, f: impl FnMut(&mut Sim, Datagram) + 'static) {
        self.inner.borrow_mut().nodes[node.0 as usize].handler = Some(Box::new(f));
    }

    /// Joins a multicast group — the ES "tuning in" to a channel; no
    /// dialogue with the sender is involved (§2.3).
    pub fn join(&self, node: NodeId, group: McastGroup) {
        let mut inner = self.inner.borrow_mut();
        let groups = &mut inner.nodes[node.0 as usize].groups;
        if !groups.contains(&group) {
            groups.push(group);
        }
    }

    /// Leaves a multicast group — "tuning out" (channel switching).
    pub fn leave(&self, node: NodeId, group: McastGroup) {
        let mut inner = self.inner.borrow_mut();
        inner.nodes[node.0 as usize].groups.retain(|&g| g != group);
    }

    /// True if `node` is currently a member of `group`.
    pub fn is_member(&self, node: NodeId, group: McastGroup) -> bool {
        self.inner.borrow().nodes[node.0 as usize]
            .groups
            .contains(&group)
    }

    /// The LAN's current physical parameters.
    pub fn config(&self) -> LanConfig {
        self.inner.borrow().config
    }

    /// Replaces the LAN's physical parameters mid-run — the scheduled
    /// impairment transition a chaos scenario scripts on the sim clock.
    /// Traffic already serialized keeps its old delivery schedule; the
    /// next [`Lan::send`] sees the new config. Journaled when a journal
    /// is attached.
    pub fn set_config(&self, sim: &mut Sim, config: LanConfig) {
        let journal = {
            let mut inner = self.inner.borrow_mut();
            inner.config = config;
            inner.journal.clone()
        };
        if let Some(j) = journal {
            j.emit(
                Stamp::virtual_ns(sim.now().as_nanos()),
                Severity::Info,
                "net",
                "lan configuration changed",
                &[
                    ("loss_prob", format!("{}", config.loss_prob)),
                    ("burst", config.burst.is_some().to_string()),
                    ("jitter_std_us", config.jitter_std.as_micros().to_string()),
                    ("reorder_prob", format!("{}", config.reorder_prob)),
                    ("duplicate_prob", format!("{}", config.duplicate_prob)),
                ],
            );
        }
    }

    /// Cuts `node` off from the LAN until `until`: every delivery to it
    /// in the window is dropped (and counted as partitioned). A second
    /// call extends or shortens the window; [`Lan::heal`] ends it early.
    pub fn partition(&self, sim: &mut Sim, node: NodeId, until: SimTime) {
        let journal = {
            let mut inner = self.inner.borrow_mut();
            inner.nodes[node.0 as usize].partitioned_until = Some(until);
            inner.journal.clone()
        };
        if let Some(j) = journal {
            j.emit(
                Stamp::virtual_ns(sim.now().as_nanos()),
                Severity::Warn,
                "net",
                "receiver partitioned",
                &[
                    ("node", self.node_name(node)),
                    ("until_us", until.as_micros().to_string()),
                ],
            );
        }
    }

    /// Ends `node`'s partition window immediately.
    pub fn heal(&self, sim: &mut Sim, node: NodeId) {
        let journal = {
            let mut inner = self.inner.borrow_mut();
            inner.nodes[node.0 as usize].partitioned_until = None;
            inner.journal.clone()
        };
        if let Some(j) = journal {
            j.emit(
                Stamp::virtual_ns(sim.now().as_nanos()),
                Severity::Info,
                "net",
                "receiver partition healed",
                &[("node", self.node_name(node))],
            );
        }
    }

    /// Sets (or, with `loss_prob == 0.0`, clears) an extra
    /// per-datagram loss probability on deliveries to `node` — one
    /// flaky NIC or radio link, while the rest of the segment stays
    /// clean. The draw comes from the node's private RNG stream, so
    /// the impairment pattern is independent of fleet size. Journaled
    /// when a journal is attached.
    pub fn degrade(&self, sim: &mut Sim, node: NodeId, loss_prob: f64) {
        let journal = {
            let mut inner = self.inner.borrow_mut();
            inner.nodes[node.0 as usize].degrade_loss = loss_prob.clamp(0.0, 1.0);
            inner.journal.clone()
        };
        if let Some(j) = journal {
            if loss_prob > 0.0 {
                j.emit(
                    Stamp::virtual_ns(sim.now().as_nanos()),
                    Severity::Warn,
                    "net",
                    "receiver degraded",
                    &[
                        ("node", self.node_name(node)),
                        ("loss_prob", format!("{loss_prob}")),
                    ],
                );
            } else {
                j.emit(
                    Stamp::virtual_ns(sim.now().as_nanos()),
                    Severity::Info,
                    "net",
                    "receiver degrade cleared",
                    &[("node", self.node_name(node))],
                );
            }
        }
    }

    /// The extra per-datagram loss probability currently applied to
    /// `node` (0.0 = healthy).
    pub fn degrade_loss(&self, node: NodeId) -> f64 {
        self.inner.borrow().nodes[node.0 as usize].degrade_loss
    }

    /// True while `node` sits inside a partition window at `now`.
    pub fn is_partitioned(&self, node: NodeId, now: SimTime) -> bool {
        self.inner.borrow().nodes[node.0 as usize]
            .partitioned_until
            .is_some_and(|until| now < until)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> LanStats {
        self.inner.borrow().stats
    }

    /// Payload bytes multicast to `group` so far (per-channel
    /// accounting for multi-stream deployments).
    pub fn group_bytes(&self, group: McastGroup) -> u64 {
        self.inner
            .borrow()
            .group_bytes
            .get(&group)
            .copied()
            .unwrap_or(0)
    }

    /// Per-second wire utilization series (fraction of line rate),
    /// up to `until`.
    pub fn utilization_series(&self, until: SimTime) -> TimeSeries {
        let inner = self.inner.borrow();
        let capacity_per_bucket = inner.config.bandwidth_bps as f64 / 8.0;
        let mut out = TimeSeries::new("lan-utilization");
        for &(t, bytes) in inner.wire_usage.series().samples() {
            if t > until {
                break;
            }
            out.push(t, bytes / capacity_per_bucket);
        }
        out
    }

    /// Sends a datagram. Serialization occupies the sender's egress
    /// link FIFO; delivery events are scheduled per receiver.
    pub fn send(&self, sim: &mut Sim, from: NodeId, dst: Dest, payload: Bytes) {
        let lan = self.clone();
        let (deliver_at_base, receivers, lost_count) = {
            let mut inner = self.inner.borrow_mut();
            let config = inner.config;

            // Fragment count and wire bytes.
            let frags = payload.len().div_ceil(config.mtu).max(1);
            let wire_bytes = payload.len() + frags * WIRE_OVERHEAD;
            inner.stats.datagrams_sent += 1;
            inner.stats.payload_bytes_sent += payload.len() as u64;
            inner.stats.wire_bytes_sent += wire_bytes as u64;
            inner.wire_usage.add(sim.now(), wire_bytes as f64);

            if let Dest::Multicast(g) = dst {
                inner.stats.multicast_sent += 1;
                *inner.group_bytes.entry(g).or_insert(0) += payload.len() as u64;
            }

            // FIFO serialization: per sender link on a switch, on the
            // whole segment for a shared medium.
            let ser = SimDuration::for_bytes_at_rate(wire_bytes as u64, config.bandwidth_bps);
            let done = match config.medium {
                MediumMode::Switched => {
                    let node = &mut inner.nodes[from.0 as usize];
                    let start = sim.now().max(node.link_busy_until);
                    let done = start + ser;
                    node.link_busy_until = done;
                    done
                }
                MediumMode::SharedHub => {
                    let start = sim.now().max(inner.medium_busy_until);
                    let done = start + ser;
                    inner.medium_busy_until = done;
                    done
                }
            };

            // Receiver set.
            let receivers: Vec<u32> = match dst {
                Dest::Unicast(NodeId(n)) => {
                    if (n as usize) < inner.nodes.len() {
                        vec![n]
                    } else {
                        Vec::new()
                    }
                }
                Dest::Multicast(group) => inner
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|&(i, node)| i as u32 != from.0 && node.groups.contains(&group))
                    .map(|(i, _)| i as u32)
                    .collect(),
            };

            // Per-receiver impairments, each sampled from the
            // *receiver's* private RNG stream so one node's loss and
            // jitter pattern is independent of the rest of the fleet.
            // Loss is sampled per wire fragment (independently, or
            // through the receiver's Gilbert–Elliott chain when burst
            // loss is configured); any lost fragment fails reassembly
            // and loses the datagram for that receiver. Surviving
            // deliveries may then be reordered (held back), jittered,
            // or duplicated.
            let now = sim.now();
            let seed = sim.seed();
            let mut kept: Vec<(u32, SimDuration)> = Vec::with_capacity(receivers.len());
            let mut lost = 0u64;
            for r in receivers {
                enum Outcome {
                    Partitioned,
                    Degraded,
                    Lost {
                        partial: bool,
                    },
                    Kept {
                        offset: SimDuration,
                        dup_offset: Option<SimDuration>,
                        reordered: bool,
                    },
                }
                let outcome = {
                    let node = &mut inner.nodes[r as usize];
                    if node.partitioned_until.is_some_and(|until| now < until) {
                        Outcome::Partitioned
                    } else if node.degrade_loss > 0.0 && {
                        let rng = node.rng.get_or_insert_with(|| {
                            StdRng::seed_from_u64(node_stream_seed(seed, r))
                        });
                        chance(rng, node.degrade_loss)
                    } {
                        Outcome::Degraded
                    } else {
                        let rng = node.rng.get_or_insert_with(|| {
                            StdRng::seed_from_u64(node_stream_seed(seed, r))
                        });
                        let mut lost_frags = 0usize;
                        for _ in 0..frags {
                            let frag_lost = match config.burst {
                                Some(b) => node.burst_chain.step(
                                    rng,
                                    b.p_good_to_bad,
                                    b.p_bad_to_good,
                                    b.loss_good,
                                    b.loss_bad,
                                ),
                                None => config.loss_prob > 0.0 && chance(rng, config.loss_prob),
                            };
                            lost_frags += frag_lost as usize;
                        }
                        if lost_frags > 0 {
                            Outcome::Lost {
                                partial: frags > 1 && lost_frags < frags,
                            }
                        } else {
                            let mut extra = SimDuration::ZERO;
                            let mut reordered = false;
                            if config.reorder_prob > 0.0 && chance(rng, config.reorder_prob) {
                                extra = config.reorder_delay;
                                reordered = true;
                            }
                            let jitter = |rng: &mut StdRng| {
                                if config.jitter_std.is_zero() {
                                    SimDuration::ZERO
                                } else {
                                    let ns = normal(rng, 0.0, config.jitter_std.as_nanos() as f64);
                                    SimDuration::from_nanos(ns.max(0.0) as u64)
                                }
                            };
                            let offset = extra + jitter(rng);
                            let dup_offset = (config.duplicate_prob > 0.0
                                && chance(rng, config.duplicate_prob))
                            .then(|| extra + config.propagation + jitter(rng));
                            Outcome::Kept {
                                offset,
                                dup_offset,
                                reordered,
                            }
                        }
                    }
                };
                match outcome {
                    Outcome::Partitioned => {
                        inner.stats.datagrams_lost += 1;
                        inner.stats.datagrams_partitioned += 1;
                        lost += 1;
                    }
                    Outcome::Degraded => {
                        inner.stats.datagrams_lost += 1;
                        inner.stats.datagrams_degraded += 1;
                        lost += 1;
                    }
                    Outcome::Lost { partial } => {
                        inner.stats.datagrams_lost += 1;
                        if partial {
                            inner.stats.datagrams_lost_partial += 1;
                        }
                        lost += 1;
                    }
                    Outcome::Kept {
                        offset,
                        dup_offset,
                        reordered,
                    } => {
                        if reordered {
                            inner.stats.datagrams_reordered += 1;
                        }
                        kept.push((r, offset));
                        if let Some(d) = dup_offset {
                            inner.stats.datagrams_duplicated += 1;
                            kept.push((r, d));
                        }
                    }
                }
            }
            (done + config.propagation, kept, lost)
        };
        if lost_count > 0 {
            let journal = self.inner.borrow().journal.clone();
            if let Some(j) = journal {
                let name = self.node_name(from);
                j.emit(
                    Stamp::virtual_ns(sim.now().as_nanos()),
                    Severity::Warn,
                    "net",
                    "datagram lost in transit",
                    &[
                        ("from", name),
                        ("receivers_lost", lost_count.to_string()),
                        ("bytes", payload.len().to_string()),
                    ],
                );
            }
        }

        // Group deliveries that share an arrival instant *and* a
        // receiver segment into one batch event: the common case — a
        // zero-jitter multicast to a whole fleet on one segment —
        // becomes a single event instead of one per receiver. Distinct
        // arrival times (jitter, reordering, duplicates) each get
        // their own singleton batch. The segment key is part of the
        // split because a batch executes in its receivers' segment.
        let mut batches: Vec<(SimTime, u32, Vec<u32>)> = Vec::new();
        let mut index: std::collections::BTreeMap<(SimTime, u32), usize> =
            std::collections::BTreeMap::new();
        let (router, segments): (ShardRouter, Vec<u32>) = {
            let inner = self.inner.borrow();
            (
                inner.router.clone(),
                receivers
                    .iter()
                    .map(|&(r, _)| inner.nodes[r as usize].segment)
                    .collect(),
            )
        };
        for (&(r, offset), &seg) in receivers.iter().zip(&segments) {
            let at = deliver_at_base + offset;
            let i = *index.entry((at, seg)).or_insert_with(|| {
                batches.push((at, seg, Vec::new()));
                batches.len() - 1
            });
            batches[i].2.push(r);
        }
        for (at, seg, rs) in batches {
            let lan = lan.clone();
            let dg = Datagram {
                src: from,
                dst,
                payload: payload.clone(),
            };
            router.post(sim, seg, at, move |sim| lan.deliver_batch(sim, &rs, dg));
        }
    }

    /// Delivers one datagram to every receiver of a shared arrival
    /// instant, in receiver order.
    fn deliver_batch(&self, sim: &mut Sim, rs: &[u32], dg: Datagram) {
        for &r in rs {
            self.run_handler(sim, r, &dg);
        }
    }

    fn run_handler(&self, sim: &mut Sim, r: u32, dg: &Datagram) {
        // Take the handler out so it can borrow the LAN itself.
        let handler = self.inner.borrow_mut().nodes[r as usize].handler.take();
        if let Some(mut h) = handler {
            self.inner.borrow_mut().stats.datagrams_delivered += 1;
            h(sim, dg.clone());
            let mut inner = self.inner.borrow_mut();
            let slot = &mut inner.nodes[r as usize].handler;
            // A handler installed during delivery wins.
            if slot.is_none() {
                *slot = Some(h);
            }
        }
    }

    /// Convenience: multicast send.
    pub fn multicast(&self, sim: &mut Sim, from: NodeId, group: McastGroup, payload: Bytes) {
        self.send(sim, from, Dest::Multicast(group), payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type DeliveryLog = Rc<RefCell<Vec<(SimTime, Vec<u8>)>>>;

    fn collect_deliveries(lan: &Lan, node: NodeId) -> DeliveryLog {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        lan.set_handler(node, move |sim, dg| {
            l.borrow_mut().push((sim.now(), dg.payload.to_vec()));
        });
        log
    }

    #[test]
    fn unicast_delivery_with_serialization_and_propagation() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let log = collect_deliveries(&lan, b);
        lan.send(&mut sim, a, Dest::Unicast(b), Bytes::from(vec![0u8; 1_000]));
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // (1000 + 66) * 8 bits / 100 Mbps = 85.28 us, + 50 us propagation.
        let t = log[0].0.as_nanos();
        assert_eq!(t, 85_280 + 50_000);
    }

    #[test]
    fn multicast_reaches_members_only_and_not_sender() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let s1 = lan.attach("es1");
        let s2 = lan.attach("es2");
        let s3 = lan.attach("es3");
        let g = McastGroup(7);
        lan.join(producer, g);
        lan.join(s1, g);
        lan.join(s2, g);
        // s3 does not join.
        let l1 = collect_deliveries(&lan, s1);
        let l2 = collect_deliveries(&lan, s2);
        let l3 = collect_deliveries(&lan, s3);
        let lp = collect_deliveries(&lan, producer);
        lan.multicast(&mut sim, producer, g, Bytes::from_static(b"hello"));
        sim.run();
        assert_eq!(l1.borrow().len(), 1);
        assert_eq!(l2.borrow().len(), 1);
        assert_eq!(l3.borrow().len(), 0);
        assert_eq!(lp.borrow().len(), 0, "sender must not hear itself");
        // Uniform arrival: both receivers at the same instant (§3.2).
        assert_eq!(l1.borrow()[0].0, l2.borrow()[0].0);
    }

    #[test]
    fn multicast_fanout_shares_one_payload_allocation() {
        // The fan-out is zero-copy: every receiver's datagram must
        // reference the sender's payload buffer, not a deep copy.
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let g = McastGroup(7);
        let ptrs: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..8 {
            let node = lan.attach(format!("es{i}"));
            lan.join(node, g);
            let p = ptrs.clone();
            lan.set_handler(node, move |_sim, dg| {
                p.borrow_mut().push(dg.payload.as_ptr() as usize);
            });
        }
        let payload = Bytes::from(vec![0xABu8; 4_096]);
        let backing = payload.as_ptr() as usize;
        lan.multicast(&mut sim, producer, g, payload);
        sim.run();
        let ptrs = ptrs.borrow();
        assert_eq!(ptrs.len(), 8);
        for &p in ptrs.iter() {
            assert_eq!(p, backing, "receiver saw a copied payload");
        }
    }

    #[test]
    fn degrade_targets_one_receiver_and_clears() {
        let mut sim = Sim::new(5);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let sick = lan.attach("es-sick");
        let healthy = lan.attach("es-ok");
        let g = McastGroup(7);
        lan.join(sick, g);
        lan.join(healthy, g);
        let lsick = collect_deliveries(&lan, sick);
        let lok = collect_deliveries(&lan, healthy);
        lan.degrade(&mut sim, sick, 1.0);
        for _ in 0..20 {
            lan.multicast(&mut sim, producer, g, Bytes::from_static(b"pkt"));
        }
        sim.run();
        assert_eq!(lsick.borrow().len(), 0, "fully degraded link drops all");
        assert_eq!(lok.borrow().len(), 20, "healthy neighbor unaffected");
        let stats = lan.stats();
        assert_eq!(stats.datagrams_degraded, 20);
        assert_eq!(stats.datagrams_lost, 20);
        // Clearing restores delivery.
        lan.degrade(&mut sim, sick, 0.0);
        assert_eq!(lan.degrade_loss(sick), 0.0);
        lan.multicast(&mut sim, producer, g, Bytes::from_static(b"pkt"));
        sim.run();
        assert_eq!(lsick.borrow().len(), 1);
        assert_eq!(lan.stats().datagrams_degraded, 20, "no further drops");
    }

    #[test]
    fn join_leave_controls_membership() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(1);
        let log = collect_deliveries(&lan, b);
        lan.join(b, g);
        assert!(lan.is_member(b, g));
        lan.multicast(&mut sim, a, g, Bytes::from_static(b"x"));
        sim.run();
        lan.leave(b, g);
        assert!(!lan.is_member(b, g));
        lan.multicast(&mut sim, a, g, Bytes::from_static(b"y"));
        sim.run();
        assert_eq!(log.borrow().len(), 1, "only the pre-leave packet");
    }

    #[test]
    fn fifo_serialization_queues_back_to_back_sends() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let log = collect_deliveries(&lan, b);
        for _ in 0..3 {
            lan.send(&mut sim, a, Dest::Unicast(b), Bytes::from(vec![0u8; 1_000]));
        }
        sim.run();
        let log = log.borrow();
        let per_frame = 85_280u64;
        for (i, (t, _)) in log.iter().enumerate() {
            assert_eq!(
                t.as_nanos(),
                per_frame * (i as u64 + 1) + 50_000,
                "frame {i}"
            );
        }
    }

    #[test]
    fn loss_model_drops_about_the_right_fraction() {
        let mut sim = Sim::new(42);
        let lan = Lan::new(LanConfig::lossy(0.25, SimDuration::ZERO));
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(0);
        lan.join(b, g);
        let log = collect_deliveries(&lan, b);
        let n = 4_000;
        for _ in 0..n {
            lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
            sim.run();
        }
        let delivered = log.borrow().len() as f64;
        let rate = delivered / n as f64;
        assert!((rate - 0.75).abs() < 0.03, "delivery rate {rate}");
        let stats = lan.stats();
        assert_eq!(stats.datagrams_sent, n as u64);
        assert_eq!(stats.datagrams_delivered + stats.datagrams_lost, n as u64);
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let mut sim = Sim::new(7);
        let lan = Lan::new(LanConfig::lossy(0.0, SimDuration::from_micros(500)));
        let a = lan.attach("a");
        let b = lan.attach("b");
        let c = lan.attach("c");
        let g = McastGroup(0);
        lan.join(b, g);
        lan.join(c, g);
        let lb = collect_deliveries(&lan, b);
        let lc = collect_deliveries(&lan, c);
        let mut diffs = Vec::new();
        for _ in 0..100 {
            lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
            sim.run();
        }
        for (x, y) in lb.borrow().iter().zip(lc.borrow().iter()) {
            diffs.push((x.0.as_nanos() as i64 - y.0.as_nanos() as i64).abs());
        }
        assert!(
            diffs.iter().any(|&d| d > 100_000),
            "jitter produced no measurable skew"
        );
    }

    #[test]
    fn fragmentation_counts_wire_overhead_per_fragment() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let _log = collect_deliveries(&lan, b);
        // 4000 bytes over a 1472-byte MTU = 3 fragments.
        lan.send(&mut sim, a, Dest::Unicast(b), Bytes::from(vec![0u8; 4_000]));
        sim.run();
        let stats = lan.stats();
        assert_eq!(stats.wire_bytes_sent, 4_000 + 3 * WIRE_OVERHEAD as u64);
    }

    #[test]
    fn bandwidth_matters_10mbps_is_10x_slower() {
        let payload = Bytes::from(vec![0u8; 10_000]);
        let run = |config: LanConfig| -> u64 {
            let mut sim = Sim::new(1);
            let lan = Lan::new(config);
            let a = lan.attach("a");
            let b = lan.attach("b");
            let log = collect_deliveries(&lan, b);
            lan.send(&mut sim, a, Dest::Unicast(b), payload.clone());
            sim.run();
            let t = log.borrow()[0].0;
            t.as_nanos()
        };
        let fast = run(LanConfig::default());
        let slow = run(LanConfig::legacy_10mbps());
        let ratio = (slow - 50_000) as f64 / (fast - 50_000) as f64;
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn utilization_series_reflects_traffic() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::legacy_10mbps());
        let a = lan.attach("a");
        let b = lan.attach("b");
        lan.join(b, McastGroup(0));
        // 125 kB/s = 1 Mbps = 10% of a 10 Mbps link, for 3 seconds.
        for ms in (0..3_000).step_by(8) {
            let lan2 = lan.clone();
            sim.schedule_at(SimTime::from_millis(ms), move |sim| {
                lan2.multicast(sim, a, McastGroup(0), Bytes::from(vec![0u8; 1_000]));
            });
        }
        sim.run_until(SimTime::from_secs(3));
        let series = lan.utilization_series(SimTime::from_secs(3));
        assert!(series.len() >= 2);
        let mean = series.mean().unwrap();
        assert!((mean - 0.107).abs() < 0.01, "mean utilization {mean}");
    }

    #[test]
    fn stats_offered_load() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        lan.send(&mut sim, a, Dest::Unicast(b), Bytes::from(vec![0u8; 934]));
        sim.run();
        let bps = lan.stats().offered_bits_per_sec(SimDuration::from_secs(1));
        assert!((bps - 8_000.0).abs() < 1.0, "{bps}");
        assert_eq!(lan.stats().offered_bits_per_sec(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn unicast_to_unknown_node_is_dropped_quietly() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        lan.send(
            &mut sim,
            a,
            Dest::Unicast(NodeId(99)),
            Bytes::from_static(b"x"),
        );
        sim.run();
        assert_eq!(lan.stats().datagrams_delivered, 0);
    }

    #[test]
    fn shared_hub_serializes_across_senders() {
        // Two senders each pushing 1000-byte frames: on a switch their
        // transmissions overlap; on a hub they queue behind each other.
        let run = |medium: MediumMode| -> u64 {
            let mut sim = Sim::new(1);
            let lan = Lan::new(LanConfig {
                medium,
                ..LanConfig::default()
            });
            let a = lan.attach("a");
            let b = lan.attach("b");
            let c = lan.attach("c");
            let log = collect_deliveries(&lan, c);
            lan.join(c, McastGroup(0));
            for _ in 0..10 {
                lan.multicast(&mut sim, a, McastGroup(0), Bytes::from(vec![0u8; 1_000]));
                lan.multicast(&mut sim, b, McastGroup(0), Bytes::from(vec![0u8; 1_000]));
            }
            sim.run();
            let last = {
                let l = log.borrow();
                l.last().unwrap().0
            };
            last.as_nanos()
        };
        let switched = run(MediumMode::Switched);
        let hub = run(MediumMode::SharedHub);
        // 20 frames on a hub take twice as long as 10 per link.
        assert!(
            hub > switched * 19 / 10,
            "hub {hub} ns vs switched {switched} ns"
        );
    }

    #[test]
    fn group_byte_accounting() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        lan.join(b, McastGroup(1));
        lan.join(b, McastGroup(2));
        lan.multicast(&mut sim, a, McastGroup(1), Bytes::from(vec![0u8; 100]));
        lan.multicast(&mut sim, a, McastGroup(1), Bytes::from(vec![0u8; 50]));
        lan.multicast(&mut sim, a, McastGroup(2), Bytes::from(vec![0u8; 7]));
        sim.run();
        assert_eq!(lan.group_bytes(McastGroup(1)), 150);
        assert_eq!(lan.group_bytes(McastGroup(2)), 7);
        assert_eq!(lan.group_bytes(McastGroup(9)), 0);
    }

    #[test]
    fn handler_can_send_from_within_delivery() {
        // A speaker that echoes a packet back must not deadlock on the
        // LAN's interior RefCell.
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let echo_lan = lan.clone();
        lan.set_handler(b, move |sim, dg| {
            echo_lan.send(sim, b, Dest::Unicast(dg.src), dg.payload);
        });
        let got = collect_deliveries(&lan, a);
        lan.send(&mut sim, a, Dest::Unicast(b), Bytes::from_static(b"ping"));
        sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].1, b"ping");
    }

    #[test]
    fn burst_loss_clusters_drops() {
        // Same long-run loss rate, but Gilbert–Elliott losses arrive in
        // runs: the count of loss runs must be far below the count an
        // i.i.d. model produces at the same rate.
        let run = |config: LanConfig| -> (f64, usize) {
            let mut sim = Sim::new(42);
            let lan = Lan::new(config);
            let a = lan.attach("a");
            let b = lan.attach("b");
            let g = McastGroup(0);
            lan.join(b, g);
            let log = collect_deliveries(&lan, b);
            let n = 10_000u64;
            for i in 0..n {
                lan.multicast(&mut sim, a, g, Bytes::from(vec![(i % 251) as u8]));
                sim.run();
            }
            // Reconstruct the loss pattern from which payloads arrived.
            let delivered: Vec<u8> = log.borrow().iter().map(|(_, p)| p[0]).collect();
            let mut runs = 0usize;
            let mut idx = 0usize;
            let mut in_run = false;
            for i in 0..n {
                let got = delivered.get(idx) == Some(&((i % 251) as u8));
                if got {
                    idx += 1;
                    in_run = false;
                } else if !in_run {
                    runs += 1;
                    in_run = true;
                }
            }
            (1.0 - delivered.len() as f64 / n as f64, runs)
        };
        let (rate_iid, runs_iid) = run(LanConfig::lossy(0.2, SimDuration::ZERO));
        let (rate_ge, runs_ge) = run(LanConfig::bursty(0.2, 12.0));
        assert!((rate_iid - 0.2).abs() < 0.04, "iid loss rate {rate_iid}");
        assert!((rate_ge - 0.2).abs() < 0.06, "burst loss rate {rate_ge}");
        assert!(
            runs_ge * 3 < runs_iid,
            "bursts not clustered: {runs_ge} runs vs iid {runs_iid}"
        );
    }

    #[test]
    fn reorder_holds_deliveries_back() {
        let mut sim = Sim::new(9);
        let hold = SimDuration::from_millis(5);
        let lan = Lan::new(LanConfig::reordering(0.3, hold));
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(0);
        lan.join(b, g);
        let log = collect_deliveries(&lan, b);
        let n = 500u64;
        for i in 0..n {
            let lan2 = lan.clone();
            sim.schedule_at(SimTime::from_millis(i), move |sim| {
                lan2.multicast(sim, a, g, Bytes::from(vec![(i % 251) as u8]));
            });
        }
        sim.run();
        let stats = lan.stats();
        assert!(
            stats.datagrams_reordered > 0,
            "no deliveries were reordered"
        );
        assert_eq!(stats.datagrams_lost, 0, "reorder must never drop");
        assert_eq!(log.borrow().len(), n as usize, "all packets delivered");
        // Held-back packets really arrive out of order: the payload
        // sequence as received is a permutation, not the identity.
        let order: Vec<u8> = log.borrow().iter().map(|(_, p)| p[0]).collect();
        let sent: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_ne!(order, sent, "reordering left the stream in order");
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut sim = Sim::new(11);
        let lan = Lan::new(LanConfig::duplicating(0.25));
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(0);
        lan.join(b, g);
        let log = collect_deliveries(&lan, b);
        let n = 2_000u64;
        for _ in 0..n {
            lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
            sim.run();
        }
        let stats = lan.stats();
        assert!(stats.datagrams_duplicated > 0);
        assert_eq!(
            log.borrow().len() as u64,
            n + stats.datagrams_duplicated,
            "each duplicate is one extra delivery"
        );
        let rate = stats.datagrams_duplicated as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.04, "duplication rate {rate}");
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let mut sim = Sim::new(3);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(0);
        lan.join(b, g);
        let log = collect_deliveries(&lan, b);
        lan.partition(&mut sim, b, SimTime::from_secs(1));
        assert!(lan.is_partitioned(b, SimTime::ZERO));
        assert!(!lan.is_partitioned(b, SimTime::from_secs(1)));
        for ms in [0u64, 500, 1_500] {
            let lan2 = lan.clone();
            sim.schedule_at(SimTime::from_millis(ms), move |sim| {
                lan2.multicast(sim, a, g, Bytes::from_static(b"p"));
            });
        }
        sim.run();
        // The two sends inside [0, 1 s) drop; the one after arrives.
        assert_eq!(log.borrow().len(), 1);
        let stats = lan.stats();
        assert_eq!(stats.datagrams_partitioned, 2);
        assert_eq!(stats.datagrams_lost, 2);

        // An early heal reopens the port immediately.
        lan.partition(&mut sim, b, SimTime::from_secs(10));
        lan.heal(&mut sim, b);
        lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
        sim.run();
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn set_config_switches_impairments_mid_run() {
        let mut sim = Sim::new(5);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(0);
        lan.join(b, g);
        let log = collect_deliveries(&lan, b);
        let n = 1_000;
        for _ in 0..n {
            lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
            sim.run();
        }
        assert_eq!(log.borrow().len(), n, "clean phase delivers everything");
        lan.set_config(&mut sim, LanConfig::lossy(1.0, SimDuration::ZERO));
        assert_eq!(lan.config().loss_prob, 1.0);
        for _ in 0..n {
            lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
            sim.run();
        }
        assert_eq!(log.borrow().len(), n, "total-loss phase delivers nothing");
        lan.set_config(&mut sim, LanConfig::default());
        lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
        sim.run();
        assert_eq!(log.borrow().len(), n + 1, "recovery phase delivers again");
    }

    #[test]
    fn loss_pattern_is_per_receiver_not_global() {
        // A receiver's impairment draws come from its own RNG stream:
        // attaching more speakers must not change which packets an
        // existing speaker loses.
        let run = |extra_receivers: usize| -> Vec<u8> {
            let mut sim = Sim::new(77);
            let lan = Lan::new(LanConfig::lossy(0.3, SimDuration::ZERO));
            let a = lan.attach("a");
            let b = lan.attach("b");
            let g = McastGroup(0);
            lan.join(b, g);
            let log = collect_deliveries(&lan, b);
            for i in 0..extra_receivers {
                let n = lan.attach(format!("extra{i}"));
                lan.join(n, g);
                let _ = collect_deliveries(&lan, n);
            }
            for i in 0..500u64 {
                lan.multicast(&mut sim, a, g, Bytes::from(vec![(i % 251) as u8]));
                sim.run();
            }
            let got: Vec<u8> = log.borrow().iter().map(|(_, p)| p[0]).collect();
            got
        };
        assert_eq!(run(0), run(7), "fleet size changed b's loss pattern");
    }

    #[test]
    fn batch_delivery_preserves_multicast_instant_and_order() {
        // Same-instant fan-out runs as one batch; handlers still see
        // one delivery each, in node-index order, at the same time —
        // and the very same payload allocation, which is what lets
        // receivers share per-datagram work by buffer identity.
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let a = lan.attach("a");
        let g = McastGroup(1);
        let order: Rc<RefCell<Vec<(usize, SimTime, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let node = lan.attach(format!("es{i}"));
            lan.join(node, g);
            let o = order.clone();
            lan.set_handler(node, move |sim, dg| {
                o.borrow_mut()
                    .push((i, sim.now(), dg.payload.as_ptr() as usize))
            });
        }
        lan.multicast(&mut sim, a, g, Bytes::from_static(b"tick"));
        sim.run();
        let order = order.borrow();
        assert_eq!(
            order.iter().map(|&(i, ..)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(order
            .iter()
            .all(|&(_, t, buf)| t == order[0].1 && buf == order[0].2));
        assert_eq!(lan.stats().datagrams_delivered, 5);
    }

    #[test]
    fn partial_fragment_loss_counted_separately() {
        // 4-fragment datagrams at moderate per-fragment loss: most lost
        // datagrams lose only some fragments, and the partial counter
        // must see them. Single-fragment datagrams must never count.
        let mut sim = Sim::new(21);
        let lan = Lan::new(LanConfig::lossy(0.15, SimDuration::ZERO));
        let a = lan.attach("a");
        let b = lan.attach("b");
        let g = McastGroup(0);
        lan.join(b, g);
        let _log = collect_deliveries(&lan, b);
        for _ in 0..500 {
            lan.multicast(&mut sim, a, g, Bytes::from(vec![0u8; 5_000]));
            sim.run();
        }
        let stats = lan.stats();
        assert!(stats.datagrams_lost > 0);
        assert!(
            stats.datagrams_lost_partial > 0,
            "partial losses not counted"
        );
        assert!(stats.datagrams_lost_partial <= stats.datagrams_lost);

        let mut sim = Sim::new(21);
        let lan = Lan::new(LanConfig::lossy(0.5, SimDuration::ZERO));
        let a = lan.attach("a");
        let b = lan.attach("b");
        lan.join(b, g);
        let _log = collect_deliveries(&lan, b);
        for _ in 0..200 {
            lan.multicast(&mut sim, a, g, Bytes::from_static(b"p"));
            sim.run();
        }
        assert_eq!(
            lan.stats().datagrams_lost_partial,
            0,
            "single-fragment datagrams cannot lose partially"
        );
    }
}
