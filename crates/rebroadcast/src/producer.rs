//! The Audio Stream Rebroadcaster (§2.2, §2.3) under virtual time.
//!
//! "The Rebroadcaster is just a single-threaded process that collects
//! audio from the master-side VAD and delivers it to the LAN." It
//! keeps *no state about the speakers*: everything a late joiner needs
//! arrives within one control interval.
//!
//! What goes into its packets is [`StreamTx`]'s business.
//! [`Rebroadcaster`] is that core's simulator driver:
//! - drains the [`VadMaster`] (audio + in-band configuration updates),
//! - schedules each block's three steps on the event engine — pace on
//!   arrival, encode at the send time, seal when the encode is done,
//! - optionally bills encode work to a [`SimCpu`] (the Figure 4 CPU
//!   model): the send happens when the CPU finishes, which is the
//!   compression latency the paper mentions,
//! - multicasts what the core sealed, arms the control timer and
//!   journals.

use bytes::Bytes;

use es_audio::AudioConfig;
use es_net::{Lan, McastGroup, NodeId};
use es_sim::{shared, work_to_cycles, RepeatingTimer, Shared, Sim, SimCpu, SimTime};
use es_telemetry::{Journal, Registry, Severity, Stamp, Telemetry};
use es_vad::{MasterItem, VadMaster};

use crate::tx::{Block, ProducerStats, StreamTx, StreamTxConfig};

/// One `key = value` of a journal line.
type Field<'a> = (&'a str, String);

/// Tuning knobs for one rebroadcast stream.
#[derive(Clone)]
pub struct RebroadcasterConfig {
    /// The stream's protocol settings.
    pub tx: StreamTxConfig,
    /// Multicast group for this channel.
    pub group: McastGroup,
    /// Optional CPU model billed for encode work.
    pub cpu: Option<Shared<SimCpu>>,
}

impl RebroadcasterConfig {
    /// [`StreamTxConfig::new`]'s defaults on `group`, no CPU model.
    pub fn new(stream_id: u16, group: McastGroup) -> Self {
        RebroadcasterConfig {
            tx: StreamTxConfig::new(stream_id),
            group,
            cpu: None,
        }
    }
}

struct ProducerState {
    tx: StreamTx,
    group: McastGroup,
    cpu: Option<Shared<SimCpu>>,
    journal: Option<Journal>,
}

/// A running rebroadcaster for one stream.
#[derive(Clone)]
pub struct Rebroadcaster {
    state: Shared<ProducerState>,
    lan: Lan,
    node: NodeId,
    master: VadMaster,
}

impl Rebroadcaster {
    /// Starts the rebroadcaster: hooks the VAD master, arms the control
    /// packet timer, and begins forwarding.
    pub fn start(
        sim: &mut Sim,
        lan: Lan,
        node: NodeId,
        master: VadMaster,
        cfg: RebroadcasterConfig,
    ) -> Rebroadcaster {
        Rebroadcaster::start_inner(sim, lan, node, master, cfg, false)
    }

    /// Starts a *standby* rebroadcaster for the same VAD: it holds the
    /// master but neither reads it nor sends anything until
    /// [`Rebroadcaster::promote`] hands it the primary's stream state.
    pub fn start_standby(
        sim: &mut Sim,
        lan: Lan,
        node: NodeId,
        master: VadMaster,
        cfg: RebroadcasterConfig,
    ) -> Rebroadcaster {
        Rebroadcaster::start_inner(sim, lan, node, master, cfg, true)
    }

    fn start_inner(
        sim: &mut Sim,
        lan: Lan,
        node: NodeId,
        master: VadMaster,
        cfg: RebroadcasterConfig,
        standby: bool,
    ) -> Rebroadcaster {
        let control_interval = cfg.tx.control_interval;
        let state = shared(ProducerState {
            tx: StreamTx::new(cfg.tx, standby),
            group: cfg.group,
            cpu: cfg.cpu,
            journal: None,
        });
        let rb = Rebroadcaster {
            state,
            lan,
            node,
            master,
        };
        // Periodic control packets (§2.3). They start flowing once the
        // first configuration arrives from the VAD (and, for a standby,
        // once it has been promoted). The rebroadcaster runs for the
        // life of the simulation; stopping a stream is modelled by
        // dropping the whole Sim.
        let rb2 = rb.clone();
        RepeatingTimer::start(sim, control_interval, move |sim| {
            rb2.send_control(sim);
        });
        rb.arm_reader(sim);
        rb
    }

    /// Reads the VAD from now on, unless standing by: a standby, or a
    /// primary its standby superseded, neither reads nor re-arms its
    /// readable waiter, leaving queued items to whoever serves.
    fn arm_reader(&self, sim: &mut Sim) {
        if self.is_standby() {
            return;
        }
        let rb = self.clone();
        self.master.on_readable(move |sim| {
            rb.drain(sim);
            rb.arm_reader(sim);
        });
        // Drain anything already queued.
        self.drain(sim);
    }

    fn drain(&self, sim: &mut Sim) {
        if self.is_standby() {
            return;
        }
        let items = self.master.read(sim, usize::MAX);
        for item in items {
            match item {
                MasterItem::Config(c) => {
                    let (codec, quality) = self.state.borrow_mut().tx.on_config(c);
                    self.journal_stream(
                        sim,
                        Severity::Info,
                        "stream configuration selected",
                        &[
                            ("sample_rate", c.sample_rate.to_string()),
                            ("channels", c.channels.to_string()),
                            ("codec", format!("{codec:?}")),
                            ("quality", quality.to_string()),
                        ],
                    );
                    // Announce the change immediately as well as on the
                    // periodic timer.
                    self.send_control(sim);
                }
                MasterItem::Audio(raw) => {
                    let paced = self.state.borrow_mut().tx.pace(sim.now(), raw.len());
                    if let Some(block) = paced {
                        let rb = self.clone();
                        sim.schedule_at(block.send_at, move |sim| {
                            rb.encode_and_send(sim, raw, block);
                        });
                    }
                }
            }
        }
    }

    /// Encodes a paced block, bills the CPU, and schedules the send
    /// for when the encode finishes.
    fn encode_and_send(&self, sim: &mut Sim, raw: Vec<u8>, mut block: Block) {
        let done_at = {
            let mut st = self.state.borrow_mut();
            st.tx.encode(&raw, &mut block);
            match &st.cpu {
                Some(cpu) => cpu
                    .borrow_mut()
                    .submit(sim.now(), work_to_cycles(block.work_units)),
                None => sim.now(),
            }
        };
        let rb = self.clone();
        sim.schedule_at(done_at, move |sim| {
            rb.send(sim, |tx, now, out| tx.seal(now, block, out));
        });
    }

    fn send_control(&self, sim: &mut Sim) {
        self.send(sim, |tx, now, out| tx.control(now, out));
    }

    /// Runs one core step and multicasts what it sealed.
    fn send<R>(
        &self,
        sim: &mut Sim,
        step: impl FnOnce(&mut StreamTx, SimTime, &mut Vec<Bytes>) -> R,
    ) -> R {
        let mut out = Vec::new();
        let (result, group) = {
            let mut st = self.state.borrow_mut();
            (step(&mut st.tx, sim.now(), &mut out), st.group)
        };
        for datagram in out {
            self.lan.multicast(sim, self.node, group, datagram);
        }
        result
    }

    /// One journal line under component `rebroadcast`.
    fn journal(&self, sim: &Sim, severity: Severity, message: &str, fields: &[Field<'_>]) {
        if let Some(j) = &self.state.borrow().journal {
            let stamp = Stamp::virtual_ns(sim.now().as_nanos());
            j.emit(stamp, severity, "rebroadcast", message, fields);
        }
    }

    /// [`Self::journal`] with this stream's id among the fields.
    fn journal_stream(&self, sim: &Sim, severity: Severity, message: &str, fields: &[Field<'_>]) {
        let id = self.state.borrow().tx.config().stream_id.to_string();
        self.journal(
            sim,
            severity,
            message,
            &[&[("stream_id", id)], fields].concat(),
        );
    }

    /// Simulates the rebroadcaster process dying: data and control
    /// packets stop, but the upstream VAD keeps producing, so the
    /// stream clock and sequence numbers keep advancing. A second
    /// crash while down is a no-op.
    pub fn crash(&self, sim: &mut Sim) {
        if self.state.borrow_mut().tx.crash() {
            self.journal_stream(sim, Severity::Error, "rebroadcaster crashed", &[]);
        }
    }

    /// Brings a crashed rebroadcaster back: a control packet goes out
    /// immediately (late joiners and stalled speakers resynchronize
    /// from it) and subsequent audio flows again.
    pub fn restart(&self, sim: &mut Sim) {
        if self.state.borrow_mut().tx.restart() {
            self.journal_stream(sim, Severity::Info, "rebroadcaster restarted", &[]);
            self.send_control(sim);
        }
    }

    /// True while this instance is a warm spare awaiting promotion, or
    /// a primary its standby superseded.
    pub fn is_standby(&self) -> bool {
        self.state.borrow().tx.is_standby()
    }

    /// Re-multicasts cached data packets covering the NACKed
    /// `(first_seq, count)` ranges; returns how many went out (see
    /// [`StreamTx::retransmit`] for what a request can and cannot
    /// reach).
    pub fn retransmit(&self, sim: &mut Sim, ranges: &[(u32, u16)]) -> u64 {
        let n = self.send(sim, |tx, now, out| tx.retransmit(now, ranges, out));
        if n > 0 {
            self.journal_stream(
                sim,
                Severity::Info,
                "retransmitted missed packets",
                &[
                    ("ranges", format!("{ranges:?}")),
                    ("packets", n.to_string()),
                ],
            );
        }
        n
    }

    /// Promotes this standby to primary: adopts `primary`'s stream
    /// state (so play deadlines survive the failover bit-for-bit) and
    /// stands `primary` by in its place — it stops reading the VAD and
    /// sends no control packet or repair again — then starts reading
    /// the shared VAD and announces itself with an immediate control
    /// packet. No-op unless this instance is a standby.
    pub fn promote(&self, sim: &mut Sim, primary: &Rebroadcaster) {
        if !self.is_standby() {
            return;
        }
        primary.journal_stream(sim, Severity::Warn, "rebroadcaster detached", &[]);
        let at_seq = {
            let mut prim = primary.state.borrow_mut();
            self.state.borrow_mut().tx.promote(&mut prim.tx)
        };
        self.journal_stream(
            sim,
            Severity::Warn,
            "standby promoted",
            &[("at_seq", at_seq.to_string())],
        );
        self.arm_reader(sim);
        self.send_control(sim);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ProducerStats {
        self.state.borrow().tx.stats
    }

    /// Forwarding statistics of the VAD feeding this stream.
    pub fn vad_stats(&self) -> es_vad::VadStats {
        self.master.stats()
    }

    /// Attaches a journal for structured diagnostics (configuration
    /// changes and the like).
    pub fn set_journal(&self, journal: Journal) {
        self.state.borrow_mut().journal = Some(journal);
    }

    /// Records producer counters, the compression ratio and
    /// rate-limiter sleeps into `registry` under component
    /// `rebroadcast`.
    pub fn record_telemetry(&self, registry: &mut Registry) {
        let st = self.state.borrow();
        st.tx.stats.record(registry);
        st.tx.config().rate_limiter.stats().record(registry);
        registry.component("rebroadcast").gauge(
            "control_interval_ms",
            st.tx.config().control_interval.as_millis() as f64,
        );
    }

    /// The stream's current audio configuration (meaningful once
    /// [`ProducerStats::control_packets`] is non-zero).
    pub fn stream_config(&self) -> AudioConfig {
        self.state.borrow().tx.stream_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppPacing, AudioApp};
    use crate::{CompressionPolicy, RateLimiter};
    use es_audio::gen::Sine;
    use es_codec::CodecId;
    use es_net::{Datagram, LanConfig};
    use es_proto::auth::StreamSigner;
    use es_proto::{ControlPacket, DataPacket, Packet, FLAG_AUTHENTICATED};
    use es_sim::SimDuration;
    use es_vad::{vad_pair, VadMode};
    use std::rc::Rc;

    /// Full producer-side pipeline: app → VAD → rebroadcaster → LAN.
    fn rig(
        sim: &mut Sim,
        rl: RateLimiter,
        policy: CompressionPolicy,
    ) -> (Rebroadcaster, Shared<Vec<(SimTime, Packet)>>, AudioApp) {
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let listener = lan.attach("listener");
        let group = McastGroup(1);
        lan.join(listener, group);
        let log: Shared<Vec<(SimTime, Packet)>> = shared(Vec::new());
        let l = log.clone();
        lan.set_handler(listener, move |sim: &mut Sim, dg: Datagram| {
            if let Ok(p) = es_proto::decode(&dg.payload) {
                l.borrow_mut().push((sim.now(), p));
            }
        });
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let mut rcfg = RebroadcasterConfig::new(7, group);
        rcfg.tx.rate_limiter = rl;
        rcfg.tx.policy = policy;
        let rb = Rebroadcaster::start(sim, lan.clone(), producer, master, rcfg);
        let app = AudioApp::start(
            sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(2),
            AppPacing::RealTime,
        )
        .unwrap();
        (rb, log, app)
    }

    #[test]
    fn control_packets_flow_periodically_with_config() {
        let mut sim = Sim::new(1);
        let (_rb, log, _app) = rig(&mut sim, RateLimiter::new(), CompressionPolicy::Never);
        sim.run_until(SimTime::from_secs(3));
        let log = log.borrow();
        let controls: Vec<&ControlPacket> = log
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Control(c) => Some(c),
                _ => None,
            })
            .collect();
        // ~1 immediate + every 500 ms over 3 s.
        assert!(controls.len() >= 6, "{} control packets", controls.len());
        for c in &controls {
            assert_eq!(c.config, AudioConfig::CD);
            assert_eq!(c.stream_id, 7);
            assert_eq!(c.control_interval_ms, 500);
        }
        // Wall clock advances monotonically.
        assert!(controls
            .windows(2)
            .all(|w| w[1].producer_time_us >= w[0].producer_time_us));
    }

    #[test]
    fn data_is_rate_limited_to_real_time() {
        let mut sim = Sim::new(1);
        let (rb, log, _app) = rig(&mut sim, RateLimiter::new(), CompressionPolicy::Never);
        sim.run_until(SimTime::from_secs(3));
        let stats = rb.stats();
        // 2 s of CD audio in, all of it out as PCM.
        assert_eq!(stats.audio_bytes_in, 352_800);
        assert_eq!(stats.payload_bytes_out, 352_800);
        let log = log.borrow();
        let data_times: Vec<SimTime> = log
            .iter()
            .filter_map(|(t, p)| match p {
                Packet::Data(_) => Some(*t),
                _ => None,
            })
            .collect();
        // Sends spread over ~2 s, not a burst.
        let span = *data_times.last().unwrap() - data_times[0];
        assert!(
            span >= SimDuration::from_millis(1_700),
            "span {span} too short"
        );
    }

    #[test]
    fn play_deadlines_are_monotone_and_feasible() {
        let mut sim = Sim::new(1);
        let (_rb, log, _app) = rig(&mut sim, RateLimiter::new(), CompressionPolicy::Never);
        sim.run_until(SimTime::from_secs(3));
        let log = log.borrow();
        let mut last = 0u64;
        for (arrived, p) in log.iter() {
            if let Packet::Data(d) = p {
                assert!(d.play_at_us >= last, "deadlines must be monotone");
                last = d.play_at_us;
                // A packet must arrive before its deadline.
                assert!(
                    arrived.as_micros() <= d.play_at_us,
                    "packet for {} arrived at {}",
                    d.play_at_us,
                    arrived.as_micros()
                );
            }
        }
        assert!(last > 0);
    }

    #[test]
    fn compression_policy_shrinks_payload() {
        let mut sim = Sim::new(1);
        let (rb, log, _app) = rig(
            &mut sim,
            RateLimiter::new(),
            CompressionPolicy::paper_default(),
        );
        sim.run_until(SimTime::from_secs(3));
        let stats = rb.stats();
        assert!(
            stats.payload_bytes_out * 2 < stats.audio_bytes_in,
            "OVL at max quality must at least halve a sine: {} -> {}",
            stats.audio_bytes_in,
            stats.payload_bytes_out
        );
        let log = log.borrow();
        let codecs: std::collections::BTreeSet<u8> = log
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Data(d) => Some(d.codec),
                _ => None,
            })
            .collect();
        assert_eq!(codecs.len(), 1);
        assert!(codecs.contains(&CodecId::Ovl.to_wire()));
    }

    #[test]
    fn without_rate_limiter_data_bursts_at_wire_speed() {
        // The §3.1 pathology, producer side: with a wire-speed app and
        // no limiter, everything leaves almost at once.
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let listener = lan.attach("listener");
        let group = McastGroup(1);
        lan.join(listener, group);
        let times: Shared<Vec<SimTime>> = shared(Vec::new());
        let t2 = times.clone();
        lan.set_handler(listener, move |sim: &mut Sim, dg: Datagram| {
            if let Ok(Packet::Data(_)) = es_proto::decode(&dg.payload) {
                t2.borrow_mut().push(sim.now());
            }
        });
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let mut rcfg = RebroadcasterConfig::new(1, group);
        rcfg.tx.rate_limiter = RateLimiter::disabled();
        rcfg.tx.policy = CompressionPolicy::Never;
        let _rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
        let _app = AudioApp::start(
            &mut sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(10),
            AppPacing::WireSpeed,
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(12));
        let times = times.borrow();
        assert!(times.len() > 100);
        let span = *times.last().unwrap() - times[0];
        // 10 seconds of audio delivered in far less than 2 seconds.
        assert!(span < SimDuration::from_secs(2), "span {span}");
    }

    #[test]
    fn signed_stream_carries_trailers() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let listener = lan.attach("listener");
        let group = McastGroup(1);
        lan.join(listener, group);
        let payloads: Shared<Vec<Vec<u8>>> = shared(Vec::new());
        let p2 = payloads.clone();
        lan.set_handler(listener, move |_sim: &mut Sim, dg: Datagram| {
            p2.borrow_mut().push(dg.payload.to_vec());
        });
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let signer = Rc::new(StreamSigner::new(b"k", 1_000, 2));
        let mut rcfg = RebroadcasterConfig::new(1, group);
        rcfg.tx.signer = Some(signer.clone());
        rcfg.tx.policy = CompressionPolicy::Never;
        let _rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
        let _app = AudioApp::start(
            &mut sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_millis(500),
            AppPacing::RealTime,
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(2));
        let payloads = payloads.borrow();
        assert!(!payloads.is_empty());
        for raw in payloads.iter() {
            // Trailer-stripped prefix parses as a packet; the packet
            // alone does not (CRC covers only the packet body).
            let body = &raw[..raw.len() - es_proto::TRAILER_LEN];
            assert!(es_proto::decode(body).is_ok());
            let trailer = es_proto::AuthTrailer::decode(&raw[raw.len() - es_proto::TRAILER_LEN..]);
            assert!(trailer.is_some());
            if let Ok(Packet::Control(c)) = es_proto::decode(body) {
                assert!(c.flags & FLAG_AUTHENTICATED != 0);
            }
        }
    }

    #[test]
    fn crash_and_restart_gap_the_stream_but_keep_deadlines_continuous() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let producer = lan.attach("producer");
        let listener = lan.attach("listener");
        let group = McastGroup(1);
        lan.join(listener, group);
        let log: Shared<Vec<(SimTime, Packet)>> = shared(Vec::new());
        let l = log.clone();
        lan.set_handler(listener, move |sim: &mut Sim, dg: Datagram| {
            if let Ok(p) = es_proto::decode(&dg.payload) {
                l.borrow_mut().push((sim.now(), p));
            }
        });
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let mut rcfg = RebroadcasterConfig::new(7, group);
        rcfg.tx.policy = CompressionPolicy::Never;
        let rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
        let _app = AudioApp::start(
            &mut sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(4),
            AppPacing::RealTime,
        )
        .unwrap();
        let rb2 = rb.clone();
        sim.schedule_at(SimTime::from_secs(1), move |sim| {
            rb2.crash(sim);
            rb2.crash(sim); // double crash is a no-op
        });
        let rb3 = rb.clone();
        sim.schedule_at(SimTime::from_secs(2), move |sim| {
            rb3.restart(sim);
        });
        sim.run_until(SimTime::from_secs(5));

        let stats = rb.stats();
        assert_eq!(stats.crashes, 1);
        assert!(stats.crash_dropped_blocks > 0, "no blocks dropped");

        let log = log.borrow();
        // No packets of either kind in the dark window (leave a little
        // slack for in-flight sends right at the crash instant).
        let dark = log
            .iter()
            .filter(|(t, _)| *t > SimTime::from_millis(1_100) && *t < SimTime::from_secs(2))
            .count();
        assert_eq!(dark, 0, "{dark} packets while crashed");
        // A control packet arrives almost immediately after restart.
        let first_ctl_after = log
            .iter()
            .find_map(|(t, p)| match p {
                Packet::Control(_) if *t >= SimTime::from_secs(2) => Some(*t),
                _ => None,
            })
            .expect("no control packet after restart");
        assert!(first_ctl_after < SimTime::from_millis(2_050));
        // The outage is a sequence gap, and deadlines stay monotone
        // right across it.
        let data: Vec<&DataPacket> = log
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Data(d) => Some(d),
                _ => None,
            })
            .collect();
        assert!(data.windows(2).any(|w| w[1].seq > w[0].seq + 1), "no gap");
        assert!(
            data.windows(2).all(|w| w[1].play_at_us >= w[0].play_at_us),
            "deadlines regressed across the restart"
        );
    }

    #[test]
    fn retransmit_replays_recent_packets() {
        let mut sim = Sim::new(1);
        let (rb, log, _app) = rig(&mut sim, RateLimiter::new(), CompressionPolicy::Never);
        // Mid-clip, while the newest packets are not yet due.
        sim.run_until(SimTime::from_secs(1));
        let max_seq = log
            .borrow()
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Data(d) => Some(d.seq),
                _ => None,
            })
            .max()
            .expect("data flowed");
        // Two cached sequences plus a range past the end of the stream
        // (never sent, so never cached).
        let sent = rb.retransmit(&mut sim, &[(max_seq - 2, 2), (max_seq + 10, 3)]);
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sent, 2);
        assert_eq!(rb.stats().retransmits_sent, 2);
        let copies = log
            .borrow()
            .iter()
            .filter(|(_, p)| matches!(p, Packet::Data(d) if d.seq == max_seq - 2))
            .count();
        assert_eq!(copies, 2, "original + retransmission");
        // Nothing cached leaves nothing to send.
        assert_eq!(rb.retransmit(&mut sim, &[(max_seq + 100, 1)]), 0);
    }

    #[test]
    fn standby_promotion_preserves_clock_and_sequences() {
        let mut sim = Sim::new(1);
        let lan = Lan::new(LanConfig::default());
        let n1 = lan.attach("producer");
        let n2 = lan.attach("standby");
        let listener = lan.attach("listener");
        let group = McastGroup(1);
        lan.join(listener, group);
        let log: Shared<Vec<(SimTime, Packet)>> = shared(Vec::new());
        let l = log.clone();
        lan.set_handler(listener, move |sim: &mut Sim, dg: Datagram| {
            if let Ok(p) = es_proto::decode(&dg.payload) {
                l.borrow_mut().push((sim.now(), p));
            }
        });
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let mut c1 = RebroadcasterConfig::new(7, group);
        c1.tx.policy = CompressionPolicy::Never;
        let primary = Rebroadcaster::start(&mut sim, lan.clone(), n1, master.clone(), c1);
        let mut c2 = RebroadcasterConfig::new(7, group);
        c2.tx.policy = CompressionPolicy::Never;
        let standby = Rebroadcaster::start_standby(&mut sim, lan.clone(), n2, master, c2);
        assert!(standby.is_standby());
        let _app = AudioApp::start(
            &mut sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(4),
            AppPacing::RealTime,
        )
        .unwrap();
        let p2 = primary.clone();
        sim.schedule_at(SimTime::from_secs(1), move |sim| p2.crash(sim));
        let (s2, p3) = (standby.clone(), primary.clone());
        sim.schedule_at(SimTime::from_millis(1_800), move |sim| {
            s2.promote(sim, &p3);
        });
        sim.run_until(SimTime::from_secs(6));

        assert!(!standby.is_standby());
        assert_eq!(standby.stats().promotions, 1);
        assert!(standby.stats().data_packets > 0, "standby never sent");

        let log = log.borrow();
        // Dark while crashed and unpromoted; nothing from the standby
        // before its promotion.
        let dark = log
            .iter()
            .filter(|(t, _)| *t > SimTime::from_millis(1_100) && *t < SimTime::from_millis(1_800))
            .count();
        assert_eq!(dark, 0, "{dark} packets while failed over");
        // A control packet goes out at the promotion instant.
        let first_ctl_after = log
            .iter()
            .find_map(|(t, p)| match p {
                Packet::Control(_) if *t >= SimTime::from_millis(1_800) => Some(*t),
                _ => None,
            })
            .expect("no control packet after promotion");
        assert!(
            first_ctl_after <= SimTime::from_millis(1_810),
            "{first_ctl_after}"
        );
        // One sequence space across both processes: strictly
        // increasing, with the outage visible as a gap, and play
        // deadlines continuous (the adopted stream clock).
        let data: Vec<&DataPacket> = log
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Data(d) => Some(d),
                _ => None,
            })
            .collect();
        assert!(
            data.windows(2).all(|w| w[1].seq > w[0].seq),
            "seq replayed or regressed"
        );
        assert!(data.windows(2).any(|w| w[1].seq > w[0].seq + 1), "no gap");
        assert!(
            data.windows(2).all(|w| w[1].play_at_us >= w[0].play_at_us),
            "deadlines regressed across the failover"
        );
    }
}
