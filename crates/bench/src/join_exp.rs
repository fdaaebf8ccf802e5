//! E-JOIN: tune-in latency versus control interval (§2.3).
//!
//! "The Ethernet Speaker has to wait till it receives a control packet
//! before it can start playing the audio stream." The stateless design
//! trades producer simplicity for join latency: a speaker tuning in
//! mid-stream waits, on average, half a control interval before it can
//! decode anything. This harness measures that distribution across
//! control intervals — the knob an operator would actually turn — and
//! shows the cost side: control-packet overhead on the wire.

use es_net::{Lan, LanConfig, McastGroup};
use es_rebroadcast::{AppPacing, AudioApp, CompressionPolicy, Rebroadcaster, RebroadcasterConfig};
use es_sim::{shared, Sim, SimDuration, SimTime};
use es_speaker::{EthernetSpeaker, SpeakerConfig};
use es_vad::{vad_pair, VadMode};

/// One control-interval point.
pub struct JoinRun {
    /// Control interval in milliseconds.
    pub control_interval_ms: u64,
    /// Mean join latency (power-on to first sample written), seconds.
    pub mean_join_s: f64,
    /// Worst observed join latency, seconds.
    pub max_join_s: f64,
    /// Number of joins measured.
    pub joins: usize,
    /// Control packets as a fraction of all packets on the wire.
    pub control_packet_fraction: f64,
}

/// Measures `joins` staggered joins against one long-running stream.
pub fn run(control_interval_ms: u64, joins: usize, seed: u64) -> JoinRun {
    let mut sim = Sim::new(seed);
    let lan = Lan::new(LanConfig::default());
    let producer = lan.attach("producer");
    let group = McastGroup(1);
    lan.join(producer, group);

    let (slave, master) = vad_pair(VadMode::KernelThread {
        poll: SimDuration::from_millis(10),
    });
    let mut rcfg = RebroadcasterConfig::new(1, group);
    rcfg.tx.control_interval = SimDuration::from_millis(control_interval_ms);
    rcfg.tx.policy = CompressionPolicy::Never;
    let rb = Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);

    let total_secs = 2 + joins as u64 * (control_interval_ms * 2 + 500) / 1_000 + 2;
    let _app = AudioApp::start(
        &mut sim,
        std::rc::Rc::new(slave),
        es_audio::AudioConfig::CD,
        Box::new(es_audio::gen::MultiTone::music(44_100)),
        SimDuration::from_secs(total_secs + 2),
        AppPacing::RealTime,
    )
    .expect("open slave");

    // Spawn speakers at irregular offsets (so they sample the control
    // phase uniformly) and record power-on -> first-output latency.
    let latencies: es_sim::Shared<Vec<f64>> = shared(Vec::new());
    let mut spawn_at = SimDuration::from_millis(1_500);
    for i in 0..joins {
        let lan2 = lan.clone();
        let lat = latencies.clone();
        let name = format!("joiner-{i}");
        sim.schedule_in(spawn_at, move |sim| {
            let born = sim.now();
            let spk = EthernetSpeaker::start(sim, &lan2, SpeakerConfig::new(name, group));
            // Poll for first output (cheap: every 20 ms).
            poll_first_output(sim, spk, born, lat);
        });
        // Irregular stagger, co-prime-ish with the control interval.
        spawn_at += SimDuration::from_millis(control_interval_ms * 2 + 137 + 61 * (i as u64 % 7));
    }

    sim.run_until(SimTime::from_secs(total_secs + 4));

    let lat = latencies.borrow();
    let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let max = lat.iter().cloned().fold(0.0, f64::max);
    let stats = rb.stats();
    let total_packets = stats.data_packets + stats.control_packets;
    JoinRun {
        control_interval_ms,
        mean_join_s: mean,
        max_join_s: max,
        joins: lat.len(),
        control_packet_fraction: stats.control_packets as f64 / total_packets.max(1) as f64,
    }
}

fn poll_first_output(
    sim: &mut Sim,
    spk: EthernetSpeaker,
    born: SimTime,
    lat: es_sim::Shared<Vec<f64>>,
) {
    if spk.stats().samples_played > 0 {
        lat.borrow_mut()
            .push(sim.now().saturating_since(born).as_secs_f64());
        return;
    }
    // Give up after 30 s (stream may have ended).
    if sim.now().saturating_since(born) > SimDuration::from_secs(30) {
        return;
    }
    sim.schedule_in(SimDuration::from_millis(20), move |sim| {
        poll_first_output(sim, spk, born, lat);
    });
}

/// The sweep the EXPERIMENTS table reports.
pub fn sweep(joins: usize, seed: u64) -> Vec<JoinRun> {
    [100u64, 250, 500, 1_000, 2_000]
        .iter()
        .map(|&ms| run(ms, joins, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_latency_tracks_control_interval() {
        let fast = run(100, 6, 1);
        let slow = run(2_000, 6, 1);
        assert_eq!(fast.joins, 6);
        assert_eq!(slow.joins, 6);
        // Expected join latency ≈ half the interval + playout delay
        // (200 ms) + first-packet wait.
        assert!(
            fast.mean_join_s < 0.7,
            "100 ms interval joins in {}s",
            fast.mean_join_s
        );
        assert!(
            slow.mean_join_s > fast.mean_join_s + 0.3,
            "2 s interval must join slower: {} vs {}",
            slow.mean_join_s,
            fast.mean_join_s
        );
        // The cost side: more control packets at short intervals.
        assert!(fast.control_packet_fraction > slow.control_packet_fraction);
    }

    #[test]
    fn worst_case_is_bounded_by_interval_plus_playout() {
        let r = run(500, 8, 2);
        assert!(
            r.max_join_s < 0.5 + 0.2 + 0.3,
            "max join {}s exceeds interval + playout + slack",
            r.max_join_s
        );
    }
}
