//! E-LOSS: behaviour under packet loss and jitter (§2.3).
//!
//! The paper's friendly-LAN assumption: "we have not experienced packet
//! loss or transient network disruptions that allowed the input buffer
//! of the ESs to empty and thus affect the audio signal." The
//! reproduction injects loss anyway and measures what the paper never
//! had to: how much silence the silence-insertion machinery (§2.1.1)
//! ends up playing as loss grows, and that small loss rates stay
//! proportionally small (one lost packet costs exactly its own samples
//! — self-contained packets, no error propagation).

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

/// Expected datagram loss for a per-wire-frame loss probability `p`
/// and a PCM data packet (8 820 B payload + envelope = 7 fragments): a
/// datagram survives only if every fragment does.
pub fn expected_datagram_loss(p: f64) -> f64 {
    let frags = (8_820 + es_proto::packet::DATA_ENVELOPE).div_ceil(1_472) as i32;
    1.0 - (1.0 - p).powi(frags)
}

/// One loss-rate point.
pub struct LossRun {
    /// Injected per-wire-frame loss probability.
    pub loss_prob: f64,
    /// Fraction of data packets that did not arrive.
    pub packet_loss_measured: f64,
    /// Fraction of played samples that are exact zeros (inserted
    /// silence + gaps).
    pub silence_fraction: f64,
    /// Device underruns.
    pub underruns: u64,
}

/// Runs one loss point for `seconds`.
pub fn run(loss_prob: f64, seconds: u64, seed: u64) -> LossRun {
    run_with_plc(loss_prob, seconds, seed, false)
}

/// Like [`run`], optionally with the speaker's packet-loss concealment
/// (the ablation beyond the paper).
pub fn run_with_plc(loss_prob: f64, seconds: u64, seed: u64, plc: bool) -> LossRun {
    run_configured(loss_prob, seconds, seed, plc, None)
}

/// Full ablation entry: PLC and/or XOR-parity FEC (one parity packet
/// per `fec_group` data packets).
pub fn run_configured(
    loss_prob: f64,
    seconds: u64,
    seed: u64,
    plc: bool,
    fec_group: Option<u8>,
) -> LossRun {
    let group = McastGroup(1);
    let mut spec = ChannelSpec::new(1, group, "stream")
        // Full-scale noise: every genuine sample is almost surely
        // non-zero, so zero samples measure inserted silence.
        .source(Source::Noise(0xD1CE))
        .policy(CompressionPolicy::Never)
        .duration(SimDuration::from_secs(seconds + 2));
    if let Some(n) = fec_group {
        // Recovery needs the whole group plus parity to arrive before
        // the deadline: budget one group span of extra playout.
        spec = spec
            .fec_group(n)
            .playout_delay(SimDuration::from_millis(450));
    }
    // The silence fraction is counted in the played PCM.
    let mut spk_spec = SpeakerSpec::new("es", group).capture_output();
    if plc {
        spk_spec = spk_spec.loss_concealment();
    }
    let mut sys = SystemBuilder::new(seed)
        .lan(LanConfig::lossy(loss_prob, SimDuration::from_micros(200)))
        .channel(spec)
        .speaker(spk_spec)
        .build();
    sys.run_until(SimTime::from_secs(seconds));
    let spk = sys.speaker(0).expect("speaker");
    let st = spk.stats();
    let rb = sys.rebroadcaster(0).stats();
    // Count data arrivals (datagrams minus control traffic): packets
    // still sleeping toward their deadline at cutoff are not losses.
    let received = st.datagrams - st.control_packets - st.bad_packets;
    let sent = rb.data_packets.max(1);
    let packet_loss_measured = (1.0 - received as f64 / sent as f64).max(0.0);
    let played = spk.tap().borrow().samples();
    let played = played.expect("SpeakerSpec::capture_output()");
    // Ignore the leading playout-delay silence.
    let skip = played.len().min(44_100);
    let body = &played[skip..];
    LossRun {
        loss_prob,
        packet_loss_measured,
        silence_fraction: es_audio::analysis::zero_fraction(body),
        underruns: spk.device().stats().underruns,
    }
}

/// The sweep the EXPERIMENTS table reports.
pub fn sweep(seconds: u64, seed: u64) -> Vec<LossRun> {
    [0.0, 0.001, 0.01, 0.03, 0.05]
        .iter()
        .map(|&p| run(p, seconds, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_lan_plays_clean_audio() {
        let r = run(0.0, 8, 1);
        assert!(r.packet_loss_measured.abs() < 0.01);
        assert!(
            r.silence_fraction < 0.02,
            "clean run played {}% silence",
            r.silence_fraction * 100.0
        );
    }

    #[test]
    fn loss_costs_proportional_silence() {
        let small = run(0.01, 8, 2);
        let big = run(0.05, 8, 2);
        // Measured datagram loss tracks the fragmentation-compounded
        // expectation (7 wire frames per PCM datagram).
        let exp_small = expected_datagram_loss(0.01);
        let exp_big = expected_datagram_loss(0.05);
        assert!(
            (small.packet_loss_measured - exp_small).abs() < 0.04,
            "small loss {} (expected {exp_small})",
            small.packet_loss_measured
        );
        assert!(
            (big.packet_loss_measured - exp_big).abs() < 0.09,
            "big loss {} (expected {exp_big})",
            big.packet_loss_measured
        );
        // Silence grows with loss and is the same order as the loss.
        assert!(big.silence_fraction > small.silence_fraction);
        assert!(
            big.silence_fraction > 0.12 && big.silence_fraction < 0.50,
            "5% frame loss played {}% silence",
            big.silence_fraction * 100.0
        );
        assert!(big.underruns > 0);
    }

    #[test]
    fn fec_recovers_single_losses() {
        let plain = run_configured(0.01, 8, 5, false, None);
        let fec = run_configured(0.01, 8, 5, false, Some(4));
        assert!(
            fec.silence_fraction < plain.silence_fraction * 0.5,
            "FEC should repair most single losses: {} vs {}",
            fec.silence_fraction,
            plain.silence_fraction
        );
    }

    #[test]
    fn concealment_reduces_silence() {
        let plain = run_with_plc(0.03, 8, 4, false);
        let plc = run_with_plc(0.03, 8, 4, true);
        assert!(
            plc.silence_fraction < plain.silence_fraction * 0.6,
            "PLC should fill most gaps: {} vs {}",
            plc.silence_fraction,
            plain.silence_fraction
        );
    }

    #[test]
    fn fragmentation_compounds_loss() {
        assert_eq!(expected_datagram_loss(0.0), 0.0);
        let e = expected_datagram_loss(0.01);
        assert!((e - 0.068).abs() < 0.005, "{e}");
    }
}
