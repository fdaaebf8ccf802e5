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
#[derive(Debug)]
pub struct LossRun {
    /// Fraction of data packets that did not arrive.
    pub packet_loss_measured: f64,
    /// Fraction of played samples that are exact zeros (inserted
    /// silence + gaps).
    pub silence_fraction: f64,
    /// Device underruns.
    pub underruns: u64,
}

/// Runs one loss point for `seconds`. The paper's speaker has
/// `plc == false` and `fec_group == None`; the ablation beyond the
/// paper turns on the speaker's packet-loss concealment and/or
/// XOR-parity FEC (one parity packet per `fec_group` data packets).
pub fn run(loss_prob: f64, seconds: u64, seed: u64, plc: bool, fec_group: Option<u8>) -> LossRun {
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
        packet_loss_measured,
        silence_fraction: es_audio::analysis::zero_fraction(body),
        underruns: spk.device().stats().underruns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_lan_plays_clean_audio() {
        let r = run(0.0, 8, 1, false, None);
        println!("0% frame loss, seed 1, 8 s: {r:?}");
        assert!(r.packet_loss_measured.abs() < 0.01);
        assert!(
            r.silence_fraction < 0.02,
            "clean run played {}% silence",
            r.silence_fraction * 100.0
        );
    }

    #[test]
    fn loss_costs_proportional_silence() {
        let small = run(0.01, 8, 2, false, None);
        let big = run(0.05, 8, 2, false, None);
        println!("1% frame loss, seed 2, 8 s: {small:?}\n5% frame loss, seed 2, 8 s: {big:?}");
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
        let plain = run(0.01, 8, 5, false, None);
        let fec = run(0.01, 8, 5, false, Some(4));
        println!("1% frame loss, seed 5, 8 s: {plain:?}\nsame with FEC 4+1: {fec:?}");
        assert!(
            fec.silence_fraction < plain.silence_fraction * 0.5,
            "FEC should repair most single losses: {} vs {}",
            fec.silence_fraction,
            plain.silence_fraction
        );
    }

    #[test]
    fn concealment_reduces_silence() {
        let plain = run(0.03, 8, 4, false, None);
        let plc = run(0.03, 8, 4, true, None);
        println!("3% frame loss, seed 4, 8 s: {plain:?}\nsame with PLC: {plc:?}");
        assert!(
            plc.silence_fraction < plain.silence_fraction * 0.6,
            "PLC should fill most gaps: {} vs {}",
            plc.silence_fraction,
            plain.silence_fraction
        );
    }

    #[test]
    fn silence_tracks_datagram_loss() {
        // A lost datagram costs its own 50 ms of samples and nothing
        // more: no error propagation, at any loss rate.
        for p in [0.0, 0.001, 0.01, 0.03, 0.05] {
            let r = run(p, 20, 21, false, None);
            let expected = expected_datagram_loss(p);
            println!(
                "{}% frame loss, seed 21, 20 s, {expected:.3} expected: {r:?}",
                p * 100.0
            );
            assert!(
                (r.silence_fraction - r.packet_loss_measured).abs() < 0.02,
                "{}% frame loss: {} silence for {} datagram loss",
                p * 100.0,
                r.silence_fraction,
                r.packet_loss_measured
            );
        }
    }

    #[test]
    fn fragmentation_compounds_loss() {
        assert_eq!(expected_datagram_loss(0.0), 0.0);
        let e = expected_datagram_loss(0.01);
        assert!((e - 0.068).abs() < 0.005, "{e}");
    }
}
