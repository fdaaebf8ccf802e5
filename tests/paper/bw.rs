//! E-BW: wire bandwidth per codec policy (§2.2).
//!
//! "Early versions of our design sent onto the network the raw data as
//! it was extracted from the VAD. However this created significant
//! network overhead (around 1.3Mbps for CD-quality audio). On a fast
//! Ethernet this was not a problem, but on legacy 10Mbps or wireless
//! links, the overhead was unacceptable. We, therefore, decided to
//! compress the audio stream." And: "Audio channels with low bit-rates
//! are still sent uncompressed."
//!
//! The harness streams the same CD-quality content under each codec
//! policy and reports payload rate, wire rate (with frame overhead),
//! the share of a legacy 10 Mbps link, and the encode work — the
//! bandwidth/CPU trade-off in one table. A PCM phone-quality channel
//! shows why low-rate streams stay uncompressed.

use es_audio::AudioConfig;
use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

/// One measured policy row.
#[derive(Debug)]
pub struct BwRow {
    /// Payload bits per second (audio after encoding).
    pub payload_bps: f64,
    /// Wire bits per second (payload + packet + frame overhead).
    pub wire_bps: f64,
    /// Fraction of a legacy 10 Mbps Ethernet.
    pub share_of_10mbps: f64,
    /// Encoder work units per second (the CPU side of the trade).
    pub encode_work_per_sec: f64,
}

/// Runs one policy for `seconds` and measures the wire.
pub fn run_policy(
    label: &str,
    config: AudioConfig,
    policy: CompressionPolicy,
    seconds: u64,
    seed: u64,
) -> BwRow {
    let spec = ChannelSpec::new(1, McastGroup(1), label)
        .config(config)
        .policy(policy)
        .source(Source::Music)
        .duration(SimDuration::from_secs(seconds + 2));
    let mut sys = SystemBuilder::new(seed)
        .lan(LanConfig::default())
        .channel(spec)
        .speaker(SpeakerSpec::new("probe", McastGroup(1)))
        .build();
    let until = SimTime::from_secs(seconds);
    sys.run_until(until);

    let lan = sys.lan().stats();
    let rb = sys.rebroadcaster(0).stats();
    let elapsed = seconds as f64;
    let wire_bps = lan.wire_bytes_sent as f64 * 8.0 / elapsed;
    BwRow {
        payload_bps: rb.payload_bytes_out as f64 * 8.0 / elapsed,
        wire_bps,
        share_of_10mbps: wire_bps / 10_000_000.0,
        encode_work_per_sec: rb.encode_work_units as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_cd_is_about_1_3_mbps() {
        let row = run_policy("cd/pcm", AudioConfig::CD, CompressionPolicy::Never, 5, 1);
        println!("cd/pcm, seed 1, 5 s: {row:?}");
        // Payload: exactly the PCM rate.
        assert!(
            (row.payload_bps - 1_411_200.0).abs() < 30_000.0,
            "payload {}",
            row.payload_bps
        );
        // Wire: payload + overhead, "around 1.3 Mbps" in Mibit/s terms
        // and ~14-16% of a legacy link.
        let mibps = row.wire_bps / (1024.0 * 1024.0);
        assert!((1.3..1.6).contains(&mibps), "wire {mibps} Mibit/s");
        assert!(row.share_of_10mbps > 0.13 && row.share_of_10mbps < 0.17);
    }

    #[test]
    fn compression_cuts_wire_rate_and_costs_cpu() {
        let pcm = run_policy("pcm", AudioConfig::CD, CompressionPolicy::Never, 5, 2);
        let ovl = run_policy(
            "ovl",
            AudioConfig::CD,
            CompressionPolicy::paper_default(),
            5,
            2,
        );
        println!("cd/pcm, seed 2, 5 s: {pcm:?}\ncd/ovl-q10, seed 2, 5 s: {ovl:?}");
        assert!(
            ovl.wire_bps < pcm.wire_bps / 2.0,
            "ovl {} vs pcm {}",
            ovl.wire_bps,
            pcm.wire_bps
        );
        assert!(ovl.encode_work_per_sec > pcm.encode_work_per_sec * 20.0);
    }

    #[test]
    fn phone_channel_stays_uncompressed_and_tiny() {
        let row = run_policy(
            "phone",
            AudioConfig::PHONE,
            CompressionPolicy::paper_default(),
            5,
            3,
        );
        println!("phone/pcm, seed 3, 5 s: {row:?}");
        // 64 kbps payload plus overhead.
        assert!(
            (row.payload_bps - 64_000.0).abs() < 4_000.0,
            "{}",
            row.payload_bps
        );
        assert!(row.share_of_10mbps < 0.02);
    }
}
