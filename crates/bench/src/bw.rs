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
use es_codec::CodecId;
use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

/// One measured policy row.
pub struct BwRow {
    /// Row label.
    pub label: String,
    /// Stream configuration used.
    pub config: AudioConfig,
    /// Payload bits per second (audio after encoding).
    pub payload_bps: f64,
    /// Wire bits per second (payload + packet + frame overhead).
    pub wire_bps: f64,
    /// Fraction of a legacy 10 Mbps Ethernet.
    pub share_of_10mbps: f64,
    /// Encoder work units per second (the CPU side of the trade).
    pub encode_work_per_sec: f64,
    /// Mean output SNR at the speaker versus PCM reference, in dB
    /// (`None` for the reference itself).
    pub snr_db: Option<f64>,
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
        .speaker(SpeakerSpec::new("probe", McastGroup(1)).capture_output())
        .build();
    let until = SimTime::from_secs(seconds);
    sys.run_until(until);

    let lan = sys.lan().stats();
    let rb = sys.rebroadcaster(0).stats();
    let elapsed = seconds as f64;
    let payload_bps = rb.payload_bytes_out as f64 * 8.0 / elapsed;
    let wire_bps = lan.wire_bytes_sent as f64 * 8.0 / elapsed;
    let spk = sys.speaker(0).expect("probe speaker");
    let played = spk.tap().borrow().samples();
    let played = played.expect("SpeakerSpec::capture_output()");
    // SNR against what the source generated: compare against a fresh
    // reference rendering of the same deterministic source.
    let mut reference = es_audio::gen::MultiTone::music(config.sample_rate);
    let ref_samples = es_audio::gen::render_interleaved(
        &mut reference,
        config.channels,
        played.len() / config.channels as usize,
    );
    // Skip the leading playout-delay region (zeros/partial block).
    let skip = (config.sample_rate as usize / 10) * config.channels as usize;
    let snr_db = if played.len() > skip * 2 {
        let lag = es_audio::analysis::correlation_lag(
            &ref_samples[skip..(skip + 20_000).min(ref_samples.len())],
            &played[skip..(skip + 20_000).min(played.len())],
            4_000,
        );
        lag.and_then(|l| {
            let (a, b) = if l >= 0 {
                (&ref_samples[skip..], &played[skip + l as usize..])
            } else {
                (&ref_samples[skip + (-l) as usize..], &played[skip..])
            };
            es_audio::analysis::snr_db(a, b)
        })
    } else {
        None
    };
    BwRow {
        label: label.to_string(),
        config,
        payload_bps,
        wire_bps,
        share_of_10mbps: wire_bps / 10_000_000.0,
        encode_work_per_sec: rb.encode_work_units as f64 / elapsed,
        snr_db,
    }
}

/// The full E-BW sweep.
pub fn run_sweep(seconds: u64, seed: u64) -> Vec<BwRow> {
    vec![
        run_policy(
            "cd/pcm (early system)",
            AudioConfig::CD,
            CompressionPolicy::Never,
            seconds,
            seed,
        ),
        run_policy(
            "cd/ulaw",
            AudioConfig::CD,
            CompressionPolicy::Always {
                codec: CodecId::ULaw,
                quality: 0,
            },
            seconds,
            seed,
        ),
        run_policy(
            "cd/adpcm",
            AudioConfig::CD,
            CompressionPolicy::Always {
                codec: CodecId::Adpcm,
                quality: 0,
            },
            seconds,
            seed,
        ),
        run_policy(
            "cd/ovl-q10 (paper)",
            AudioConfig::CD,
            CompressionPolicy::paper_default(),
            seconds,
            seed,
        ),
        run_policy(
            "cd/ovl-q5",
            AudioConfig::CD,
            CompressionPolicy::Always {
                codec: CodecId::Ovl,
                quality: 5,
            },
            seconds,
            seed,
        ),
        run_policy(
            "phone/pcm (low-rate rule)",
            AudioConfig::PHONE,
            CompressionPolicy::paper_default(),
            seconds,
            seed,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_cd_is_about_1_3_mbps() {
        let row = run_policy("cd/pcm", AudioConfig::CD, CompressionPolicy::Never, 5, 1);
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
        // 64 kbps payload plus overhead.
        assert!(
            (row.payload_bps - 64_000.0).abs() < 4_000.0,
            "{}",
            row.payload_bps
        );
        assert!(row.share_of_10mbps < 0.02);
    }
}
