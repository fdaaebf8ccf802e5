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
//!
//! Below the system, [`code_packets`] codes test signals with OVL the
//! way the producers packetize them (one stream in 50 ms packets, each
//! lapping the one before) and reports what each costs and how close it
//! comes back.

use es_audio::analysis::snr_db;
use es_audio::gen::{
    render_interleaved, render_stereo, ImpulseTrain, MultiTone, Pluck, Signal, Silence, Sine,
    Sweep, WhiteNoise,
};
use es_audio::AudioConfig;
use es_codec::ovl::DELAY;
use es_codec::{OvlCodec, OvlSpan, OvlTail, MAX_QUALITY};
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

/// Frames per packet: one 50 ms block at 44.1 kHz.
pub const PACKET_FRAMES: usize = 2_205;

/// One signal coded by OVL at `MAX_QUALITY`, packet by packet.
#[derive(Debug)]
pub struct CodecRow {
    /// What the signal is.
    pub signal: &'static str,
    /// Payload kbit/s: the OVL packets' bytes, no packet or frame
    /// overhead.
    pub payload_kbps: f64,
    /// SNR of the decoded samples; `None` for silence.
    pub snr_db: Option<f64>,
}

/// Codes 44.1 kHz interleaved `samples` as one stream of consecutive
/// [`PACKET_FRAMES`]-frame packets, plays each back completed by the
/// tail of the one before, and measures the payload rate and the error
/// of what played: the stream, [`DELAY`] frames late.
pub fn code_packets(signal: &'static str, samples: &[i16], channels: u8) -> CodecRow {
    let codec = OvlCodec::new();
    let (mut span, mut tail, mut next) =
        (OvlSpan::default(), OvlTail::default(), OvlTail::default());
    let (mut bytes, mut played, mut out) = (0usize, Vec::with_capacity(samples.len()), Vec::new());
    for packet in samples.chunks(PACKET_FRAMES * channels as usize) {
        let enc = codec.encode(packet, channels, MAX_QUALITY);
        bytes += enc.bytes.len();
        codec
            .decode_span(&enc.bytes, &mut span)
            .expect("OVL decodes what it encoded");
        span.complete(Some(&tail), &mut out, &mut next);
        std::mem::swap(&mut tail, &mut next);
        played.extend_from_slice(&out);
    }
    let seconds = (samples.len() / channels as usize) as f64 / 44_100.0;
    let delay = DELAY * channels as usize;
    CodecRow {
        signal,
        payload_kbps: bytes as f64 * 8.0 / seconds / 1_000.0,
        snr_db: snr_db(&samples[..samples.len() - delay], &played[delay..]),
    }
}

/// A source scaled by a constant gain.
struct Gain<S>(S, f32);

impl<S: Signal> Signal for Gain<S> {
    fn next_sample(&mut self) -> f32 {
        self.0.next_sample() * self.1
    }

    fn fill(&mut self, out: &mut [f32]) {
        self.0.fill(out);
        for v in out {
            *v *= self.1;
        }
    }
}

/// The codec table: `seconds` of each test signal, dual mono (one
/// signal on both channels, as the producers send) but for the panned
/// pair and the independent stereo pair.
pub fn codec_table(seconds: usize) -> Vec<CodecRow> {
    let frames = seconds * 44_100;
    let music = || MultiTone::music(44_100);
    let dual =
        |signal, src: &mut dyn Signal| code_packets(signal, &render_interleaved(src, 2, frames), 2);
    vec![
        dual("music", &mut music()),
        dual(
            "music, -26 dB",
            &mut Gain(music(), 10f32.powf(-26.0 / 20.0)),
        ),
        code_packets(
            "panned pair, R = 0.8 L",
            &render_stereo(&mut music(), &mut Gain(music(), 0.8), frames),
            2,
        ),
        code_packets(
            "independent stereo",
            &render_stereo(&mut music(), &mut Sine::new(523.25, 44_100, 0.4), frames),
            2,
        ),
        dual("1 kHz tone", &mut Sine::new(1_000.0, 44_100, 0.5)),
        dual("white noise", &mut WhiteNoise::new(7, 0.5)),
        dual("441-sample click train", &mut ImpulseTrain::new(441, 0.9)),
        dual(
            "sweep, 50 Hz-15 kHz",
            &mut Sweep::new(50.0, 15_000.0, seconds as f32, 44_100, 0.8),
        ),
        dual("plucked melody", &mut Pluck::new(24, 44_100, 0.8)),
        dual("silence", &mut Silence),
    ]
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
            ovl.wire_bps < pcm.wire_bps / 8.0,
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

    #[test]
    fn ovl_codes_each_signal_within_its_budget() {
        // Each row's payload ceiling (kbit/s) and SNR floor (dB), a
        // little outside what the encoder gives. Framed between zeros,
        // the music cost 261.5 kbit/s: the edge windows' steps, not the
        // music, took most of the bits. Eased into each packet's frame,
        // it cost 94.3; lapped across packets, 53.0. Lapping moved the
        // tone's SNR 47.16 → 46.43 dB, so its floor moved 46.5 → 46.0.
        let budgets = [
            (55.0, Some(50.5)),
            (55.0, Some(49.0)),
            (107.0, Some(50.5)),
            (81.0, Some(49.5)),
            (33.0, Some(46.0)),
            (335.0, Some(36.5)),
            (360.0, Some(38.0)),
            (33.0, Some(34.0)),
            (152.0, Some(38.5)),
            (4.0, None),
        ];
        let rows = codec_table(30);
        assert_eq!(rows.len(), budgets.len());
        for (row, (ceiling, floor)) in rows.iter().zip(budgets) {
            println!(
                "ovl-q10, 30 s, {PACKET_FRAMES}-frame packets, {}: {:.1} kbit/s, SNR {:?} dB",
                row.signal, row.payload_kbps, row.snr_db
            );
            assert!(row.payload_kbps < ceiling, "{row:?}");
            match (row.snr_db, floor) {
                (Some(snr), Some(floor)) => assert!(snr > floor, "{row:?}"),
                (snr, floor) => assert!(snr.is_none() && floor.is_none(), "{row:?}"),
            }
        }
    }
}
