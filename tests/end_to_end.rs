//! Integration: the full pipeline from an unmodified application to
//! synchronized speaker cones, across every crate.

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

/// The headline scenario: compressed CD music reaches three speakers,
/// everyone plays the same thing at the same time, and what they play
/// is a faithful rendition of what the application generated.
#[test]
fn compressed_stream_plays_faithfully_everywhere() {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "radio")
        .source(Source::Music)
        .duration(SimDuration::from_secs(8))
        .policy(CompressionPolicy::paper_default());
    let mut sys = SystemBuilder::new(11)
        .channel(ch)
        .speaker(SpeakerSpec::new("a", group).capture_output())
        .speaker(SpeakerSpec::new("b", group).capture_output())
        .speaker(SpeakerSpec::new("c", group).capture_output())
        .build();
    sys.run_until(SimTime::from_secs(7));

    // Reference: what the deterministic source generates.
    let mut reference = es_audio::gen::MultiTone::music(44_100);
    let ref_samples = es_audio::gen::render_interleaved(&mut reference, 2, 7 * 44_100);

    for i in 0..3 {
        let spk = sys.speaker(i).unwrap();
        let played = spk.tap().borrow().samples();
        let played = played.expect("SpeakerSpec::capture_output()");
        assert!(played.len() > 5 * 88_200, "speaker {i} played too little");
        // Align (playout delay shifts the stream) then check fidelity.
        let skip = 44_100; // Half a second into both signals.
        let lag = es_audio::analysis::correlation_lag(
            &ref_samples[skip..skip + 30_000],
            &played[skip..skip + 30_000],
            20_000,
        )
        .expect("correlation locks");
        let (a, b) = if lag >= 0 {
            (&ref_samples[skip..], &played[skip + lag as usize..])
        } else {
            (&ref_samples[skip + (-lag) as usize..], &played[skip..])
        };
        let n = a.len().min(b.len()).min(4 * 88_200);
        let snr = es_audio::analysis::snr_db(&a[..n], &b[..n]).expect("signal present");
        assert!(
            snr > 20.0,
            "speaker {i}: end-to-end SNR {snr} dB through OVL at max quality"
        );
    }

    // And they are synchronized pairwise.
    for i in 1..3 {
        let off = sys
            .playback_offset(0, i, SimTime::from_secs(4), SimDuration::from_millis(100))
            .expect("offset measurable");
        assert!(
            off <= SimDuration::from_millis(30),
            "speaker {i} out of sync by {off}"
        );
    }
}

/// Mid-stream configuration change: the application reconfigures the
/// slave from CD stereo to phone-quality mono; speakers follow without
/// operator action (§2.1.2's reason the VAD forwards ioctls).
#[test]
fn config_change_propagates_in_band() {
    use es_rebroadcast::{AppPacing, AudioApp};
    use es_vad::Ioctl;
    use std::rc::Rc;

    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "stream")
        .duration(SimDuration::from_secs(3))
        .policy(CompressionPolicy::Never);
    let mut sys = SystemBuilder::new(5)
        .channel(ch)
        .speaker(SpeakerSpec::new("es", group))
        .build();
    sys.run_until(SimTime::from_secs(4));
    let spk = sys.speaker(0).unwrap();
    assert_eq!(spk.device().config(), es_audio::AudioConfig::CD);

    // A second application opens the same channel's VAD with a new
    // format mid-life: simulate via a fresh system where the app
    // switches configs. (The builder owns the VAD; drive one manually.)
    let mut sim = es_sim::Sim::new(9);
    let lan = es_net::Lan::new(LanConfig::default());
    let producer = lan.attach("producer");
    lan.join(producer, group);
    let (slave, master) = es_vad::vad_pair(es_vad::VadMode::KernelThread {
        poll: SimDuration::from_millis(10),
    });
    let rcfg = es_rebroadcast::RebroadcasterConfig::new(1, group);
    let _rb = es_rebroadcast::Rebroadcaster::start(&mut sim, lan.clone(), producer, master, rcfg);
    let spk = es_speaker::EthernetSpeaker::start(
        &mut sim,
        &lan,
        es_speaker::SpeakerConfig::new("es", group),
    );
    let slave = Rc::new(slave);
    let app = AudioApp::start(
        &mut sim,
        slave.clone(),
        es_audio::AudioConfig::CD,
        Box::new(es_audio::gen::Sine::new(440.0, 44_100, 0.5)),
        SimDuration::from_secs(1),
        AppPacing::RealTime,
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(2));
    assert!(app.is_finished());
    assert_eq!(spk.device().config(), es_audio::AudioConfig::CD);
    // Reconfigure the open slave to the phone format and keep writing.
    slave
        .ioctl(&mut sim, Ioctl::SetInfo(es_audio::AudioConfig::PHONE))
        .unwrap();
    let bytes = es_audio::convert::encode_samples(&vec![2_000i16; 8_000], es_audio::Encoding::ULaw);
    let mut off = 0;
    while off < bytes.len() {
        off += slave.write(&mut sim, &bytes[off..]).unwrap();
        if off < bytes.len() {
            sim.step();
        }
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        spk.device().config(),
        es_audio::AudioConfig::PHONE,
        "speaker must have reconfigured from the in-band control packet"
    );
    assert!(spk.stats().decode_errors == 0);
}

/// Cross-component telemetry consistency: on a clean LAN the counters
/// published by the producer, the network, and every speaker must
/// describe the same stream — what one layer says it sent, the next
/// layer must say it received.
#[test]
fn telemetry_counters_agree_across_components() {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "audit")
        .source(Source::Music)
        .duration(SimDuration::from_secs(5))
        .policy(CompressionPolicy::Never);
    let mut sys = SystemBuilder::new(21)
        .channel(ch)
        .speaker(SpeakerSpec::new("a", group))
        .speaker(SpeakerSpec::new("b", group))
        .build();
    // Probe between control ticks (every 500 ms) so no packet is
    // mid-flight when the counters are read.
    sys.run_until(SimTime::from_millis(6_200));
    let m = sys.metrics();

    // A clean LAN reports no impairments of any kind.
    for name in [
        "frames_dropped",
        "frames_dropped_partial",
        "frames_partitioned",
        "frames_reordered",
        "frames_duplicated",
    ] {
        assert_eq!(
            m.counter(&format!("net/lan0/{name}")),
            Some(0),
            "{name} on a clean LAN"
        );
    }

    // Every frame the LAN delivered landed in some speaker's datagram
    // counter — the speakers are the only receivers on this group.
    let delivered = m.counter("net/lan0/frames_delivered").unwrap();
    let heard = m.sum_counters("speaker", "datagrams");
    assert_eq!(delivered, heard, "LAN delivery vs speaker receive counts");

    // Per speaker, the producer's send counters reappear exactly:
    // every control and every data packet it multicast arrived and
    // played, and none of the degradation counters moved.
    let sent_control = m.counter("rebroadcast/ch0/control_packets").unwrap();
    let sent_data = m.counter("rebroadcast/ch0/data_packets").unwrap();
    assert!(sent_data > 0, "stream produced no data packets");
    for spk in ["a", "b"] {
        let c = |name: &str| m.counter(&format!("speaker/{spk}/{name}")).unwrap();
        assert_eq!(
            c("control_packets"),
            sent_control,
            "speaker {spk} control path"
        );
        assert_eq!(c("data_packets"), sent_data, "speaker {spk} data path");
        for name in [
            "bad_packets",
            "dropped_waiting_control",
            "dropped_duplicate",
            "deadline_misses",
            "dropped_busy",
            "decode_errors",
        ] {
            assert_eq!(c(name), 0, "speaker {spk} {name} on a clean run");
        }
    }

    // Snapshots are pure reads: walking the metrics twice at the same
    // virtual instant yields byte-identical JSON.
    assert_eq!(
        m.to_json_lines(),
        sys.metrics().to_json_lines(),
        "metrics walk must not perturb the system"
    );
}

/// A legacy 10 Mbps LAN carries several compressed channels where raw
/// PCM would not fit — §2.2's capacity argument, measured.
#[test]
fn legacy_lan_fits_compressed_channels() {
    let mut builder = SystemBuilder::new(3).lan(LanConfig::legacy_10mbps());
    for i in 0..4u16 {
        let ch = ChannelSpec::new(i + 1, McastGroup(i + 1), format!("ch{i}"))
            .duration(SimDuration::from_secs(8))
            .policy(CompressionPolicy::paper_default());
        builder = builder.channel(ch);
        builder = builder.speaker(SpeakerSpec::new(format!("es{i}"), McastGroup(i + 1)));
    }
    let mut sys = builder.build();
    sys.run_until(SimTime::from_secs(6));
    let util = sys
        .lan()
        .utilization_series(SimTime::from_secs(6))
        .mean()
        .unwrap();
    // Four raw CD streams would be ~62% of the link (plus overhead);
    // compressed they sit comfortably under 25%.
    assert!(util < 0.25, "utilization {util}");
    for i in 0..4 {
        assert!(sys.speaker(i).unwrap().stats().samples_played > 0);
    }
}
