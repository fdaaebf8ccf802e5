//! Integration: §4.3/§5.3 management — catalog browsing, channel
//! switching, and the central announcement override.

use es_core::{
    ChannelBrowser, ChannelSpec, OverrideController, Source, SpeakerSpec, SystemBuilder,
};
use es_net::McastGroup;
use es_proto::FLAG_PRIORITY;
use es_sim::{SimDuration, SimTime};

#[test]
fn browser_sees_catalog_and_speaker_switches_channels() {
    let music = McastGroup(1);
    let news = McastGroup(2);
    let catalog = McastGroup(0);
    let ch1 = ChannelSpec::new(1, music, "music").duration(SimDuration::from_secs(12));
    let ch2 = ChannelSpec::new(2, news, "news")
        .source(Source::Tone(350.0))
        .duration(SimDuration::from_secs(12));
    let mut sys = SystemBuilder::new(4)
        .channel(ch1)
        .channel(ch2)
        .announce_on(catalog)
        .speaker(SpeakerSpec::new("es", music).capture_output())
        .build();

    // A management console browses the catalog.
    let console = sys.lan().attach("console");
    let lan = sys.lan().clone();
    let browser = ChannelBrowser::start(&lan, console, catalog);
    sys.run_until(SimTime::from_secs(3));
    let channels = browser.channels();
    assert_eq!(channels.len(), 2);
    let news_info = browser.find("news").expect("news in catalog");
    assert_eq!(news_info.group, news.0);

    // The capability advertisement round-trips through the announce
    // wire format: what the browser decodes is exactly the codec set
    // the channel's compression policy advertises.
    let music_info = browser.find("music").expect("music in catalog");
    let policy = es_core::prelude::CompressionPolicy::paper_default();
    assert_eq!(
        music_info.caps.codecs,
        policy.advertised_codecs(&music_info.config),
        "advertised codec set must survive the announce round-trip"
    );
    assert!(!music_info.caps.codecs.is_empty());
    assert_eq!(
        music_info.caps.sample_rates,
        vec![music_info.config.sample_rate]
    );
    // The announced codec is the policy's actual selection for the
    // stream, not a hard-coded zero.
    assert_eq!(
        music_info.codec,
        policy.select(&music_info.config).0.to_wire()
    );

    // The user's remote control: switch the speaker to what the
    // catalog lists for "news".
    let spk = sys.speaker(0).unwrap();
    let played_music = spk.stats().samples_played;
    assert!(played_music > 0);
    spk.tune(&mut sys.sim, McastGroup(news_info.group));
    sys.run_until(SimTime::from_secs(7));
    let spk = sys.speaker(0).unwrap();
    assert_eq!(spk.tuned(), news);
    assert!(
        spk.stats().samples_played > played_music,
        "playing again after the switch"
    );
    // The new channel's tone (350 Hz) dominates the recent output.
    let recent = spk.tap().borrow().samples_since(SimTime::from_secs(5));
    let recent = recent.expect("SpeakerSpec::capture_output()");
    assert!(!recent.is_empty());
    let crossings = recent
        .chunks(2)
        .map(|f| f[0])
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[0] <= 0 && w[1] > 0)
        .count();
    let secs = recent.len() as f64 / 88_200.0;
    let freq = crossings as f64 / secs;
    assert!(
        (300.0..400.0).contains(&freq),
        "recent output at {freq} Hz, expected ~350"
    );
}

#[test]
fn announcement_override_full_cycle_with_live_audio() {
    let music = McastGroup(1);
    let pa = McastGroup(9);
    let music_ch = ChannelSpec::new(1, music, "music").duration(SimDuration::from_secs(20));
    let pa_ch = ChannelSpec::new(2, pa, "announcement")
        .source(Source::Tone(800.0))
        .duration(SimDuration::from_secs(3))
        .start_at(SimDuration::from_secs(6))
        .flags(FLAG_PRIORITY);
    let mut sys = SystemBuilder::new(8)
        .channel(music_ch)
        .channel(pa_ch)
        .speaker(SpeakerSpec::new("seat-12a", music).capture_output())
        .speaker(SpeakerSpec::new("seat-12b", music))
        .build();
    let ctl_node = sys.lan().attach("crew-panel");
    let speakers: Vec<_> = (0..2).map(|i| sys.speaker(i).unwrap()).collect();
    let lan = sys.lan().clone();
    let ctl = OverrideController::start(
        &mut sys.sim,
        &lan,
        ctl_node,
        pa,
        speakers,
        SimDuration::from_millis(700),
    );

    sys.run_until(SimTime::from_secs(5));
    assert!(!ctl.is_active());
    assert_eq!(sys.speaker(0).unwrap().tuned(), music);

    sys.run_until(SimTime::from_secs(8));
    assert!(ctl.is_active(), "announcement must seize the fleet");
    assert_eq!(sys.speaker(0).unwrap().tuned(), pa);
    assert_eq!(sys.speaker(1).unwrap().tuned(), pa);

    sys.run_until(SimTime::from_secs(14));
    assert!(!ctl.is_active(), "fleet restored after the announcement");
    assert_eq!(sys.speaker(0).unwrap().tuned(), music);
    assert_eq!(sys.speaker(1).unwrap().tuned(), music);
    assert_eq!(ctl.stats().overrides, 1);
    assert_eq!(ctl.stats().restores, 1);
    // Music kept playing after restoration.
    let recent = sys
        .speaker(0)
        .unwrap()
        .tap()
        .borrow()
        .samples_since(SimTime::from_millis(12_000))
        .expect("SpeakerSpec::capture_output()");
    assert!(es_audio::analysis::rms(&recent) > 0.01, "music resumed");
}
