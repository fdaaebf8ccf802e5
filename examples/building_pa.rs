//! Building public-address system: the paper's motivating deployment.
//!
//! "Consider a situation where you want to listen to some audio source
//! in various rooms in your house, alternatively you may want to send
//! audio throughout a building" (§1), plus the §5 extensions: a music
//! channel and a priority announcement channel, a catalog announcing
//! both (§4.3), speakers with ambient-tracking automatic volume (§5.2),
//! and the central override that seizes every speaker for the
//! announcement and returns them afterwards (§5.3).
//!
//! Run: `cargo run --example building_pa`

use es_core::prelude::*;
use es_proto::FLAG_PRIORITY;
use es_speaker::{AmbientProfile, AutoVolumeConfig};

fn main() {
    let music = McastGroup(1);
    let pa = McastGroup(9);
    let catalog = McastGroup(0);

    let music_ch = ChannelSpec::new(1, music, "background-music")
        .source(Source::Music)
        .duration(SimDuration::from_secs(30));

    // The crew keys the PA at t=10s for five seconds.
    let pa_ch = ChannelSpec::new(2, pa, "announcements")
        .source(Source::Tone(700.0))
        .duration(SimDuration::from_secs(5))
        .start_at(SimDuration::from_secs(10))
        .flags(FLAG_PRIORITY);

    // Rooms with different noise profiles: the lobby gets loud at 8 s.
    let lobby_noise = AmbientProfile::steps(vec![(0.0, 0.05), (8.0, 0.4)]);
    let office_noise = AmbientProfile::constant(0.02);

    let mut sys = SystemBuilder::new(7)
        .channel(music_ch)
        .channel(pa_ch)
        .announce_on(catalog)
        .speaker(
            SpeakerSpec::new("lobby", music)
                .auto_volume(AutoVolumeConfig::Announcement, lobby_noise),
        )
        .speaker(
            SpeakerSpec::new("office", music).auto_volume(AutoVolumeConfig::Music, office_noise),
        )
        .build();

    // The central override watches the PA group and manages both
    // speakers.
    let ctl_node = sys.lan().attach("override-controller");
    let speakers: Vec<_> = (0..2).map(|i| sys.speaker(i).expect("powered")).collect();
    let lan = sys.lan().clone();
    let ctl = OverrideController::start(
        &mut sys.sim,
        &lan,
        ctl_node,
        pa,
        speakers,
        SimDuration::from_millis(800),
    );

    println!("t=0s   : music playing in lobby and office");
    sys.run_until(SimTime::from_secs(9));
    for i in 0..2 {
        let spk = sys.speaker(i).unwrap();
        println!(
            "t=9s   : speaker {i} tuned to group {:?}, auto-gain {:.2}",
            spk.tuned().0,
            spk.auto_gain().unwrap_or(1.0)
        );
    }

    sys.run_until(SimTime::from_secs(12));
    println!(
        "t=12s  : announcement on the air; override active = {}",
        ctl.is_active()
    );
    for i in 0..2 {
        let spk = sys.speaker(i).unwrap();
        println!(
            "         speaker {i} now tuned to group {:?}",
            spk.tuned().0
        );
    }

    sys.run_until(SimTime::from_secs(20));
    println!(
        "t=20s  : announcement over; override active = {}; seizures: {}, restores: {}",
        ctl.is_active(),
        ctl.stats().overrides,
        ctl.stats().restores
    );
    for i in 0..2 {
        let spk = sys.speaker(i).unwrap();
        let st = spk.stats();
        println!(
            "         speaker {i}: back on group {:?}, {:.1}s played total, auto-gain {:.2}",
            spk.tuned().0,
            st.samples_played as f64 / 88_200.0,
            spk.auto_gain().unwrap_or(1.0)
        );
    }

    // What does the catalog look like to a management console?
    let console = sys.lan().attach("console");
    let lan = sys.lan().clone();
    let browser = es_core::ChannelBrowser::start(&lan, console, catalog);
    sys.run_until(SimTime::from_secs(23));
    println!("\nchannel catalog (§4.3 announce group):");
    for ch in browser.channels() {
        println!(
            "  stream {} \"{}\" on group {} ({}){}",
            ch.stream_id,
            ch.name,
            ch.group,
            ch.config,
            if ch.flags & FLAG_PRIORITY != 0 {
                " [priority]"
            } else {
                ""
            }
        );
    }
}
