//! Integration: from PXE boot to playing audio — the §2.4 appliance
//! life cycle driving the §2.3 protocol.

use es_boot::{BootServer, DhcpConfig, DhcpServer, RamdiskFs, SpeakerMachine};
use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_sim::{SimDuration, SimTime};

fn fleet_servers() -> (DhcpServer, BootServer) {
    let dhcp = DhcpServer::new(DhcpConfig {
        default_channel: 1,
        announce_group: 0,
        ..DhcpConfig::default()
    });
    let skeleton = RamdiskFs::new()
        .with_file("/etc/es/channel", "1\n")
        .with_file("/etc/es/volume", "1.0\n")
        .with_file("/bin/es-speaker", vec![0x7f, b'E', b'L', b'F']);
    let boot = BootServer::new([42u8; 32], skeleton);
    (dhcp, boot)
}

#[test]
fn booted_machines_tune_their_configured_channels() {
    let (mut dhcp, mut boot) = fleet_servers();
    let key = boot.host_key();
    // The lobby speaker is reserved onto channel 2 at half volume.
    let lobby_mac = es_boot::dhcp::Mac([2, 0, 0, 0, 0, 1]);
    let hall_mac = es_boot::dhcp::Mac([2, 0, 0, 0, 0, 2]);
    boot.set_bundle(
        lobby_mac,
        RamdiskFs::new()
            .with_file("/etc/es/channel", "2\n")
            .with_file("/etc/es/volume", "0.5\n"),
    );

    // Boot both machines.
    let mut lobby = SpeakerMachine::new(lobby_mac);
    let mut hall = SpeakerMachine::new(hall_mac);
    let lobby_sys = lobby.boot(&mut dhcp, &mut boot, key).unwrap();
    let hall_sys = hall.boot(&mut dhcp, &mut boot, key).unwrap();
    assert_eq!(lobby_sys.configured_channel(), 2);
    assert_eq!(hall_sys.configured_channel(), 1);

    // Bring up the LAN with a channel per group; each speaker joins the
    // group its boot configuration names.
    let ch1 = ChannelSpec::new(1, McastGroup(1), "music")
        .source(Source::Music)
        .duration(SimDuration::from_secs(6));
    let ch2 = ChannelSpec::new(2, McastGroup(2), "news")
        .source(Source::Tone(300.0))
        .duration(SimDuration::from_secs(6));
    let mut sys = SystemBuilder::new(77)
        .channel(ch1)
        .channel(ch2)
        .speaker({
            let mut s = SpeakerSpec::new("lobby", McastGroup(lobby_sys.configured_channel()));
            s = s.volume(lobby_sys.configured_volume());
            s.capture_output()
        })
        .speaker(
            SpeakerSpec::new("hall", McastGroup(hall_sys.configured_channel())).capture_output(),
        )
        .build();
    sys.run_until(SimTime::from_secs(5));

    let lobby_spk = sys.speaker(0).unwrap();
    let hall_spk = sys.speaker(1).unwrap();
    assert_eq!(lobby_spk.tuned(), McastGroup(2));
    assert_eq!(hall_spk.tuned(), McastGroup(1));
    assert!(lobby_spk.stats().samples_played > 0);
    assert!(hall_spk.stats().samples_played > 0);

    // The lobby's 0.5 volume shows in its output level: its channel is
    // a 0.6-amplitude tone (RMS 0.42), so at half volume it plays at
    // RMS ≈ 0.21.
    let played = |spk: &es_speaker::EthernetSpeaker| {
        let heard = spk.tap().borrow().samples();
        heard.expect("SpeakerSpec::capture_output()")
    };
    let lobby_rms = es_audio::analysis::rms(&played(&lobby_spk));
    let tone_rms = 0.6 / 2f64.sqrt();
    assert!(
        (lobby_rms - tone_rms * 0.5).abs() < 0.04,
        "lobby RMS {lobby_rms}, expected ~{}",
        tone_rms * 0.5
    );
    assert!(es_audio::analysis::rms(&played(&hall_spk)) > 0.05);
}

#[test]
fn fleet_update_changes_channel_on_reboot() {
    let (mut dhcp, mut boot) = fleet_servers();
    let key = boot.host_key();
    let mac = es_boot::dhcp::Mac([2, 0, 0, 0, 0, 9]);
    let mut m = SpeakerMachine::new(mac);
    let v1 = m.boot(&mut dhcp, &mut boot, key).unwrap();
    assert_eq!(v1.configured_channel(), 1);
    // The administrator retargets the whole fleet to channel 3.
    boot.update_image(
        RamdiskFs::new()
            .with_file("/etc/es/channel", "3\n")
            .with_file("/etc/es/volume", "1.0\n"),
    );
    m.power_off();
    let v2 = m.boot(&mut dhcp, &mut boot, key).unwrap();
    assert_eq!(v2.image_version, 2);
    assert_eq!(v2.configured_channel(), 3);
}

#[test]
fn rogue_boot_server_cannot_feed_a_speaker() {
    let (mut dhcp, mut boot) = fleet_servers();
    let mut m = SpeakerMachine::new(es_boot::dhcp::Mac([2, 0, 0, 0, 0, 3]));
    // The machine reaches an impostor whose key differs from the one
    // pinned in the ramdisk image it downloaded.
    let err = m.boot(&mut dhcp, &mut boot, [0u8; 32]).unwrap_err();
    assert_eq!(err, es_boot::BootError::ConfigFetchRefused);
}
