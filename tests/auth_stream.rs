//! Integration: §5.1 stream authentication on the wire, attacker
//! included.

use std::rc::Rc;

use bytes::Bytes;
use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_proto::auth::StreamSigner;
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

fn signed_system(seed: u64) -> (es_core::EsSystem, Rc<StreamSigner>) {
    let group = McastGroup(1);
    let signer = Rc::new(StreamSigner::new(b"campus-key", 4_000, 2));
    // Short auth intervals so keys disclose quickly relative to the
    // 200 ms playout budget.
    let ch = ChannelSpec::new(1, group, "secure-pa")
        .source(Source::Tone(500.0))
        .duration(SimDuration::from_secs(10))
        .policy(CompressionPolicy::Never)
        .signer(signer.clone());
    let sys = SystemBuilder::new(seed)
        .channel(ch)
        .speaker(
            SpeakerSpec::new("es", group)
                .auth_anchor(signer.anchor())
                .capture_output(),
        )
        .build();
    (sys, signer)
}

#[test]
fn authenticated_stream_plays() {
    let (mut sys, _signer) = signed_system(1);
    sys.run_until(SimTime::from_secs(8));
    let spk = sys.speaker(0).unwrap();
    let st = spk.stats();
    let auth = spk.auth_stats().expect("auth enabled");
    assert!(
        st.samples_played > 0,
        "authenticated audio must play: {st:?}"
    );
    assert!(auth.authenticated > 50, "{auth:?}");
    assert_eq!(auth.forged, 0);
    // Delayed disclosure holds the newest packets briefly; nearly
    // everything else is released and played.
    assert!(
        st.data_packets as f64 > auth.authenticated as f64 * 0.5,
        "{st:?} vs {auth:?}"
    );
}

#[test]
fn unauthenticated_speaker_cannot_play_signed_stream() {
    // A speaker without the anchor treats trailer-bearing packets as
    // garbage (it parses them as packet + trailing junk and the CRC
    // sits in the wrong place).
    let group = McastGroup(1);
    let signer = Rc::new(StreamSigner::new(b"campus-key", 4_000, 2));
    let ch = ChannelSpec::new(1, group, "secure-pa")
        .source(Source::Tone(500.0))
        .duration(SimDuration::from_secs(5))
        .policy(CompressionPolicy::Never)
        .signer(signer.clone());
    let mut sys = SystemBuilder::new(2)
        .channel(ch)
        .speaker(SpeakerSpec::new("naive", group))
        .build();
    sys.run_until(SimTime::from_secs(4));
    let st = sys.speaker(0).unwrap().stats();
    assert_eq!(st.samples_played, 0);
    assert!(st.bad_packets > 0);
}

#[test]
fn injected_packets_are_not_played() {
    let (mut sys, _signer) = signed_system(3);
    // The attacker floods the group with garbage "audio" throughout the
    // run: raw noise, malformed packets, and trailer-shaped junk.
    let lan = sys.lan().clone();
    let attacker = lan.attach("mallory");
    let group = McastGroup(1);
    lan.join(attacker, group);
    for i in 0..200u64 {
        let lan2 = lan.clone();
        sys.sim
            .schedule_at(SimTime::from_millis(i * 37), move |sim| {
                // A well-formed *unsigned* data packet (no trailer).
                let fake = es_proto::encode_data(&es_proto::DataPacket {
                    stream_id: 1,
                    seq: 10_000 + i as u32,
                    play_at_us: sim.now().as_micros() + 50_000,
                    codec: 0,
                    payload: Bytes::from(vec![0x55u8; 800]),
                });
                lan2.multicast(sim, attacker, group, fake);
            });
    }
    sys.run_until(SimTime::from_secs(8));
    let spk = sys.speaker(0).unwrap();
    let auth = spk.auth_stats().unwrap();
    let st = spk.stats();
    // Fakes lack real trailers: their trailing 72 bytes parse as a
    // trailer whose "disclosed key" is garbage (bad_keys), and their
    // claimed intervals either reject early or rot unverified in the
    // bounded pending buffer. Nothing forged plays.
    assert!(st.samples_played > 0, "honest audio still plays");
    assert!(
        auth.bad_keys + auth.forged + st.bad_packets + auth.rejected_early >= 190,
        "attack packets must be rejected somewhere: {auth:?} {st:?}"
    );
    assert_eq!(auth.forged, 0, "no fake ever passed a MAC check");
    // Played audio is the 500 Hz tone, not the attacker's DC noise:
    // constant 0x5555 payloads decode to a fixed value; a sine has
    // near-zero mean.
    let played = spk.tap().borrow().samples();
    let played = played.expect("SpeakerSpec::capture_output()");
    assert!(!played.is_empty());
    let mean: f64 = played.iter().map(|&s| s as f64).sum::<f64>() / played.len() as f64;
    assert!(
        mean.abs() < 300.0,
        "played audio biased by injected DC: {mean}"
    );
}
