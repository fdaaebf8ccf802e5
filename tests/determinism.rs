//! Integration: the whole stack is deterministic under a fixed seed —
//! the property every experiment in EXPERIMENTS.md rests on.

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::{LanConfig, McastGroup};
use es_sim::{SimDuration, SimTime};

fn run_fingerprint(seed: u64) -> (u64, u64, u64, u64, Vec<i16>) {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "stream")
        .source(Source::Music)
        .duration(SimDuration::from_secs(5));
    let mut sys = SystemBuilder::new(seed)
        .lan(LanConfig::lossy(0.02, SimDuration::from_micros(500)))
        .channel(ch)
        .speaker(SpeakerSpec::new("es", group).capture_output())
        .build();
    sys.run_until(SimTime::from_secs(4));
    let spk = sys.speaker(0).unwrap();
    let st = spk.stats();
    let lan = sys.lan().stats();
    let tap = spk.tap().borrow().samples();
    let tap = tap.expect("SpeakerSpec::capture_output()");
    let head: Vec<i16> = tap.into_iter().take(4_096).collect();
    assert_eq!(head.len(), 4_096, "played audio to compare");
    (
        st.datagrams,
        st.samples_played,
        lan.datagrams_lost,
        lan.wire_bytes_sent,
        head,
    )
}

#[test]
fn same_seed_same_everything() {
    let a = run_fingerprint(1234);
    let b = run_fingerprint(1234);
    assert_eq!(a.0, b.0, "datagrams");
    assert_eq!(a.1, b.1, "samples played");
    assert_eq!(a.2, b.2, "losses");
    assert_eq!(a.3, b.3, "wire bytes");
    assert_eq!(a.4, b.4, "played audio bit-identical");
}

#[test]
fn different_seed_different_loss_pattern() {
    let a = run_fingerprint(1);
    let b = run_fingerprint(2);
    // Same workload, different random loss/jitter draws.
    assert!(
        a.2 != b.2 || a.1 != b.1,
        "two seeds produced identical stochastic outcomes"
    );
}

#[test]
fn virtual_time_outruns_wall_time() {
    // A 60-second experiment must run in a small fraction of real time
    // (the whole point of the discrete-event substrate).
    #[allow(clippy::disallowed_methods)]
    // es-allow(wall-clock): asserts virtual time outruns wall time; needs a real clock
    let start = std::time::Instant::now();
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "stream")
        .source(Source::Tone(440.0))
        .duration(SimDuration::from_secs(62))
        .policy(es_rebroadcast::CompressionPolicy::Never);
    let mut sys = SystemBuilder::new(5)
        .channel(ch)
        .speaker(SpeakerSpec::new("es", group))
        .build();
    sys.run_until(SimTime::from_secs(60));
    let wall = start.elapsed();
    assert!(sys.speaker(0).unwrap().stats().samples_played as f64 > 50.0 * 88_200.0);
    assert!(
        wall < std::time::Duration::from_secs(30),
        "60 virtual seconds took {wall:?} of wall time"
    );
}
