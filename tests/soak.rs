//! Integration: a long run on default speakers. A speaker that does
//! not capture its output costs the same memory after ten minutes as
//! after ten seconds, so the run length is bounded by time alone.

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

/// Virtual minutes streamed — what four speakers get through in a few
/// seconds of the dev profile.
const MINUTES: u64 = 10;

#[test]
fn default_speakers_hold_nothing_after_minutes_of_pcm() {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "pcm")
        .source(Source::Music)
        .policy(CompressionPolicy::Never)
        .duration(SimDuration::from_secs(MINUTES * 60));
    let mut b = SystemBuilder::new(16).channel(ch);
    for i in 0..4 {
        b = b.speaker(SpeakerSpec::new(format!("es{i}"), group));
    }
    let mut sys = b.build();
    // Past the end of the stream, so every speaker drains its ring.
    sys.run_until(SimTime::from_secs(MINUTES * 60 + 2));

    let first = sys.speaker(0).unwrap().stats();
    assert!(
        first.samples_played >= MINUTES * 60 * 88_200,
        "the whole stream played: {first:?}"
    );
    for i in 0..4 {
        let spk = sys.speaker(i).unwrap();
        let st = spk.stats();
        assert_eq!(st.samples_played, first.samples_played, "speaker {i}");
        // fail_fraction == 0: every block learned of was written on time.
        let failed = st.dropped_late
            + st.decode_errors
            + st.dropped_busy
            + st.bad_packets
            + st.concealed_packets;
        assert_eq!(failed, 0, "speaker {i}: {st:?}");

        let tap = spk.tap();
        let tap = tap.borrow();
        assert_eq!(tap.retained_samples(), 0, "speaker {i}");
        assert_eq!(tap.samples(), None);
        // The tap still knows how much played and when.
        assert!(tap.sample_count() as u64 >= st.samples_played);
        let span = tap.last_block_time().unwrap() - tap.first_block_time().unwrap();
        assert!(span >= SimDuration::from_secs(MINUTES * 60 - 1), "{span}");
    }
}
