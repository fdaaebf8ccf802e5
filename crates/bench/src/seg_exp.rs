//! The `segments` experiment: relay fan-out scaling, tracked as
//! `BENCH_PR9.json`.
//!
//! Each run builds the §4.4 hierarchical topology — one producer on
//! the backbone, four segment relays, and `S` speakers spread
//! round-robin across the relayed segments — and streams OVL-encoded
//! CD audio through the full stack. Per speaker count the report
//! carries the measured wall time on this host (`s1_wall_seconds`),
//! the aggregate realtime factor it implies, and the cross-segment
//! post count (a topology property). A `pipeline` group repeats the
//! PR3 single-speaker experiment so `ES_BENCH_BASELINE=BENCH_PR6.json`
//! cross-checks the one-speaker path. `host.cores` is disclosed so a
//! reader can tell what regime produced the report.

use std::time::Instant;

use es_core::{ChannelSpec, EsSystem, RelaySpec, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

use crate::perf::{self, PerfReport};

/// Relayed segments in every topology (plus the backbone, segment 0).
pub const SEGMENTS: u32 = 4;

/// One full system run: `speakers` receivers behind [`SEGMENTS`]
/// relays.
#[derive(Debug)]
pub struct SegRun {
    /// Wall-clock seconds on this host.
    pub wall: f64,
    /// Samples played by speaker 0 (sanity: audio actually flowed).
    pub samples_played: u64,
    /// Events posted across a segment boundary.
    pub cross_posts: u64,
}

fn relayed_fleet(speakers: usize, audio_seconds: u64) -> EsSystem {
    let upstream = McastGroup(1);
    let spec = ChannelSpec::new(1, upstream, "segments")
        .policy(CompressionPolicy::Always {
            codec: es_codec::CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
        })
        .duration(SimDuration::from_secs(audio_seconds));
    let mut builder = SystemBuilder::new(7).channel(spec);
    for k in 1..=SEGMENTS {
        builder = builder.relay(RelaySpec::new(upstream, McastGroup(100 + k as u16)).segment(k));
    }
    for i in 0..speakers {
        let seg = (i as u32 % SEGMENTS) + 1;
        builder = builder
            .speaker(SpeakerSpec::new(format!("es{i}"), McastGroup(100 + seg as u16)).segment(seg));
    }
    builder.build()
}

/// Streams `audio_seconds` of OVL-compressed CD audio to `speakers`
/// receivers across the relayed segments.
pub fn seg_run(speakers: usize, audio_seconds: u64) -> SegRun {
    let mut sys = relayed_fleet(speakers, audio_seconds);
    let start = Instant::now();
    sys.run_until(SimTime::from_secs(audio_seconds + 1));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    SegRun {
        wall,
        samples_played: sys
            .speaker(0)
            .map(|s| s.stats().samples_played)
            .unwrap_or(0),
        cross_posts: sys.lan().cross_segment_posts(),
    }
}

/// Audio seconds streamed per tier: the 10k-speaker tier dominates
/// the sweep, so everything runs one virtual second.
const AUDIO_SECONDS: u64 = 1;

/// Runs the sweep and assembles the report.
pub fn run() -> PerfReport {
    let quick = perf::quick();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speaker_counts: &[usize] = if quick {
        &[100, 400]
    } else {
        &[1_000, 4_000, 10_000]
    };

    let mut groups: Vec<(String, Vec<(String, f64)>)> =
        vec![("host".into(), vec![("cores".into(), host_cores as f64)])];
    for &s in speaker_counts {
        let run = seg_run(s, AUDIO_SECONDS);
        assert!(run.samples_played > 0, "seg run {s}: no audio played");
        assert!(run.cross_posts > 0, "seg run {s}: nothing crossed segments");
        let speaker_seconds = (s as u64 * AUDIO_SECONDS) as f64;
        groups.push((
            format!("segments_{s:06}"),
            vec![
                ("speakers".into(), s as f64),
                ("segments".into(), SEGMENTS as f64),
                ("audio_seconds".into(), AUDIO_SECONDS as f64),
                ("cross_segment_posts".into(), run.cross_posts as f64),
                ("s1_wall_seconds".into(), run.wall),
                ("s1_x_realtime_aggregate".into(), speaker_seconds / run.wall),
            ],
        ));
    }

    // The PR3 pipeline experiment, unchanged: relays and segment
    // labels must not tax the one-speaker path.
    let pipeline_audio = if quick { 2 } else { 10 };
    groups.push(("pipeline".into(), perf::pipeline_group(pipeline_audio)));

    PerfReport {
        bench: "segments".into(),
        quick,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relayed_run_plays_and_crosses_segments() {
        let run = seg_run(8, 1);
        assert!(run.samples_played > 0);
        assert!(run.cross_posts > 0, "relays must cross segments");
    }
}
