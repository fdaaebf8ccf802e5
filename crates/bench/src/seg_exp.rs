//! The `segments` experiment: event-engine scaling across segment
//! relays, tracked as `BENCH_PR9.json`.
//!
//! Each run builds the §4.4 hierarchical topology — one producer on
//! the backbone, four segment relays, and `S` speakers spread
//! round-robin across the relayed segments — and streams OVL-encoded
//! CD audio through the full stack with the event engine partitioned
//! into `ES_SIM_SHARDS`-style shard counts. Three kinds of numbers
//! come out per speaker count:
//!
//! - **measured wall time** per shard count — what the K-way
//!   conservative-lookahead merge actually costs on this host (the
//!   engine executes on one thread; more shards must not make it
//!   slower than the merge overhead);
//! - **per-segment busy time** from the engine's own accounting
//!   ([`es_sim::ShardTiming`], collected on the single-shard run so
//!   the instrumentation does not pollute the measured multi-shard
//!   walls): `work` is the total event execution time,
//!   `span(n)` the busiest-lane time when the segments fold onto `n`
//!   shards — the critical path a parallel shard-per-core engine
//!   could not beat;
//! - **projected wall time** per shard count:
//!   `wall₁ − work + span(n)`.
//!
//! A `segments_100k_projected` group linearly extrapolates the
//! largest measured sweep to 100 000 speakers (`scale_factor`
//! disclosed) — a fleet size nobody should simulate in CI — and a
//! `pipeline` group repeats the PR3 single-speaker experiment so
//! `ES_BENCH_BASELINE=BENCH_PR6.json` cross-checks that none of the
//! sharding machinery taxes the one-speaker path. `host.cores` is
//! disclosed so a reader can tell what regime produced the report.

use std::time::Instant;

use es_core::{ChannelSpec, EsSystem, RelaySpec, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{ShardTiming, SimDuration, SimTime};

use crate::perf::{self, PerfReport};

/// Relayed segments in every topology (plus the backbone, segment 0).
pub const SEGMENTS: u32 = 4;

/// One full system run: `speakers` receivers behind [`SEGMENTS`]
/// relays, the event engine partitioned into `shards`.
#[derive(Debug)]
pub struct SegRun {
    /// Wall-clock seconds on this host.
    pub wall: f64,
    /// Per-segment busy time (only collected when `timing` was on).
    pub timing: ShardTiming,
    /// Samples played by speaker 0 (sanity: audio actually flowed).
    pub samples_played: u64,
    /// Cross-segment events routed through the deterministic channel.
    pub cross_posts: u64,
}

fn relayed_fleet(speakers: usize, audio_seconds: u64, shards: usize) -> EsSystem {
    let upstream = McastGroup(1);
    let spec = ChannelSpec::new(1, upstream, "segments")
        .policy(CompressionPolicy::Always {
            codec: es_codec::CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
        })
        .duration(SimDuration::from_secs(audio_seconds));
    let mut builder = SystemBuilder::new(7).sim_shards(shards).channel(spec);
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
/// receivers across the relayed segments at `shards` event shards.
/// Per-segment busy-time accounting is collected only when `timing`
/// is set — it reads the host clock per event, which would inflate
/// the measured walls of the comparison runs.
pub fn seg_run(speakers: usize, audio_seconds: u64, shards: usize, timing: bool) -> SegRun {
    let mut sys = relayed_fleet(speakers, audio_seconds, shards);
    if timing {
        sys.sim_mut().enable_shard_timing();
    }
    let start = Instant::now();
    sys.run_until(SimTime::from_secs(audio_seconds + 1));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let timing = if timing {
        sys.sim_mut().take_shard_timing()
    } else {
        ShardTiming::default()
    };
    SegRun {
        wall,
        timing,
        samples_played: sys
            .speaker(0)
            .map(|s| s.stats().samples_played)
            .unwrap_or(0),
        cross_posts: sys.lan().cross_segment_posts(),
    }
}

/// Audio seconds streamed per speaker count: the 10k-speaker tier
/// dominates the sweep, so everything runs one virtual second.
fn audio_seconds_for(quick: bool) -> u64 {
    let _ = quick;
    1
}

/// The largest measured tier's numbers, kept for the 100k projection.
struct LargestTier {
    speakers: usize,
    audio: u64,
    wall1: f64,
    work: f64,
    /// `(shard count, busiest-lane seconds)` per swept shard count.
    spans: Vec<(usize, f64)>,
}

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
    let shard_counts: [usize; 3] = [1, 2, 4];

    let mut groups: Vec<(String, Vec<(String, f64)>)> =
        vec![("host".into(), vec![("cores".into(), host_cores as f64)])];
    let mut largest: Option<LargestTier> = None;
    for &s in speaker_counts {
        let audio = audio_seconds_for(quick);
        let speaker_seconds = (s as u64 * audio) as f64;
        let mut metrics: Vec<(String, f64)> = vec![
            ("speakers".into(), s as f64),
            ("segments".into(), SEGMENTS as f64),
            ("audio_seconds".into(), audio as f64),
        ];

        // The single-shard run anchors the busy-time accounting; its
        // per-segment split is a topology property, identical at any
        // shard count.
        let base = seg_run(s, audio, 1, true);
        assert!(base.samples_played > 0, "seg run {s}x1: no audio played");
        assert!(
            base.cross_posts > 0,
            "seg run {s}x1: nothing crossed segments"
        );
        let work = (base.timing.work_ns() as f64 / 1e9).max(1e-9);
        metrics.push(("work_seconds".into(), work));
        metrics.push(("cross_segment_posts".into(), base.cross_posts as f64));

        let mut spans: Vec<(usize, f64)> = Vec::new();
        for &n in &shard_counts {
            let wall = if n == 1 {
                base.wall
            } else {
                let run = seg_run(s, audio, n, false);
                assert!(run.samples_played > 0, "seg run {s}x{n}: no audio played");
                assert_eq!(
                    run.cross_posts, base.cross_posts,
                    "cross-segment traffic must not depend on the shard count"
                );
                run.wall
            };
            let span = (base.timing.span_ns(n) as f64 / 1e9).max(1e-9);
            // Strip the event work the single-shard wall serialized,
            // add back the busiest lane at n shards.
            let projected = (base.wall - work + span).max(span).max(1e-9);
            metrics.push((format!("s{n}_wall_seconds"), wall));
            metrics.push((format!("s{n}_span_seconds"), span));
            metrics.push((format!("s{n}_projected_wall_seconds"), projected));
            metrics.push((
                format!("s{n}_x_realtime_aggregate"),
                speaker_seconds / projected,
            ));
            spans.push((n, span));
        }
        largest = Some(LargestTier {
            speakers: s,
            audio,
            wall1: base.wall,
            work,
            spans: spans.clone(),
        });
        groups.push((format!("segments_{s:06}"), metrics));
    }

    // 100k-speaker projection from the largest measured tier: event
    // work in this system scales linearly with fan-out (every speaker
    // adds its own deliveries and decodes), so walls and spans scale
    // by the disclosed factor. Nobody should burn CI time simulating
    // a hundred thousand receivers to read this line.
    if let Some(tier) = largest {
        let scale = 100_000.0 / tier.speakers as f64;
        let speaker_seconds = 100_000.0 * tier.audio as f64;
        let mut metrics: Vec<(String, f64)> = vec![
            ("speakers".into(), 100_000.0),
            ("segments".into(), SEGMENTS as f64),
            ("audio_seconds".into(), tier.audio as f64),
            ("scale_factor".into(), scale),
            ("work_seconds".into(), tier.work * scale),
        ];
        for (n, span) in tier.spans {
            let projected = ((tier.wall1 - tier.work + span) * scale)
                .max(span * scale)
                .max(1e-9);
            metrics.push((format!("s{n}_projected_wall_seconds"), projected));
            metrics.push((
                format!("s{n}_x_realtime_aggregate"),
                speaker_seconds / projected,
            ));
        }
        groups.push(("segments_100k_projected".into(), metrics));
    }

    // The PR3 pipeline experiment, unchanged: the sharded engine
    // must not tax the one-speaker path.
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
    fn timed_run_collects_per_segment_busy_time() {
        let run = seg_run(8, 1, 1, true);
        assert!(run.samples_played > 0);
        assert!(run.cross_posts > 0, "relays must cross segments");
        let work = run.timing.work_ns();
        assert!(work > 0);
        // Folding 5 logical segments onto fewer shards can only grow
        // the busiest lane; at 1 shard the lane IS the whole work.
        assert_eq!(run.timing.span_ns(1), work);
        assert!(run.timing.span_ns(2) <= run.timing.span_ns(1));
        assert!(run.timing.span_ns(4) <= run.timing.span_ns(2));
    }

    #[test]
    fn untimed_run_keeps_the_engine_clean() {
        let run = seg_run(8, 1, 4, false);
        assert!(run.samples_played > 0);
        assert_eq!(run.timing.work_ns(), 0, "timing must stay off");
    }

    #[test]
    fn cross_segment_traffic_is_shard_invariant() {
        let a = seg_run(6, 1, 1, false);
        let b = seg_run(6, 1, 4, false);
        assert_eq!(a.cross_posts, b.cross_posts);
        assert_eq!(a.samples_played, b.samples_played);
    }
}
