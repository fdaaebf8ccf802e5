//! The fleet rows of the `dsp` bench (`BENCH_PR6.json`): x-realtime
//! throughput vs. speaker count.
//!
//! Each speaker count builds one OVL channel fanned out to `S`
//! independent speakers and streams a few seconds of CD audio through
//! the full producer→LAN→speaker stack; the row is the measured wall
//! time on this host and the aggregate speaker-seconds per wall
//! second. (The 2/4-lane sweeps and their work/span projections went
//! with the decode lanes: every datagram is now decoded once and
//! shared across the fan-out, DESIGN.md §7. The `t1_` prefix stays so
//! the rows still line up with committed baselines.)
//!
//! A `pipeline` group repeats the PR3 single-speaker experiment (same
//! metric names), so `ES_BENCH_BASELINE=BENCH_PR3.json` directly
//! cross-checks that fleet fan-out costs the single-speaker path
//! nothing.
//!
//! `ES_BENCH_QUICK=1` shrinks the sweep for CI smoke tests;
//! `ES_BENCH_BASELINE=<file>` warns on >20% regressions.

use std::time::Instant;

use es_core::{ChannelSpec, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};

use crate::perf::{self, PerfReport};

/// One full system run of `speakers` receivers.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Wall-clock seconds on this host.
    pub wall: f64,
    /// Samples played by speaker 0 (sanity: audio actually flowed).
    pub samples_played: u64,
}

/// Streams `audio_seconds` of OVL-compressed CD audio to `speakers`
/// receivers.
pub fn fleet_run(speakers: usize, audio_seconds: u64) -> FleetRun {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "fleet")
        .policy(CompressionPolicy::Always {
            codec: es_codec::CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
        })
        .duration(SimDuration::from_secs(audio_seconds));
    let mut builder = SystemBuilder::new(7).channel(spec);
    for i in 0..speakers {
        builder = builder.speaker(SpeakerSpec::new(format!("es{i}"), group));
    }
    let mut sys = builder.build();
    let start = Instant::now();
    sys.run_until(SimTime::from_secs(audio_seconds + 1));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    FleetRun {
        wall,
        samples_played: sys
            .speaker(0)
            .map(|s| s.stats().samples_played)
            .unwrap_or(0),
    }
}

/// Audio seconds streamed per speaker count: enough to dominate setup
/// cost, scaled down as the fleet grows so the full sweep stays in
/// single-digit minutes.
fn audio_seconds_for(speakers: usize, quick: bool) -> u64 {
    if quick {
        return 1;
    }
    match speakers {
        0..=8 => 5,
        9..=64 => 2,
        _ => 1,
    }
}

/// Runs the sweep and assembles the report.
pub fn run() -> PerfReport {
    let quick = perf::quick();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speaker_counts: &[usize] = if quick {
        &[1, 8, 64]
    } else {
        &[1, 8, 64, 256, 1024]
    };

    let mut groups: Vec<(String, Vec<(String, f64)>)> =
        vec![("host".into(), vec![("cores".into(), host_cores as f64)])];
    for &s in speaker_counts {
        let audio = audio_seconds_for(s, quick);
        let run = fleet_run(s, audio);
        assert!(run.samples_played > 0, "fleet run {s}: no audio played");
        groups.push((
            format!("fleet_{s:04}"),
            vec![
                ("speakers".into(), s as f64),
                ("audio_seconds".into(), audio as f64),
                ("t1_wall_seconds".into(), run.wall),
                (
                    "t1_x_realtime_aggregate".into(),
                    (s as u64 * audio) as f64 / run.wall,
                ),
            ],
        ));
    }

    // The PR3 pipeline experiment, unchanged: the fleet machinery
    // must not tax the one-speaker path.
    let pipeline_audio = if quick { 2 } else { 10 };
    groups.push(("pipeline".into(), perf::pipeline_group(pipeline_audio)));

    PerfReport {
        bench: "fleet".into(),
        quick,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_run_plays_audio() {
        let run = fleet_run(3, 1);
        assert!(run.samples_played > 0);
        assert!(run.wall > 0.0);
    }
}
