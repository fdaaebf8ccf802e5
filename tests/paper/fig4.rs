//! Figure 4: "Compression impact on CPU load, as we increase the number
//! of compressed streams transmitted by the local rebroadcaster. Each
//! stream is a separate CD-quality stereo audio stream."
//!
//! The paper plots userland CPU % against time (0–60 s) for four and
//! eight simultaneously compressed streams. The reproduction runs N
//! rebroadcast channels, all OVL at maximum quality (the paper's "we
//! simply set the Ogg Vorbis quality index to its maximum"), billing
//! every encode to one shared Geode-class [`SimCpu`], and reports the
//! per-second utilization series.

use es_core::{ChannelSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{shared, SimCpu, SimDuration, SimTime, TimeSeries};

use crate::calib;

/// Result of one Figure 4 run.
#[derive(Debug)]
pub struct Fig4Run {
    /// Userland CPU % per second.
    pub series: TimeSeries,
    /// Mean over the measurement window.
    pub mean: f64,
}

/// Runs the Figure 4 workload with `streams` CD channels for
/// `seconds`, billing the work units of the transform the codec runs
/// at the `calib` rate.
pub fn run(streams: usize, seconds: u64, seed: u64) -> Fig4Run {
    let cpu = shared(SimCpu::new(calib::GEODE_HZ, SimDuration::from_secs(1)));
    let mut builder = SystemBuilder::new(seed);
    for i in 0..streams {
        let spec = ChannelSpec::new(
            (i + 1) as u16,
            McastGroup((i + 1) as u16),
            format!("cd-stream-{}", i + 1),
        )
        .policy(CompressionPolicy::Always {
            codec: es_codec::CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
        })
        .duration(SimDuration::from_secs(seconds + 4))
        .cpu(cpu.clone())
        // Offset the streams slightly so their encode bursts interleave
        // the way independent players would.
        .start_at(SimDuration::from_millis(37 * i as u64));
        builder = builder.channel(spec);
    }
    let mut sys = builder.build();
    let until = SimTime::ZERO + calib::WARMUP + SimDuration::from_secs(seconds);
    sys.run_until(until);
    // Snapshot the CPU accounting (producer pipelines keep clones of
    // the handle alive inside the simulation).
    let cpu = cpu.borrow().clone();
    let series = cpu
        .utilization_series(format!("{streams} streams"), until)
        .window(SimTime::ZERO + calib::WARMUP, until);
    let mean = series.mean().unwrap_or(0.0);
    Fig4Run { series, mean }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_streams_cost_about_twice_four() {
        let four = run(4, 10, 1);
        let eight = run(8, 10, 1);
        println!("seed 1, 10 s: {four:?}\nseed 1, 10 s: {eight:?}");
        assert!(four.mean > 25.0, "4 streams mean {}", four.mean);
        assert!(four.mean < 70.0, "4 streams mean {}", four.mean);
        assert!(
            eight.mean > four.mean * 1.6,
            "{} vs {}",
            eight.mean,
            four.mean
        );
        assert!(eight.mean <= 100.0);
        // Eight streams approach saturation.
        assert!(eight.mean > 70.0, "8 streams mean {}", eight.mean);
        assert_eq!(four.series.len(), 10);
    }

    #[test]
    fn one_stream_is_cheap() {
        let one = run(1, 6, 2);
        println!("seed 2, 6 s: {one:?}");
        assert!(
            (5.0..25.0).contains(&one.mean),
            "one stream should sit near 11%: {}",
            one.mean
        );
    }
}
