//! E-BUF: buffer sizing on a slow CPU (§3.4).
//!
//! "The slow speed of the processor on the EON 4000 computer revealed a
//! problem ... the need to keep the pipeline full. If we use very large
//! buffers, the decompression on the ES has to wait for the entire
//! buffer to be delivered, then the decompression takes place and
//! finally the data are fed to the audio device ... If the buffers are
//! large, then time delays add up, resulting in skipped audio. By
//! reducing the buffer size, each of the stages on the ES finishes
//! faster and the audio stream is processed without problems."
//!
//! The reproduction sweeps the producer block size (one network packet
//! per VAD block) against the paper-era ES pipeline: single-threaded,
//! plays as soon as decoded, with only the audio device ring (a small
//! one, as on a 64 MB appliance) for buffering and the Geode paying for
//! every decode. Blocks that exceed the device ring overflow and skip;
//! small blocks flow cleanly.

use es_core::{ChannelSpec, Source, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_rebroadcast::CompressionPolicy;
use es_sim::{shared, SimCpu, SimDuration, SimTime};

use crate::calib;

/// Result of one block-size point.
#[derive(Debug)]
pub struct BufRun {
    /// Fraction of audio bytes lost (overflow at the device ring).
    pub loss_fraction: f64,
    /// Mean decode latency contribution per packet, in ms.
    pub decode_ms_per_packet: f64,
}

/// Speaker ring used in the sweep: ~93 ms of CD audio, the kind of
/// budget a 64 MB appliance dedicates to its audio ring.
pub const SPEAKER_RING: usize = 16_384;

/// Runs one block-size point for `seconds`.
pub fn run(block_ms: u64, seconds: u64, seed: u64) -> BufRun {
    let group = McastGroup(1);
    let cpu = shared(SimCpu::new(calib::GEODE_HZ, SimDuration::from_secs(1)));
    let spec = ChannelSpec::new(1, group, "stream")
        .source(Source::Music)
        .duration(SimDuration::from_secs(seconds + 2))
        .policy(CompressionPolicy::paper_default())
        .vad_block_ms(block_ms);
    let mut sys = SystemBuilder::new(seed)
        .channel(spec)
        .speaker(
            // The paper-era ES: plays as soon as decoded, its only
            // buffer the small device ring, decode billed to the Geode.
            SpeakerSpec::new("eon4000", group)
                .device_geometry(SPEAKER_RING, 50)
                .asap_playback()
                .cpu(cpu.clone()),
        )
        .build();
    sys.run_until(SimTime::from_secs(seconds));
    let spk = sys.speaker(0).expect("speaker");
    let st = spk.stats();
    let total_in = st.samples_played * 2 + st.dropped_overflow_bytes;
    let loss_fraction = if total_in == 0 {
        0.0
    } else {
        st.dropped_overflow_bytes as f64 / total_in as f64
    };
    let packets = st.data_packets.max(1);
    let decode_ms = {
        let cycles = es_sim::work_to_cycles(st.decode_work_units);
        cycles as f64 / calib::GEODE_HZ as f64 * 1_000.0 / packets as f64
    };
    BufRun {
        loss_fraction,
        decode_ms_per_packet: decode_ms,
    }
}

/// The producer block sizes of the sweep, in milliseconds.
pub const SWEEP_BLOCK_MS: [u64; 5] = [25, 50, 100, 250, 500];

/// One run per [`SWEEP_BLOCK_MS`] entry, in that order.
pub fn sweep(seconds: u64, seed: u64) -> Vec<BufRun> {
    SWEEP_BLOCK_MS
        .iter()
        .map(|&b| run(b, seconds, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_blocks_flow_large_blocks_skip() {
        let small = run(50, 8, 1);
        let large = run(500, 8, 1);
        println!("50 ms, seed 1, 8 s: {small:?}\n500 ms, seed 1, 8 s: {large:?}");
        assert!(
            small.loss_fraction < 0.01,
            "50 ms blocks must play cleanly: lost {}",
            small.loss_fraction
        );
        assert!(
            large.loss_fraction > 0.2,
            "500 ms blocks must skip audibly: lost {}",
            large.loss_fraction
        );
        assert!(large.decode_ms_per_packet > small.decode_ms_per_packet * 3.0);
    }

    #[test]
    fn loss_grows_monotonically_past_the_ring() {
        let sweep = sweep(6, 2);
        for (ms, r) in SWEEP_BLOCK_MS.iter().zip(&sweep) {
            println!("{ms} ms, seed 2, 6 s: {r:?}");
        }
        // Blocks under the ring budget (93 ms) are clean; above it the
        // loss fraction grows with block size.
        assert!(
            sweep[0].loss_fraction < 0.01,
            "25 ms: {}",
            sweep[0].loss_fraction
        );
        assert!(
            sweep[1].loss_fraction < 0.01,
            "50 ms: {}",
            sweep[1].loss_fraction
        );
        assert!(
            sweep[3].loss_fraction > 0.1,
            "250 ms: {}",
            sweep[3].loss_fraction
        );
        assert!(
            sweep[4].loss_fraction > sweep[3].loss_fraction,
            "500 ms must lose more than 250 ms"
        );
    }
}
