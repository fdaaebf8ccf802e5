//! A simulated sound card — the low-level driver with real (virtual)
//! hardware behind it.
//!
//! Models the DMA producer-consumer loop §3.1 describes: the card
//! consumes exactly one block per block-duration of real time, which is
//! what makes a conventional audio device "inherently rate limited".
//! Every consumed block is counted in an [`OutputTap`] with its
//! playback timestamp; the PCM itself is kept only as far back as the
//! tap's [`Retention`] says, so a speaker's memory does not grow with
//! the length of the stream unless an experiment asks to measure
//! exactly what came out of the speaker cone.

use std::collections::VecDeque;

use es_audio::convert::decode_samples_into;
use es_audio::AudioConfig;
use es_sim::{shared, Shared, Sim, SimDuration, SimTime};

use crate::device::{BlockSource, Intr, LowLevelDriver};

/// How far back an [`OutputTap`] keeps the PCM it played. Counts and
/// block times are always exact; this only bounds what the sample
/// accessors can answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// No PCM: the DMA loop never decodes or stores a block, and the
    /// tap is O(1) however long the stream runs.
    #[default]
    Nothing,
    /// Blocks that started within this long of the newest one.
    Recent(SimDuration),
    /// Every block ever played — memory grows with the stream.
    Everything,
}

/// One played block as the tap retains it.
#[derive(Debug)]
struct TapBlock {
    at: SimTime,
    cfg: AudioConfig,
    /// Flat index of `samples[0]` among everything ever played.
    first: usize,
    samples: Vec<i16>,
}

impl TapBlock {
    fn end(&self) -> SimTime {
        self.at + SimDuration::from_nanos(self.dur_ns())
    }

    fn frames(&self) -> usize {
        self.samples.len() / self.cfg.channels as usize
    }

    fn dur_ns(&self) -> u64 {
        self.cfg
            .nanos_for_bytes(self.frames() as u64 * self.cfg.bytes_per_frame() as u64)
    }
}

/// What the simulated DAC has played: how many samples and when,
/// plus the interleaved samples themselves as far back as the
/// tap's [`Retention`] reaches.
///
/// The sample accessors return `None` when the request reaches past
/// what was retained, so a reader on a non-capturing speaker fails
/// where it asks instead of seeing silence.
#[derive(Debug, Default)]
pub struct OutputTap {
    retention: Retention,
    /// Retained blocks, in playback order.
    blocks: VecDeque<TapBlock>,
    sample_count: usize,
    first_block_time: Option<SimTime>,
    last_block_time: Option<SimTime>,
    /// Start time of the newest block trimmed from `blocks`.
    dropped_through: Option<SimTime>,
}

impl OutputTap {
    /// An empty tap keeping PCM as far back as `retention`.
    pub fn new(retention: Retention) -> Self {
        OutputTap {
            retention,
            ..OutputTap::default()
        }
    }

    /// Counts one DMA block that started playing at `at` and keeps its
    /// samples if the retention asks for any. The default tap touches
    /// none of `block`'s bytes.
    fn record(&mut self, at: SimTime, cfg: AudioConfig, block: &[u8]) {
        let first = self.sample_count;
        self.sample_count += block.len() / cfg.encoding.bytes_per_sample() as usize;
        self.first_block_time.get_or_insert(at);
        self.last_block_time = Some(at);
        let keep_from = match self.retention {
            Retention::Nothing => return,
            Retention::Recent(horizon) => {
                SimTime::from_nanos(at.as_nanos().saturating_sub(horizon.as_nanos()))
            }
            Retention::Everything => SimTime::ZERO,
        };
        // Blocks that fell behind the horizon leave; the last one's
        // buffer is decoded into again, so a windowed tap stops
        // allocating once the window is full.
        let mut samples = Vec::new();
        while let Some(old) = self.blocks.pop_front_if(|b| b.at < keep_from) {
            self.dropped_through = Some(old.at);
            samples = old.samples;
        }
        decode_samples_into(block, cfg.encoding, &mut samples);
        self.blocks.push_back(TapBlock {
            at,
            cfg,
            first,
            samples,
        });
    }

    /// Whether every block that started at or after `start` is retained.
    fn covers(&self, start: SimTime) -> bool {
        self.retention != Retention::Nothing && self.dropped_through.is_none_or(|t| t < start)
    }

    /// Number of interleaved samples played.
    pub fn sample_count(&self) -> usize {
        self.sample_count
    }

    /// Number of interleaved samples currently held in memory.
    pub fn retained_samples(&self) -> usize {
        self.blocks.iter().map(|b| b.samples.len()).sum()
    }

    /// Playback start time of the first block, if anything played.
    pub fn first_block_time(&self) -> Option<SimTime> {
        self.first_block_time
    }

    /// Playback start time of the newest block, if anything played.
    pub fn last_block_time(&self) -> Option<SimTime> {
        self.last_block_time
    }

    /// All samples played, flattened in playback order — `None` unless
    /// every block is still retained.
    pub fn samples(&self) -> Option<Vec<i16>> {
        self.samples_since(SimTime::ZERO)
    }

    /// Samples of the blocks that started at `start` or later — `None`
    /// if any of those blocks is no longer retained.
    pub fn samples_since(&self, start: SimTime) -> Option<Vec<i16>> {
        if !self.covers(start) {
            return None;
        }
        // Blocks are pushed in playback order, so the tail that
        // qualifies starts at a binary-searchable point.
        let first = self.blocks.partition_point(|b| b.at < start);
        let mut out = Vec::new();
        for b in self.blocks.iter().skip(first) {
            out.extend_from_slice(&b.samples);
        }
        Some(out)
    }

    /// The interleaved sample that was playing at `at`, located by
    /// block timestamps and per-frame interpolation of the offset.
    /// Returns the flat index among everything ever played — `None` if
    /// nothing was playing then or that block is no longer retained.
    pub fn sample_index_at(&self, at: SimTime) -> Option<usize> {
        // Playback order makes block ends binary-searchable too: the
        // first block still playing at `at` is the only candidate.
        let playing = self.blocks.partition_point(|b| b.end() <= at);
        let b = self.blocks.get(playing)?;
        if at < b.at {
            return None;
        }
        let into = at.saturating_since(b.at).as_nanos() as u128;
        let frame = (into * b.frames() as u128 / b.dur_ns().max(1) as u128) as usize;
        Some(b.first + frame * b.cfg.channels as usize)
    }

    /// Up to `len` samples from flat index `idx` on (fewer if playback
    /// has not got that far) — `None` if `idx` has not played yet or is
    /// no longer retained.
    pub fn window(&self, idx: usize, len: usize) -> Option<Vec<i16>> {
        if idx >= self.sample_count {
            return None;
        }
        let holder = self
            .blocks
            .partition_point(|b| b.first <= idx)
            .checked_sub(1)?;
        let mut skip = idx - self.blocks.get(holder)?.first;
        let mut out = Vec::with_capacity(len);
        for b in self.blocks.iter().skip(holder) {
            let rest = b.samples.get(skip..)?;
            out.extend_from_slice(rest.get(..len - out.len()).unwrap_or(rest));
            skip = 0;
            if out.len() == len {
                break;
            }
        }
        Some(out)
    }
}

/// Consecutive all-silence blocks after which the card stops its DMA
/// engine until new data arrives (real drivers do the same to avoid
/// spinning on an empty ring; restart is the modelled
/// `audio_start_output`).
const IDLE_BLOCKS_BEFORE_PAUSE: u32 = 2;

struct HwState {
    running: bool,
    paused: bool,
    idle_blocks: u32,
    src: Option<BlockSource>,
    intr: Option<Intr>,
    tap: Shared<OutputTap>,
    /// When the next DMA block will leave for the DAC — the earliest
    /// instant newly written audio can start playing while the engine
    /// runs (writes land block-quantized on this grid).
    next_boundary: SimTime,
    /// Bumped on every `trigger_output` so a completion event from a
    /// halted engine cannot resurrect its loop after a re-trigger.
    epoch: u64,
}

/// The low-level driver for the simulated card.
pub struct HwDriver {
    state: Shared<HwState>,
}

impl HwDriver {
    /// Creates a card whose output tap keeps PCM as far back as
    /// `retention`; returns the driver and the tap.
    pub fn new(retention: Retention) -> (Self, Shared<OutputTap>) {
        let tap = shared(OutputTap::new(retention));
        (
            HwDriver {
                state: shared(HwState {
                    running: false,
                    paused: false,
                    idle_blocks: 0,
                    src: None,
                    intr: None,
                    tap: tap.clone(),
                    next_boundary: SimTime::ZERO,
                    epoch: 0,
                }),
            },
            tap,
        )
    }

    fn schedule_dma(state: Shared<HwState>, sim: &mut Sim) {
        // One block leaves for the DAC now; the completion interrupt
        // fires one block-duration later, when the DAC needs the next.
        // What leaves is a handle: the default tap reads its length.
        let (dur, epoch) = {
            let mut st = state.borrow_mut();
            if !st.running || st.paused {
                return;
            }
            let epoch = st.epoch;
            let src = st.src.clone().expect("running implies triggered");
            let cfg = match src.config() {
                Some(c) => c,
                None => return, // Device destroyed.
            };
            let dur = src.block_duration();
            // A sustained underrun stops the engine; it restarts via
            // block_ready when the writer returns.
            if src.buffered_bytes() == 0 {
                st.idle_blocks += 1;
                if st.idle_blocks > IDLE_BLOCKS_BEFORE_PAUSE {
                    st.paused = true;
                    return;
                }
            } else {
                st.idle_blocks = 0;
            }
            // Hardware must always be fed: silence-fill on underrun.
            let Some(block) = src.take_block(true) else {
                return;
            };
            st.tap.borrow_mut().record(sim.now(), cfg, &block);
            st.next_boundary = sim.now() + dur;
            (dur, epoch)
        };
        let state2 = state.clone();
        sim.schedule_in(dur, move |sim| {
            {
                let st = state2.borrow();
                if !st.running || st.epoch != epoch {
                    return;
                }
            }
            let intr = state2.borrow().intr.clone();
            if let Some(intr) = intr {
                intr(sim);
            }
            Self::schedule_dma(state2, sim);
        });
    }
}

impl LowLevelDriver for HwDriver {
    fn set_params(&mut self, _sim: &mut Sim, _cfg: &AudioConfig) {
        // Geometry is read from the BlockSource on each DMA cycle, so
        // nothing to cache here.
    }

    fn trigger_output(&mut self, sim: &mut Sim, src: BlockSource, intr: Intr) {
        {
            let mut st = self.state.borrow_mut();
            st.running = true;
            st.paused = false;
            st.idle_blocks = 0;
            st.src = Some(src);
            st.intr = Some(intr);
            st.epoch += 1;
        }
        Self::schedule_dma(self.state.clone(), sim);
    }

    fn halt_output(&mut self, _sim: &mut Sim) {
        let mut st = self.state.borrow_mut();
        st.running = false;
        st.paused = false;
        st.src = None;
        st.intr = None;
    }

    fn next_block_start(&self, now: SimTime) -> Option<SimTime> {
        let st = self.state.borrow();
        if st.running && !st.paused && st.next_boundary > now {
            Some(st.next_boundary)
        } else {
            // Idle, paused, or at a boundary instant: a write starts
            // (or restarts) the engine immediately.
            None
        }
    }

    fn block_ready(&mut self, sim: &mut Sim) {
        // The modelled `audio_start_output`: a paused engine restarts
        // when the writer delivers a fresh block.
        let restart = {
            let mut st = self.state.borrow_mut();
            if st.running && st.paused {
                st.paused = false;
                st.idle_blocks = 0;
                true
            } else {
                false
            }
        };
        if restart {
            Self::schedule_dma(self.state.clone(), sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AudioDevice;
    use es_audio::convert::encode_samples;
    use es_audio::Encoding;
    use es_sim::{SimDuration, SimTime};
    use std::rc::Rc;

    fn hw_device(
        retention: Retention,
    ) -> (
        AudioDevice,
        Shared<OutputTap>,
        Rc<std::cell::RefCell<HwDriver>>,
    ) {
        let (drv, tap) = HwDriver::new(retention);
        let drv = Rc::new(std::cell::RefCell::new(drv));
        let dev = AudioDevice::new(drv.clone());
        (dev, tap, drv)
    }

    #[test]
    fn hardware_is_rate_limited() {
        // §3.1: "If a five second audio clip is sent to the sound
        // device then it will take five seconds ... to play".
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device(Retention::Everything);
        dev.open().unwrap();
        let cfg = dev.config();
        let five_secs = (cfg.bytes_per_second() * 5) as usize;
        let data = encode_samples(&vec![100i16; five_secs / 2], Encoding::Slinear16Le);
        // Feed the device as fast as it will accept (writer retry loop).
        let mut offset = 0usize;
        while offset < data.len() {
            let n = dev.write(&mut sim, &data[offset..]).unwrap();
            offset += n;
            if n == 0 {
                // Ring full: run until an interrupt frees space.
                let before = dev.stats().interrupts;
                while dev.stats().interrupts == before && sim.step() {}
            }
        }
        sim.run();
        // All blocks played; last block starts at ~5s minus one block.
        // 100 data blocks; anything after index 99 is idle-pause silence.
        let t_last = tap.borrow().blocks[99].at;
        let expected = SimTime::from_secs(5) - SimDuration::from_millis(50);
        let err_ms = (t_last.as_millis() as i64 - expected.as_millis() as i64).abs();
        assert!(err_ms <= 50, "last block at {t_last}, expected ~{expected}");
    }

    #[test]
    fn playback_preserves_samples() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device(Retention::Everything);
        dev.open().unwrap();
        let samples: Vec<i16> = (0..8_820i32).map(|i| (i % 3_000) as i16).collect();
        let data = encode_samples(&samples, Encoding::Slinear16Le);
        let mut offset = 0;
        while offset < data.len() {
            let n = dev.write(&mut sim, &data[offset..]).unwrap();
            offset += n;
            if n == 0 {
                sim.step();
            }
        }
        sim.run();
        let played = tap.borrow().samples().expect("capturing tap");
        // Played data starts with our samples; a final partial block is
        // padded with silence.
        assert!(played.len() >= samples.len());
        assert_eq!(&played[..samples.len()], &samples[..]);
        assert!(played[samples.len()..].iter().all(|&s| s == 0));
    }

    #[test]
    fn underrun_inserts_silence_and_counts() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device(Retention::Nothing);
        dev.open().unwrap();
        // One and a half blocks of data, then nothing: playback outruns
        // the writer and pads with silence.
        let blk = dev.blocksize();
        dev.write(&mut sim, &vec![1u8; blk + blk / 2]).unwrap();
        sim.run_for(SimDuration::from_millis(200));
        assert!(dev.stats().underruns >= 1);
        assert!(dev.stats().silence_bytes > 0);
        // At least two blocks of `blk` bytes, two bytes a sample.
        assert!(tap.borrow().sample_count() >= blk);
    }

    #[test]
    fn halt_stops_the_dma_loop() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device(Retention::Nothing);
        dev.open().unwrap();
        dev.write(&mut sim, &vec![1u8; 20_000]).unwrap();
        sim.run_for(SimDuration::from_millis(60));
        dev.close(&mut sim);
        let played = tap.borrow().sample_count();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(tap.borrow().sample_count(), played, "no blocks after halt");
    }

    /// 10 000 two-sample blocks 50 ms apart, every seventh sharing its
    /// predecessor's instant (a restart re-triggers DMA at the same
    /// `now`): `(start, samples)` per block, recorded into `tap`.
    fn feed_10k(tap: &mut OutputTap) -> Vec<(SimTime, Vec<i16>)> {
        // 40 Hz mono: a two-sample block lasts exactly its 50 ms slot,
        // so blocks abut as real DMA blocks do.
        let cfg = AudioConfig {
            sample_rate: 40,
            channels: 1,
            ..AudioConfig::CD
        };
        (0..10_000u64)
            .map(|i| {
                let slot = if i % 7 == 6 { i - 1 } else { i };
                let t = SimTime::from_millis(slot * 50);
                let samples = vec![i as i16, (i >> 3) as i16];
                tap.record(t, cfg, &encode_samples(&samples, cfg.encoding));
                (t, samples)
            })
            .collect()
    }

    #[test]
    fn capturing_tap_agrees_with_a_linear_scan() {
        let mut tap = OutputTap::new(Retention::Everything);
        let model = feed_10k(&mut tap);
        let since = |start: SimTime| -> Vec<i16> {
            let mut out = Vec::new();
            for (t, s) in &model {
                if *t >= start {
                    out.extend_from_slice(s);
                }
            }
            out
        };
        // The first block still playing at `at`, by walking all of them.
        let index_at = |at: SimTime| -> Option<usize> {
            let dur = SimDuration::from_millis(50);
            let i = model.iter().position(|(t, _)| at >= *t && at < *t + dur)?;
            Some(i * 2 + (at.saturating_since(model[i].0).as_millis() / 25) as usize)
        };
        for ms in [0, 1, 50, 299, 300, 301, 324, 325, 250_000, 499_950, 499_999] {
            let at = SimTime::from_millis(ms);
            assert_eq!(tap.samples_since(at), Some(since(at)), "since {at}");
            assert_eq!(tap.sample_index_at(at), index_at(at), "index at {at}");
        }
        let all = since(SimTime::ZERO);
        assert_eq!(all.len(), 20_000);
        assert_eq!(tap.samples().as_ref(), Some(&all));
        assert_eq!(tap.samples_since(SimTime::from_secs(900)), Some(vec![]));
        assert_eq!(tap.sample_index_at(SimTime::from_secs(900)), None);
        for (idx, len) in [(0, 1), (0, 20_000), (7, 5), (13_999, 4_001), (19_999, 9)] {
            let want = &all[idx..(idx + len).min(all.len())];
            assert_eq!(tap.window(idx, len).as_deref(), Some(want), "{idx}+{len}");
        }
        assert_eq!(tap.window(20_000, 1), None, "not played yet");
        assert_eq!(tap.retained_samples(), 20_000);
    }

    #[test]
    fn default_tap_counts_everything_and_keeps_nothing() {
        let mut tap = OutputTap::default();
        let model = feed_10k(&mut tap);
        assert_eq!(tap.sample_count(), 20_000);
        assert_eq!(tap.first_block_time(), Some(model[0].0));
        assert_eq!(tap.last_block_time(), Some(model[9_999].0));
        assert_eq!(tap.retained_samples(), 0);
        // A reader fails where it asks; it is never handed silence.
        assert_eq!(tap.samples(), None);
        assert_eq!(tap.samples_since(SimTime::from_secs(900)), None);
        assert_eq!(tap.sample_index_at(SimTime::from_millis(300)), None);
        assert_eq!(tap.window(0, 1), None);
        assert!(tap.blocks.is_empty());
    }

    #[test]
    fn recent_tap_holds_its_horizon_plus_one_block() {
        let horizon = SimDuration::from_millis(250);
        let mut tap = OutputTap::new(Retention::Recent(horizon));
        let mut full = OutputTap::new(Retention::Everything);
        let cfg = AudioConfig::CD;
        let block = vec![0u8; cfg.bytes_for_nanos(50_000_000) as usize];
        let per_block = block.len() / 2;
        for i in 0..10_000u64 {
            let now = SimTime::from_millis(i * 50);
            tap.record(now, cfg, &block);
            full.record(now, cfg, &block);
            // 250 ms of 50 ms blocks, plus the one that just started.
            assert!(tap.retained_samples() <= 6 * per_block, "block {i}");
            // What auto-volume asks for is always there, and is what a
            // full capture would have answered.
            let from = SimTime::from_nanos(now.as_nanos().saturating_sub(horizon.as_nanos()));
            let recent = tap.samples_since(from).expect("inside the horizon");
            assert_eq!(Some(recent), full.samples_since(from));
        }
        assert_eq!(tap.retained_samples(), 6 * per_block);
        assert_eq!(tap.sample_count(), full.sample_count());
        // Blocks 9 994–9 999 are kept, 9 993 is trimmed.
        assert_eq!(tap.blocks.len(), 6);
        assert_eq!(tap.blocks[0].at, full.blocks[9_994].at);
        assert_eq!(tap.samples(), None, "the start is long gone");
        assert_eq!(tap.samples_since(SimTime::from_millis(499_600)), None);
        let idx = tap.sample_index_at(SimTime::from_millis(499_900)).unwrap();
        assert_eq!(
            Some(idx),
            full.sample_index_at(SimTime::from_millis(499_900))
        );
        assert_eq!(tap.window(idx, 100), full.window(idx, 100));
    }

    #[test]
    fn tap_sample_index_maps_time() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device(Retention::Everything);
        dev.open().unwrap();
        dev.write(&mut sim, &vec![1u8; 8_820 * 2]).unwrap();
        sim.run();
        let tap = tap.borrow();
        let t0 = tap.first_block_time().unwrap();
        assert_eq!(tap.sample_index_at(t0), Some(0));
        // 25 ms into a 44.1 kHz stereo stream = frame 1102 (x2 channels).
        let idx = tap
            .sample_index_at(t0 + SimDuration::from_millis(25))
            .unwrap();
        assert_eq!(idx, 1_102 * 2);
        assert_eq!(tap.sample_index_at(SimTime::from_secs(100)), None);
    }
}
