//! A simulated sound card — the low-level driver with real (virtual)
//! hardware behind it.
//!
//! Models the DMA producer-consumer loop §3.1 describes: the card
//! consumes exactly one block per block-duration of real time, which is
//! what makes a conventional audio device "inherently rate limited".
//! Every consumed block is decoded and appended to an [`OutputTap`]
//! with its playback timestamp, so experiments can measure exactly what
//! came out of the speaker cone and when.

use es_audio::convert::decode_samples;
use es_audio::AudioConfig;
use es_sim::{shared, Shared, Sim, SimTime};

use crate::device::{BlockSource, Intr, LowLevelDriver};

/// A wake hook invoked on every hardware interrupt, used to feed the
/// context-switch accounting model (Figure 5).
pub type WakeHook = Box<dyn FnMut(&mut Sim)>;

/// Everything the simulated DAC has played: interleaved samples plus
/// per-block start timestamps.
#[derive(Debug, Default)]
pub struct OutputTap {
    blocks: Vec<(SimTime, AudioConfig, Vec<i16>)>,
}

impl OutputTap {
    /// All samples played, flattened in playback order.
    pub fn samples(&self) -> Vec<i16> {
        let mut out = Vec::new();
        for (_, _, s) in &self.blocks {
            out.extend_from_slice(s);
        }
        out
    }

    /// Number of blocks played.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Playback start time of the first block, if anything played.
    pub fn first_block_time(&self) -> Option<SimTime> {
        self.blocks.first().map(|&(t, _, _)| t)
    }

    /// Playback start time of block `i`.
    pub fn block_time(&self, i: usize) -> Option<SimTime> {
        self.blocks.get(i).map(|&(t, _, _)| t)
    }

    /// Samples played from `start` (inclusive) onward, by wall time.
    pub fn samples_since(&self, start: SimTime) -> Vec<i16> {
        // Blocks are pushed in playback order, so the tail that
        // qualifies starts at a binary-searchable point.
        let first = self.blocks.partition_point(|(t, _, _)| *t < start);
        let mut out = Vec::new();
        for (_, _, s) in self.blocks.iter().skip(first) {
            out.extend_from_slice(s);
        }
        out
    }

    /// The interleaved samples that were playing at `at`, located by
    /// block timestamps and per-frame interpolation of the offset.
    /// Returns the flat sample index.
    pub fn sample_index_at(&self, at: SimTime) -> Option<usize> {
        let mut base = 0usize;
        for (t, cfg, s) in &self.blocks {
            let frames = s.len() / cfg.channels as usize;
            let dur_ns = cfg.nanos_for_bytes(frames as u64 * cfg.bytes_per_frame() as u64);
            let end = *t + es_sim::SimDuration::from_nanos(dur_ns);
            if at >= *t && at < end {
                let into = at.saturating_since(*t).as_nanos() as u128;
                let frame = (into * frames as u128 / dur_ns.max(1) as u128) as usize;
                return Some(base + frame * cfg.channels as usize);
            }
            base += s.len();
        }
        None
    }
}

/// Consecutive all-silence blocks after which the card stops its DMA
/// engine until new data arrives (real drivers do the same to avoid
/// spinning on an empty ring; restart is the modelled
/// `audio_start_output`).
pub const IDLE_BLOCKS_BEFORE_PAUSE: u32 = 2;

struct HwState {
    running: bool,
    paused: bool,
    idle_blocks: u32,
    src: Option<BlockSource>,
    intr: Option<Intr>,
    tap: Shared<OutputTap>,
    wake_hook: Option<WakeHook>,
    blocks_played: u64,
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
    /// Creates a card; returns the driver and the output tap.
    pub fn new() -> (Self, Shared<OutputTap>) {
        let tap = shared(OutputTap::default());
        (
            HwDriver {
                state: shared(HwState {
                    running: false,
                    paused: false,
                    idle_blocks: 0,
                    src: None,
                    intr: None,
                    tap: tap.clone(),
                    wake_hook: None,
                    blocks_played: 0,
                    next_boundary: SimTime::ZERO,
                    epoch: 0,
                }),
            },
            tap,
        )
    }

    /// Installs a hook fired at every DMA-completion interrupt.
    pub fn set_wake_hook(&self, hook: WakeHook) {
        self.state.borrow_mut().wake_hook = Some(hook);
    }

    /// Blocks played so far.
    pub fn blocks_played(&self) -> u64 {
        self.state.borrow().blocks_played
    }

    fn schedule_dma(state: Shared<HwState>, sim: &mut Sim) {
        // One block leaves for the DAC now; the completion interrupt
        // fires one block-duration later, when the DAC needs the next.
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
            let samples = decode_samples(&block, cfg.encoding);
            st.tap.borrow_mut().blocks.push((sim.now(), cfg, samples));
            st.blocks_played += 1;
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
            // Fire the wake hook (context-switch accounting) with the
            // hook taken out of the cell so it may borrow state itself.
            let hook = state2.borrow_mut().wake_hook.take();
            if let Some(mut h) = hook {
                h(sim);
                let mut st = state2.borrow_mut();
                if st.wake_hook.is_none() {
                    st.wake_hook = Some(h);
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
    fn name(&self) -> &'static str {
        "hw-sim"
    }

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

    fn wants_block_ready_calls(&self) -> bool {
        true
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

    fn hw_device() -> (
        AudioDevice,
        Shared<OutputTap>,
        Rc<std::cell::RefCell<HwDriver>>,
    ) {
        let (drv, tap) = HwDriver::new();
        let drv = Rc::new(std::cell::RefCell::new(drv));
        let dev = AudioDevice::new(drv.clone());
        (dev, tap, drv)
    }

    #[test]
    fn hardware_is_rate_limited() {
        // §3.1: "If a five second audio clip is sent to the sound
        // device then it will take five seconds ... to play".
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device();
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
        let t_last = tap.borrow().block_time(99).unwrap();
        let expected = SimTime::from_secs(5) - SimDuration::from_millis(50);
        let err_ms = (t_last.as_millis() as i64 - expected.as_millis() as i64).abs();
        assert!(err_ms <= 50, "last block at {t_last}, expected ~{expected}");
    }

    #[test]
    fn playback_preserves_samples() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device();
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
        let played = tap.borrow().samples();
        // Played data starts with our samples; a final partial block is
        // padded with silence.
        assert!(played.len() >= samples.len());
        assert_eq!(&played[..samples.len()], &samples[..]);
        assert!(played[samples.len()..].iter().all(|&s| s == 0));
    }

    #[test]
    fn underrun_inserts_silence_and_counts() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device();
        dev.open().unwrap();
        // One and a half blocks of data, then nothing: playback outruns
        // the writer and pads with silence.
        let blk = dev.blocksize();
        dev.write(&mut sim, &vec![1u8; blk + blk / 2]).unwrap();
        sim.run_for(SimDuration::from_millis(200));
        assert!(dev.stats().underruns >= 1);
        assert!(dev.stats().silence_bytes > 0);
        assert!(tap.borrow().block_count() >= 2);
    }

    #[test]
    fn halt_stops_the_dma_loop() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device();
        dev.open().unwrap();
        dev.write(&mut sim, &vec![1u8; 20_000]).unwrap();
        sim.run_for(SimDuration::from_millis(60));
        dev.close(&mut sim);
        let played = tap.borrow().block_count();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(tap.borrow().block_count(), played, "no blocks after halt");
    }

    #[test]
    fn wake_hook_fires_per_interrupt() {
        let mut sim = Sim::new(1);
        let (drv, _tap) = HwDriver::new();
        let count = Rc::new(std::cell::Cell::new(0u32));
        let c = count.clone();
        drv.set_wake_hook(Box::new(move |_| c.set(c.get() + 1)));
        let drv = Rc::new(std::cell::RefCell::new(drv));
        let dev = AudioDevice::new(drv.clone());
        dev.open().unwrap();
        dev.write(&mut sim, &vec![1u8; 8_820 * 3]).unwrap();
        sim.run_for(SimDuration::from_millis(170));
        assert!(count.get() >= 3, "hook fired {} times", count.get());
    }

    #[test]
    fn samples_since_agrees_with_a_linear_scan() {
        // 10 000 blocks 50 ms apart, every seventh sharing its
        // predecessor's instant (a restart re-triggers DMA at the same
        // `now`).
        let mut tap = OutputTap::default();
        for i in 0..10_000u64 {
            let slot = if i % 7 == 6 { i - 1 } else { i };
            let t = SimTime::from_millis(slot * 50);
            tap.blocks
                .push((t, AudioConfig::CD, vec![i as i16, (i >> 3) as i16]));
        }
        let linear = |start: SimTime| -> Vec<i16> {
            let mut out = Vec::new();
            for (t, _, s) in &tap.blocks {
                if *t >= start {
                    out.extend_from_slice(s);
                }
            }
            out
        };
        for start_ms in [0, 1, 50, 299, 300, 301, 250_000, 499_950, 499_951, 900_000] {
            let start = SimTime::from_millis(start_ms);
            assert_eq!(tap.samples_since(start), linear(start), "from {start}");
        }
        assert_eq!(tap.samples_since(SimTime::ZERO).len(), 20_000);
        assert!(tap.samples_since(SimTime::from_secs(900)).is_empty());
    }

    #[test]
    fn tap_sample_index_maps_time() {
        let mut sim = Sim::new(1);
        let (dev, tap, _) = hw_device();
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
