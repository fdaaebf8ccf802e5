//! The hardware-independent audio driver and the `audio(9)` contract.
//!
//! OpenBSD's audio stack is two-level (§2.1.1): one hardware-independent
//! high-level driver owns the ring buffer and the userland interface
//! (`open`/`ioctl`/`write`); per-card low-level drivers implement the
//! `audio(9)` contract. The contract's crucial quirk (§3.3): the high
//! level invokes the low level's `trigger_output` *only for the first
//! block*, then expects the hardware interrupt to keep the transfer
//! going — "the hardware specific driver is essentially out of the
//! picture". A pseudo-device with no hardware must fake that interrupt,
//! which is exactly the problem the VAD solves twice (kernel thread vs.
//! reader-driven).

use std::rc::{Rc, Weak};

use es_audio::{AudioConfig, ConfigError};
use es_sim::{shared, Shared, Sim, SimDuration, SimTime};

use crate::ring::{AudioRing, Block};

/// Default ring capacity, matching OpenBSD's 64 KiB `AU_RING_SIZE`.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Default audio block length in milliseconds (OpenBSD aims for blocks
/// in this range; §3.4 shows why the ES must be able to shrink it).
pub const DEFAULT_BLOCK_MS: u64 = 50;

/// Errors surfaced by the `audio(4)`-style interface.
#[derive(Debug)]
pub enum DevError {
    /// Device not open.
    NotOpen,
    /// Device already open (exclusive-open semantics).
    Busy,
    /// Rejected configuration.
    BadConfig(ConfigError),
}

impl core::fmt::Display for DevError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DevError::NotOpen => f.write_str("device not open"),
            DevError::Busy => f.write_str("device already open"),
            DevError::BadConfig(e) => write!(f, "bad configuration: {e}"),
        }
    }
}

impl std::error::Error for DevError {}

impl From<ConfigError> for DevError {
    fn from(e: ConfigError) -> Self {
        DevError::BadConfig(e)
    }
}

/// `ioctl(2)` requests the slave device understands — the subset of
/// `audio(4)` the Ethernet Speaker path exercises.
#[derive(Debug, Clone, Copy)]
pub enum Ioctl {
    /// `AUDIO_SETINFO`: reconfigure the stream.
    SetInfo(AudioConfig),
    /// `AUDIO_FLUSH`: discard buffered data.
    Flush,
}

/// The interrupt routine the high-level driver hands to the low-level
/// driver: "called every time a transfer is completed" (§3.3).
pub type Intr = Rc<dyn Fn(&mut Sim)>;

/// A parked thread waiting to be woken (blocking read/write analogue).
pub type Waiter = Box<dyn FnOnce(&mut Sim)>;

/// The low-level (`audio(9)`) driver contract.
pub trait LowLevelDriver {
    /// Driver name for diagnostics.
    fn name(&self) -> &'static str;

    /// Applies new stream parameters.
    fn set_params(&mut self, sim: &mut Sim, cfg: &AudioConfig);

    /// Called once when the first block of data is ready. The driver
    /// must arrange for blocks to keep flowing (DMA loop, kernel
    /// thread, or reader pulls) and must call `intr` after consuming
    /// each block.
    fn trigger_output(&mut self, sim: &mut Sim, src: BlockSource, intr: Intr);

    /// Stops output (device close).
    fn halt_output(&mut self, sim: &mut Sim);

    /// Whether the high level should call [`LowLevelDriver::block_ready`]
    /// on every completed block after triggering. Real hardware never
    /// needs this; the master-driven VAD design is implemented as this
    /// "modification of the independent audio driver" (§3.3).
    fn wants_block_ready_calls(&self) -> bool {
        false
    }

    /// The instant the next DMA block will start playing, if the
    /// engine is running and that instant is after `now`. `None` means
    /// newly written audio starts immediately (engine idle, paused, or
    /// at a block boundary). Drivers without a modelled DMA grid keep
    /// the default.
    fn next_block_start(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Per-block notification, only delivered when
    /// [`LowLevelDriver::wants_block_ready_calls`] returns true.
    fn block_ready(&mut self, _sim: &mut Sim) {}
}

struct DevInner {
    config: AudioConfig,
    ring: AudioRing,
    open: bool,
    triggered: bool,
    block_ms: u64,
    write_waiters: Vec<Waiter>,
    intr_count: u64,
}

impl DevInner {
    fn recompute_blocksize(&mut self) {
        let bytes = self
            .config
            .bytes_for_nanos(self.block_ms * 1_000_000)
            .max(self.config.bytes_per_frame() as u64) as usize;
        let bytes = bytes.min(self.ring.capacity() / 2);
        self.ring
            .set_blocksize(bytes.max(self.config.bytes_per_frame() as usize));
    }
}

/// Handle a low-level driver uses to pull blocks out of the high-level
/// ring (the modelled equivalent of the DMA descriptor the high level
/// points at its ring).
#[derive(Clone)]
pub struct BlockSource {
    inner: Weak<std::cell::RefCell<DevInner>>,
}

impl BlockSource {
    /// Takes one block; see [`AudioRing::take_block`] for the silence
    /// semantics. Returns `None` once the device is gone.
    pub fn take_block(&self, fill_silence: bool) -> Option<Block> {
        let inner = self.inner.upgrade()?;
        let mut inner = inner.borrow_mut();
        inner.ring.take_block(fill_silence)
    }

    /// True if a full block is buffered.
    pub fn has_block(&self) -> bool {
        self.inner
            .upgrade()
            .is_some_and(|i| i.borrow().ring.has_block())
    }

    /// Bytes currently buffered (possibly less than a block).
    pub fn buffered_bytes(&self) -> usize {
        self.inner.upgrade().map_or(0, |i| i.borrow().ring.used())
    }

    /// The stream configuration at this instant.
    pub fn config(&self) -> Option<AudioConfig> {
        self.inner.upgrade().map(|i| i.borrow().config)
    }

    /// Current block size in bytes.
    pub fn blocksize(&self) -> usize {
        self.inner
            .upgrade()
            .map_or(0, |i| i.borrow().ring.blocksize())
    }

    /// Real-time duration of one block at the current configuration.
    pub fn block_duration(&self) -> SimDuration {
        match self.inner.upgrade() {
            Some(i) => {
                let inner = i.borrow();
                SimDuration::from_nanos(inner.config.nanos_for_bytes(inner.ring.blocksize() as u64))
            }
            None => SimDuration::ZERO,
        }
    }
}

/// Playback statistics mirrored from the ring.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevStats {
    /// Bytes accepted from the application.
    pub bytes_written: u64,
    /// Bytes consumed by the low-level driver.
    pub bytes_consumed: u64,
    /// Underruns (silence-padded blocks).
    pub underruns: u64,
    /// Silence bytes inserted.
    pub silence_bytes: u64,
    /// Interrupt-routine invocations.
    pub interrupts: u64,
    /// Bytes currently buffered in the ring (occupancy at snapshot
    /// time).
    pub ring_occupancy: usize,
}

impl es_telemetry::Telemetry for DevStats {
    fn record(&self, registry: &mut es_telemetry::Registry) {
        let mut s = registry.component("vad");
        s.counter("dev_bytes_written", self.bytes_written)
            .counter("dev_bytes_consumed", self.bytes_consumed)
            .counter("underruns", self.underruns)
            .counter("silence_bytes", self.silence_bytes)
            .counter("interrupts", self.interrupts)
            .gauge("ring_occupancy_bytes", self.ring_occupancy as f64);
    }
}

/// The high-level audio device — the `/dev/audio` an application opens.
///
/// One instance wraps one low-level driver; constructing one with
/// [`crate::hw::HwDriver`] models a real sound card, with
/// [`crate::vad::VadSlaveDriver`] the slave half of the VAD.
pub struct AudioDevice {
    inner: Rc<std::cell::RefCell<DevInner>>,
    low: Shared<dyn LowLevelDriver>,
}

impl AudioDevice {
    /// Creates a device over `low` with default ring geometry.
    pub fn new(low: Shared<dyn LowLevelDriver>) -> Self {
        Self::with_geometry(low, DEFAULT_RING_CAPACITY, DEFAULT_BLOCK_MS)
    }

    /// Creates a device with explicit ring capacity and target block
    /// length (§3.4's tunable).
    pub fn with_geometry(
        low: Shared<dyn LowLevelDriver>,
        ring_capacity: usize,
        block_ms: u64,
    ) -> Self {
        let config = AudioConfig::default();
        let mut inner = DevInner {
            config,
            ring: AudioRing::new(ring_capacity, 4),
            open: false,
            triggered: false,
            block_ms,
            write_waiters: Vec::new(),
            intr_count: 0,
        };
        inner.recompute_blocksize();
        AudioDevice {
            inner: Rc::new(std::cell::RefCell::new(inner)),
            low,
        }
    }

    /// Opens the device (exclusive).
    pub fn open(&self) -> Result<(), DevError> {
        let mut inner = self.inner.borrow_mut();
        if inner.open {
            return Err(DevError::Busy);
        }
        inner.open = true;
        Ok(())
    }

    /// Closes the device and halts output.
    pub fn close(&self, sim: &mut Sim) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.open = false;
            inner.triggered = false;
            inner.ring.flush();
            inner.write_waiters.clear();
        }
        self.low.borrow_mut().halt_output(sim);
    }

    /// True if open.
    pub fn is_open(&self) -> bool {
        self.inner.borrow().open
    }

    /// The current configuration.
    pub fn config(&self) -> AudioConfig {
        self.inner.borrow().config
    }

    /// Issues an ioctl.
    pub fn ioctl(&self, sim: &mut Sim, req: Ioctl) -> Result<(), DevError> {
        if !self.inner.borrow().open {
            return Err(DevError::NotOpen);
        }
        match req {
            Ioctl::SetInfo(cfg) => {
                cfg.validate()?;
                // The low level drains pending data first (under the
                // old block geometry) so the master sees old-format
                // audio strictly before the new configuration (§2.1.2).
                self.low.borrow_mut().set_params(sim, &cfg);
                let mut inner = self.inner.borrow_mut();
                inner.config = cfg;
                inner.recompute_blocksize();
                Ok(())
            }
            Ioctl::Flush => {
                self.inner.borrow_mut().ring.flush();
                Ok(())
            }
        }
    }

    /// Writes audio data; returns the number of bytes accepted (short
    /// writes mean the ring is full — register [`AudioDevice::on_writable`]
    /// and retry, the event-driven analogue of a blocking `write(2)`).
    pub fn write(&self, sim: &mut Sim, data: &[u8]) -> Result<usize, DevError> {
        self.write_with(sim, |ring| ring.write(data))
    }

    // es-hot-path
    /// [`AudioDevice::write`] for a writer that shares its buffer
    /// instead of lending it: offers `buf[from..]`, of which the ring
    /// keeps a handle, not a copy (see [`AudioRing::write_shared`]).
    pub fn write_shared(
        &self,
        sim: &mut Sim,
        buf: &Rc<Vec<u8>>,
        from: usize,
    ) -> Result<usize, DevError> {
        self.write_with(sim, |ring| ring.write_shared(buf, from))
    }

    /// Puts data in the ring with `put` and tells the low-level driver
    /// what that completed: the first block triggers output, later ones
    /// are announced if the driver asked for that.
    fn write_with(
        &self,
        sim: &mut Sim,
        put: impl FnOnce(&mut AudioRing) -> usize,
    ) -> Result<usize, DevError> {
        let (accepted, must_trigger, completed_blocks) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.open {
                return Err(DevError::NotOpen);
            }
            let before_blocks = inner.ring.used() / inner.ring.blocksize();
            let accepted = put(&mut inner.ring);
            let after_blocks = inner.ring.used() / inner.ring.blocksize();
            let must_trigger = !inner.triggered && inner.ring.has_block();
            if must_trigger {
                inner.triggered = true;
            }
            (
                accepted,
                must_trigger,
                after_blocks.saturating_sub(before_blocks),
            )
        };
        if must_trigger {
            let src = self.block_source();
            let intr = self.make_intr();
            self.low.borrow_mut().trigger_output(sim, src, intr);
        } else if completed_blocks > 0 && self.low.borrow().wants_block_ready_calls() {
            let mut low = self.low.borrow_mut();
            for _ in 0..completed_blocks {
                low.block_ready(sim);
            }
        }
        Ok(accepted)
    }

    // es-hot-path-end

    /// Registers a one-shot callback fired at the next interrupt (ring
    /// space was freed).
    pub fn on_writable(&self, f: impl FnOnce(&mut Sim) + 'static) {
        self.inner.borrow_mut().write_waiters.push(Box::new(f));
    }

    /// Free bytes in the ring.
    pub fn writable_bytes(&self) -> usize {
        self.inner.borrow().ring.free()
    }

    /// The instant audio written right now would start playing, if the
    /// underlying engine is running and block-quantizes writes to a
    /// DMA grid; `None` means playback would start immediately.
    pub fn next_block_start(&self, now: SimTime) -> Option<SimTime> {
        self.low.borrow().next_block_start(now)
    }

    /// The modelled `AUDIO_FLUSH` + re-trigger: discards all buffered
    /// audio, halts the engine, and arms the device so the next
    /// complete block written re-triggers output anchored at that
    /// write. This is how a player realigns the card's playback grid
    /// with a corrected stream clock (§3.2 resynchronization).
    pub fn restart_output(&self, sim: &mut Sim) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.open {
                return;
            }
            inner.ring.flush();
            inner.triggered = false;
        }
        self.low.borrow_mut().halt_output(sim);
    }

    /// A [`BlockSource`] over this device's ring.
    pub fn block_source(&self) -> BlockSource {
        BlockSource {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// The interrupt routine for this device: wakes blocked writers.
    fn make_intr(&self) -> Intr {
        let weak = Rc::downgrade(&self.inner);
        Rc::new(move |sim: &mut Sim| {
            let Some(inner) = weak.upgrade() else {
                return;
            };
            let waiters = {
                let mut inner = inner.borrow_mut();
                inner.intr_count += 1;
                std::mem::take(&mut inner.write_waiters)
            };
            for w in waiters {
                w(sim);
            }
        })
    }

    /// Playback statistics.
    pub fn stats(&self) -> DevStats {
        let inner = self.inner.borrow();
        DevStats {
            bytes_written: inner.ring.total_written(),
            bytes_consumed: inner.ring.total_consumed(),
            underruns: inner.ring.underruns(),
            silence_bytes: inner.ring.silence_bytes(),
            interrupts: inner.intr_count,
            ring_occupancy: inner.ring.used(),
        }
    }

    /// Current block size in bytes.
    pub fn blocksize(&self) -> usize {
        self.inner.borrow().ring.blocksize()
    }
}

/// Builds the `Shared` cell most callers want around a low-level
/// driver value.
pub fn shared_driver<D: LowLevelDriver + 'static>(driver: D) -> Shared<dyn LowLevelDriver> {
    let cell: Shared<D> = shared(driver);
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A scripted low-level driver for exercising the high level.
    struct FakeLow {
        triggered: u32,
        halted: u32,
        params: Vec<AudioConfig>,
        block_ready: u32,
        wants_ready: bool,
        src: Option<BlockSource>,
        intr: Option<Intr>,
    }

    impl FakeLow {
        fn new(wants_ready: bool) -> Self {
            FakeLow {
                triggered: 0,
                halted: 0,
                params: Vec::new(),
                block_ready: 0,
                wants_ready,
                src: None,
                intr: None,
            }
        }
    }

    impl LowLevelDriver for FakeLow {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn set_params(&mut self, _sim: &mut Sim, cfg: &AudioConfig) {
            self.params.push(*cfg);
        }
        fn trigger_output(&mut self, _sim: &mut Sim, src: BlockSource, intr: Intr) {
            self.triggered += 1;
            self.src = Some(src);
            self.intr = Some(intr);
        }
        fn halt_output(&mut self, _sim: &mut Sim) {
            self.halted += 1;
        }
        fn wants_block_ready_calls(&self) -> bool {
            self.wants_ready
        }
        fn block_ready(&mut self, _sim: &mut Sim) {
            self.block_ready += 1;
        }
    }

    fn device(wants_ready: bool) -> (AudioDevice, Rc<RefCell<FakeLow>>) {
        let low = Rc::new(RefCell::new(FakeLow::new(wants_ready)));
        let dev = AudioDevice::with_geometry(low.clone(), 65_536, 50);
        (dev, low)
    }

    #[test]
    fn open_is_exclusive() {
        let (dev, _) = device(false);
        dev.open().unwrap();
        assert!(matches!(dev.open(), Err(DevError::Busy)));
        assert!(dev.is_open());
    }

    #[test]
    fn write_requires_open() {
        let mut sim = Sim::new(1);
        let (dev, _) = device(false);
        assert!(matches!(
            dev.write(&mut sim, &[0; 4]),
            Err(DevError::NotOpen)
        ));
        assert!(matches!(
            dev.ioctl(&mut sim, Ioctl::Flush),
            Err(DevError::NotOpen)
        ));
    }

    #[test]
    fn trigger_fires_exactly_once_on_first_block() {
        // The audio(9) contract the paper describes: "it is only
        // invoked once, when the first block of data is ready".
        let mut sim = Sim::new(1);
        let (dev, low) = device(false);
        dev.open().unwrap();
        let blk = dev.blocksize();
        dev.write(&mut sim, &vec![1u8; blk / 2]).unwrap();
        assert_eq!(low.borrow().triggered, 0, "no full block yet");
        dev.write(&mut sim, &vec![1u8; blk]).unwrap();
        assert_eq!(low.borrow().triggered, 1);
        dev.write(&mut sim, &vec![1u8; blk * 2]).unwrap();
        assert_eq!(low.borrow().triggered, 1, "never re-triggered");
    }

    #[test]
    fn block_ready_calls_only_when_requested() {
        let mut sim = Sim::new(1);
        let (dev, low) = device(true);
        dev.open().unwrap();
        let blk = dev.blocksize();
        dev.write(&mut sim, &vec![1u8; blk]).unwrap(); // triggers
        dev.write(&mut sim, &vec![1u8; blk * 2]).unwrap();
        assert_eq!(low.borrow().block_ready, 2);
        let (dev2, low2) = device(false);
        dev2.open().unwrap();
        dev2.write(&mut sim, &vec![1u8; blk * 4]).unwrap();
        assert_eq!(low2.borrow().block_ready, 0);
    }

    #[test]
    fn setinfo_updates_blocksize_and_forwards() {
        let mut sim = Sim::new(1);
        let (dev, low) = device(false);
        dev.open().unwrap();
        let cd_blk = dev.blocksize();
        // 50 ms of CD audio = 8820 bytes.
        assert_eq!(cd_blk, 8_820);
        dev.ioctl(&mut sim, Ioctl::SetInfo(AudioConfig::PHONE))
            .unwrap();
        assert_eq!(dev.blocksize(), 400, "50 ms of 8 kHz mono ulaw");
        assert_eq!(low.borrow().params.len(), 1);
        assert_eq!(dev.config(), AudioConfig::PHONE);
    }

    #[test]
    fn setinfo_rejects_invalid() {
        let mut sim = Sim::new(1);
        let (dev, _) = device(false);
        dev.open().unwrap();
        let bad = AudioConfig {
            sample_rate: 1,
            ..AudioConfig::CD
        };
        assert!(matches!(
            dev.ioctl(&mut sim, Ioctl::SetInfo(bad)),
            Err(DevError::BadConfig(_))
        ));
    }

    #[test]
    fn short_write_and_writable_wakeup() {
        let mut sim = Sim::new(1);
        let (dev, low) = device(false);
        dev.open().unwrap();
        // Fill the ring completely.
        let cap = dev.writable_bytes();
        let n = dev.write(&mut sim, &vec![1u8; cap + 100]).unwrap();
        assert_eq!(n, cap);
        assert_eq!(dev.writable_bytes(), 0);
        let woken = Rc::new(std::cell::Cell::new(false));
        let w = woken.clone();
        dev.on_writable(move |_| w.set(true));
        // Low-level consumes one block and fires the interrupt.
        let (src, intr) = {
            let low = low.borrow();
            (low.src.clone().unwrap(), low.intr.clone().unwrap())
        };
        assert!(src.take_block(false).is_some());
        intr(&mut sim);
        assert!(woken.get());
        assert!(dev.writable_bytes() > 0);
        assert_eq!(dev.stats().interrupts, 1);
    }

    #[test]
    fn close_halts_and_flushes() {
        let mut sim = Sim::new(1);
        let (dev, low) = device(false);
        dev.open().unwrap();
        dev.write(&mut sim, &vec![1u8; 10_000]).unwrap();
        dev.close(&mut sim);
        assert_eq!(low.borrow().halted, 1);
        assert!(!dev.is_open());
        // Reopen works.
        dev.open().unwrap();
    }

    #[test]
    fn block_source_reports_geometry() {
        let mut sim = Sim::new(1);
        let (dev, _) = device(false);
        dev.open().unwrap();
        let src = dev.block_source();
        assert_eq!(src.blocksize(), 8_820);
        assert_eq!(src.block_duration(), SimDuration::from_millis(50));
        assert_eq!(src.config(), Some(AudioConfig::CD));
        assert!(!src.has_block());
        dev.write(&mut sim, &vec![0u8; 9_000]).unwrap();
        assert!(src.has_block());
    }

    #[test]
    fn block_source_outlives_device_gracefully() {
        let (dev, _) = device(false);
        let src = dev.block_source();
        drop(dev);
        assert!(src.take_block(true).is_none());
        assert_eq!(src.config(), None);
        assert_eq!(src.blocksize(), 0);
        assert_eq!(src.block_duration(), SimDuration::ZERO);
    }
}
