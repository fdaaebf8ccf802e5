//! The Virtual Audio Device: a master/slave pseudo-device pair.
//!
//! "A virtual audio device is a pair of audio devices, a master device
//! and a slave device. The slave device provides to a process an
//! interface identical to that described in audio(4). However ... the
//! slave device has, instead, another process manipulating it through
//! the master half of the VAD" (§2.1.1).
//!
//! Two design decisions from the paper are modelled exactly:
//!
//! 1. **No rate limiting** (§3.1): the slave accepts data as fast as
//!    the master drains it; pacing belongs to the rebroadcaster.
//! 2. **The interrupt-chaining problem** (§3.3): the high-level driver
//!    calls `trigger_output` once and then waits for interrupts that no
//!    hardware will ever raise. Both of the paper's "inelegant"
//!    solutions are provided as [`VadMode`]: a kernel thread that
//!    periodically calls the interrupt routine, or the modified
//!    high-level driver that notifies the VAD on every block so the
//!    master reader drives consumption.
//!
//! Configuration travels in-band: `AUDIO_SETINFO` on the slave enqueues
//! a [`MasterItem::Config`] in order with the audio data, "thus the
//! application accessing vadm can always decode the audio stream
//! correctly" (§2.1.1).

use std::collections::VecDeque;

use es_audio::AudioConfig;
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};

use crate::device::{AudioDevice, BlockSource, Intr, LowLevelDriver};

/// How the VAD fakes the missing hardware interrupt (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VadMode {
    /// A kernel thread wakes every `poll` interval and drains all
    /// complete blocks, calling the interrupt routine for each.
    KernelThread {
        /// The thread's wakeup period.
        poll: SimDuration,
    },
    /// The hardware-independent driver is modified to notify the VAD on
    /// every completed block; the master-side reader pulls data and
    /// invokes the interrupt routine from its own (user) context.
    MasterDriven,
}

/// One item read from the master device: the audio byte stream
/// interleaved, in order, with the configuration updates that apply to
/// the bytes that follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterItem {
    /// The slave was reconfigured; subsequent audio uses this format.
    Config(AudioConfig),
    /// One block of audio data in the current format.
    Audio(Vec<u8>),
}

/// A wake hook for scheduler instrumentation.
pub type WakeHook = Box<dyn FnMut(&mut Sim)>;

struct MasterQueue {
    items: VecDeque<MasterItem>,
    buffered_audio_bytes: usize,
    readable_waiters: Vec<crate::device::Waiter>,
    audio_bytes_forwarded: u64,
    config_updates: u64,
    current_config: AudioConfig,
}

impl MasterQueue {
    fn push_audio(&mut self, block: Vec<u8>) {
        self.buffered_audio_bytes += block.len();
        self.audio_bytes_forwarded += block.len() as u64;
        self.items.push_back(MasterItem::Audio(block));
    }

    fn push_config(&mut self, cfg: AudioConfig) {
        self.config_updates += 1;
        self.current_config = cfg;
        self.items.push_back(MasterItem::Config(cfg));
    }

    fn take_waiters(&mut self) -> Vec<crate::device::Waiter> {
        std::mem::take(&mut self.readable_waiters)
    }
}

struct VadState {
    queue: MasterQueue,
    src: Option<BlockSource>,
    intr: Option<Intr>,
    mode: VadMode,
    kthread_timer: Option<RepeatingTimer>,
    kthread_hook: Option<WakeHook>,
    reader_hook: Option<WakeHook>,
}

impl VadState {
    /// Drains every complete block from the slave ring into the master
    /// queue, invoking the interrupt routine per block. Returns the
    /// number of blocks moved. Never silence-fills: the VAD must not
    /// invent data.
    fn drain(&mut self) -> (usize, Option<Intr>) {
        let Some(src) = self.src.as_ref() else {
            return (0, None);
        };
        let mut moved = 0;
        while let Some(block) = src.take_block(false) {
            self.queue.push_audio(block.into_vec());
            moved += 1;
        }
        (moved, if moved > 0 { self.intr.clone() } else { None })
    }
}

/// The slave-side low-level driver (`vads`' backend).
pub struct VadSlaveDriver {
    state: Shared<VadState>,
}

/// The master (control) device — `/dev/vadm` (§2.1.1): "anything
/// written on the slave device is given to the master device as input".
#[derive(Clone)]
pub struct VadMaster {
    state: Shared<VadState>,
}

/// Statistics of the VAD's forwarding path.
#[derive(Debug, Clone, Copy)]
pub struct VadStats {
    /// Audio bytes forwarded slave → master.
    pub audio_bytes_forwarded: u64,
    /// Configuration updates forwarded.
    pub config_updates: u64,
    /// Audio bytes queued on the master side, not yet read.
    pub buffered_audio_bytes: usize,
}

impl es_telemetry::Telemetry for VadStats {
    fn record(&self, registry: &mut es_telemetry::Registry) {
        let mut s = registry.component("vad");
        s.counter("audio_bytes_forwarded", self.audio_bytes_forwarded)
            .counter("config_updates", self.config_updates)
            .gauge("master_buffered_bytes", self.buffered_audio_bytes as f64);
    }
}

/// Creates a VAD pair: the slave [`AudioDevice`] an application opens
/// plus the [`VadMaster`] the rebroadcaster reads.
///
/// The paper's flow: `app → /dev/vads (slave) → kernel → /dev/vadm
/// (master) → rebroadcaster → network` (Figure 2).
pub fn vad_pair(mode: VadMode) -> (AudioDevice, VadMaster) {
    vad_pair_with_geometry(
        mode,
        crate::device::DEFAULT_RING_CAPACITY,
        crate::device::DEFAULT_BLOCK_MS,
    )
}

/// [`vad_pair`] with explicit slave-ring geometry.
pub fn vad_pair_with_geometry(
    mode: VadMode,
    ring_capacity: usize,
    block_ms: u64,
) -> (AudioDevice, VadMaster) {
    let state = shared(VadState {
        queue: MasterQueue {
            items: VecDeque::new(),
            buffered_audio_bytes: 0,
            readable_waiters: Vec::new(),
            audio_bytes_forwarded: 0,
            config_updates: 0,
            current_config: AudioConfig::default(),
        },
        src: None,
        intr: None,
        mode,
        kthread_timer: None,
        kthread_hook: None,
        reader_hook: None,
    });
    let driver = VadSlaveDriver {
        state: state.clone(),
    };
    let slave = AudioDevice::with_geometry(shared(driver), ring_capacity, block_ms);
    (slave, VadMaster { state })
}

fn notify_readers(state: &Shared<VadState>, sim: &mut Sim) {
    // Fire the reader instrumentation hook once per wakeup batch.
    let hook = state.borrow_mut().reader_hook.take();
    if let Some(mut h) = hook {
        h(sim);
        let mut st = state.borrow_mut();
        if st.reader_hook.is_none() {
            st.reader_hook = Some(h);
        }
    }
    let waiters = state.borrow_mut().queue.take_waiters();
    for w in waiters {
        w(sim);
    }
}

impl LowLevelDriver for VadSlaveDriver {
    fn name(&self) -> &'static str {
        "vad-slave"
    }

    fn set_params(&mut self, sim: &mut Sim, cfg: &AudioConfig) {
        // Order matters (§2.1.2): drain data written under the old
        // configuration before announcing the new one.
        let (moved, intr) = self.state.borrow_mut().drain();
        let _ = moved;
        if let Some(intr) = intr {
            intr(sim);
        }
        self.state.borrow_mut().queue.push_config(*cfg);
        notify_readers(&self.state, sim);
    }

    fn trigger_output(&mut self, sim: &mut Sim, src: BlockSource, intr: Intr) {
        let mode = {
            let mut st = self.state.borrow_mut();
            st.src = Some(src);
            st.intr = Some(intr);
            st.mode
        };
        match mode {
            VadMode::KernelThread { poll } => {
                let state = self.state.clone();
                let timer = RepeatingTimer::start(sim, poll, move |sim| {
                    // The kernel thread wakes unconditionally — that is
                    // precisely its context-switch cost (Figure 5).
                    let hook = state.borrow_mut().kthread_hook.take();
                    if let Some(mut h) = hook {
                        h(sim);
                        let mut st = state.borrow_mut();
                        if st.kthread_hook.is_none() {
                            st.kthread_hook = Some(h);
                        }
                    }
                    let (moved, intr) = state.borrow_mut().drain();
                    if let Some(intr) = intr {
                        for _ in 0..moved {
                            intr(sim);
                        }
                    }
                    if moved > 0 {
                        notify_readers(&state, sim);
                    }
                });
                self.state.borrow_mut().kthread_timer = Some(timer);
            }
            VadMode::MasterDriven => {
                // First block: behave as if block_ready had fired.
                self.block_ready(sim);
            }
        }
    }

    fn halt_output(&mut self, _sim: &mut Sim) {
        let mut st = self.state.borrow_mut();
        if let Some(t) = st.kthread_timer.take() {
            t.stop();
        }
        st.src = None;
        st.intr = None;
    }

    fn wants_block_ready_calls(&self) -> bool {
        self.state.borrow().mode == VadMode::MasterDriven
    }

    fn block_ready(&mut self, sim: &mut Sim) {
        // Only wake the reader; the data itself is pulled from the
        // reader's context via VadMaster::read, and the interrupt
        // routine runs there too.
        if self.state.borrow().mode == VadMode::MasterDriven {
            notify_readers(&self.state, sim);
        }
    }
}

impl VadMaster {
    /// Reads up to `max_audio_bytes` of audio (configuration items are
    /// free and always delivered in order). In master-driven mode this
    /// also pulls pending blocks out of the slave ring and invokes the
    /// interrupt routine — the reader is the fake hardware.
    pub fn read(&self, sim: &mut Sim, max_audio_bytes: usize) -> Vec<MasterItem> {
        // Master-driven pull.
        let pulled = {
            let mut st = self.state.borrow_mut();
            if st.mode == VadMode::MasterDriven {
                let (moved, intr) = st.drain();
                drop(st);
                if let Some(intr) = intr {
                    for _ in 0..moved {
                        intr(sim);
                    }
                }
                moved
            } else {
                0
            }
        };
        let _ = pulled;

        let mut out = Vec::new();
        let mut audio = 0usize;
        let mut st = self.state.borrow_mut();
        while let Some(item) = st.queue.items.front() {
            match item {
                MasterItem::Config(_) => {
                    out.push(st.queue.items.pop_front().expect("peeked"));
                }
                MasterItem::Audio(b) => {
                    if audio > 0 && audio + b.len() > max_audio_bytes {
                        break;
                    }
                    audio += b.len();
                    st.queue.buffered_audio_bytes -= b.len();
                    out.push(st.queue.items.pop_front().expect("peeked"));
                    if audio >= max_audio_bytes {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Registers a one-shot callback fired when items become readable.
    pub fn on_readable(&self, f: impl FnOnce(&mut Sim) + 'static) {
        self.state
            .borrow_mut()
            .queue
            .readable_waiters
            .push(Box::new(f));
    }

    /// True if items are queued.
    pub fn has_items(&self) -> bool {
        !self.state.borrow().queue.items.is_empty()
    }

    /// The configuration most recently forwarded.
    pub fn current_config(&self) -> AudioConfig {
        self.state.borrow().queue.current_config
    }

    /// Forwarding statistics.
    pub fn stats(&self) -> VadStats {
        let st = self.state.borrow();
        VadStats {
            audio_bytes_forwarded: st.queue.audio_bytes_forwarded,
            config_updates: st.queue.config_updates,
            buffered_audio_bytes: st.queue.buffered_audio_bytes,
        }
    }

    /// Installs instrumentation fired on every kernel-thread wakeup
    /// (kernel-thread mode only).
    pub fn set_kthread_hook(&self, hook: WakeHook) {
        self.state.borrow_mut().kthread_hook = Some(hook);
    }

    /// Installs instrumentation fired whenever the reader is woken.
    pub fn set_reader_hook(&self, hook: WakeHook) {
        self.state.borrow_mut().reader_hook = Some(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Ioctl;
    use es_sim::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    const POLL: SimDuration = SimDuration::from_millis(10);

    fn kthread_pair() -> (AudioDevice, VadMaster) {
        vad_pair(VadMode::KernelThread { poll: POLL })
    }

    #[test]
    fn audio_flows_slave_to_master() {
        let mut sim = Sim::new(1);
        let (slave, master) = kthread_pair();
        slave.open().unwrap();
        let blk = slave.blocksize();
        slave.write(&mut sim, &vec![7u8; blk * 3]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        let items = master.read(&mut sim, usize::MAX);
        let audio: usize = items
            .iter()
            .map(|i| match i {
                MasterItem::Audio(b) => b.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(audio, blk * 3);
        assert_eq!(master.stats().audio_bytes_forwarded, (blk * 3) as u64);
    }

    #[test]
    fn config_arrives_in_order_with_data() {
        let mut sim = Sim::new(1);
        let (slave, master) = kthread_pair();
        slave.open().unwrap();
        slave
            .ioctl(&mut sim, Ioctl::SetInfo(AudioConfig::CD))
            .unwrap();
        let blk = slave.blocksize();
        slave.write(&mut sim, &vec![1u8; blk]).unwrap();
        sim.run_for(SimDuration::from_millis(30));
        // Reconfigure mid-stream; the pending block must drain first.
        slave.write(&mut sim, &vec![2u8; blk]).unwrap();
        sim.run_for(SimDuration::from_millis(5)); // Less than POLL: block 2 still in ring.
        slave
            .ioctl(&mut sim, Ioctl::SetInfo(AudioConfig::PHONE))
            .unwrap();
        sim.run_for(SimDuration::from_millis(50));
        let items = master.read(&mut sim, usize::MAX);
        // Expect: Config(CD), Audio(1...), Audio(2...), Config(PHONE).
        let kinds: Vec<&'static str> = items
            .iter()
            .map(|i| match i {
                MasterItem::Config(_) => "cfg",
                MasterItem::Audio(_) => "audio",
            })
            .collect();
        assert_eq!(kinds, vec!["cfg", "audio", "audio", "cfg"]);
        let MasterItem::Config(last) = items.last().unwrap() else {
            panic!("last item must be the PHONE config");
        };
        assert_eq!(*last, AudioConfig::PHONE);
        assert_eq!(master.current_config(), AudioConfig::PHONE);
    }

    #[test]
    fn vad_is_not_rate_limited() {
        // §3.1: five seconds of audio drain in far less than five
        // seconds of (virtual) time — the producer must rate-limit.
        let mut sim = Sim::new(1);
        let (slave, master) = kthread_pair();
        slave.open().unwrap();
        let cfg = slave.config();
        let five_secs_bytes = (cfg.bytes_per_second() * 5) as usize;
        let data = vec![3u8; five_secs_bytes];
        let mut offset = 0usize;
        let drained = Rc::new(Cell::new(0usize));
        // Reader that drains whenever woken.
        fn arm(master: VadMaster, drained: Rc<Cell<usize>>) {
            let m = master.clone();
            let d = drained.clone();
            master.on_readable(move |sim| {
                for item in m.read(sim, usize::MAX) {
                    if let MasterItem::Audio(b) = item {
                        d.set(d.get() + b.len());
                    }
                }
                arm(m.clone(), d.clone());
            });
        }
        arm(master.clone(), drained.clone());
        while offset < data.len() {
            let n = slave.write(&mut sim, &data[offset..]).unwrap();
            offset += n;
            if n == 0 && !sim.step() {
                panic!("stalled with ring full");
            }
        }
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(drained.get(), five_secs_bytes);
        assert!(
            sim.now() < SimTime::from_secs(1),
            "5s of audio must transfer in well under 1s of virtual time, took {}",
            sim.now()
        );
    }

    #[test]
    fn master_driven_mode_pulls_on_read() {
        let mut sim = Sim::new(1);
        let (slave, master) = vad_pair(VadMode::MasterDriven);
        slave.open().unwrap();
        let blk = slave.blocksize();
        let woken = Rc::new(Cell::new(0u32));
        let w = woken.clone();
        master.on_readable(move |_| w.set(w.get() + 1));
        slave.write(&mut sim, &vec![9u8; blk * 2]).unwrap();
        sim.run();
        assert!(woken.get() >= 1, "reader woken on block completion");
        // No kernel thread: data sits in the slave ring until read.
        assert_eq!(master.stats().audio_bytes_forwarded, 0);
        let items = master.read(&mut sim, usize::MAX);
        let audio: usize = items
            .iter()
            .map(|i| match i {
                MasterItem::Audio(b) => b.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(audio, blk * 2);
        assert_eq!(slave.stats().interrupts, 2, "intr runs in reader context");
    }

    #[test]
    fn read_respects_byte_budget() {
        let mut sim = Sim::new(1);
        let (slave, master) = kthread_pair();
        slave.open().unwrap();
        let blk = slave.blocksize();
        slave.write(&mut sim, &vec![1u8; blk * 4]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        let first = master.read(&mut sim, blk + 1);
        let audio: usize = first
            .iter()
            .map(|i| match i {
                MasterItem::Audio(b) => b.len(),
                _ => 0,
            })
            .sum();
        // At least one block is always delivered; the budget stops it
        // from swallowing everything.
        assert!(audio >= blk && audio < blk * 4, "audio {audio}");
        assert!(master.has_items());
    }

    #[test]
    fn writer_blocked_on_full_ring_wakes_after_drain() {
        let mut sim = Sim::new(1);
        let (slave, master) =
            vad_pair_with_geometry(VadMode::KernelThread { poll: POLL }, 16_384, 50);
        slave.open().unwrap();
        // Overfill.
        let n = slave.write(&mut sim, &vec![1u8; 65_536]).unwrap();
        assert!(n <= 16_384 + 8_820);
        let woken = Rc::new(Cell::new(false));
        let w = woken.clone();
        slave.on_writable(move |_| w.set(true));
        sim.run_for(SimDuration::from_millis(20));
        assert!(woken.get(), "kthread drain must wake blocked writers");
        let _ = master;
    }

    #[test]
    fn kthread_and_reader_hooks_fire() {
        let mut sim = Sim::new(1);
        let (slave, master) = kthread_pair();
        let kt = Rc::new(Cell::new(0u32));
        let rd = Rc::new(Cell::new(0u32));
        let k = kt.clone();
        let r = rd.clone();
        master.set_kthread_hook(Box::new(move |_| k.set(k.get() + 1)));
        master.set_reader_hook(Box::new(move |_| r.set(r.get() + 1)));
        slave.open().unwrap();
        slave
            .write(&mut sim, &vec![1u8; slave.blocksize()])
            .unwrap();
        sim.run_for(SimDuration::from_millis(100));
        // Kernel thread ticks every POLL regardless of data (10 ticks);
        // the reader was only woken when data moved (once).
        assert!(kt.get() >= 9, "kthread ticks {}", kt.get());
        assert_eq!(rd.get(), 1, "reader wakeups {}", rd.get());
    }

    #[test]
    fn close_stops_kthread() {
        let mut sim = Sim::new(1);
        let (slave, master) = kthread_pair();
        slave.open().unwrap();
        slave
            .write(&mut sim, &vec![1u8; slave.blocksize()])
            .unwrap();
        sim.run_for(SimDuration::from_millis(30));
        slave.close(&mut sim);
        let forwarded = master.stats().audio_bytes_forwarded;
        let kt = Rc::new(Cell::new(0u32));
        let k = kt.clone();
        master.set_kthread_hook(Box::new(move |_| k.set(k.get() + 1)));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(kt.get(), 0, "kthread must stop on close");
        assert_eq!(master.stats().audio_bytes_forwarded, forwarded);
    }
}
