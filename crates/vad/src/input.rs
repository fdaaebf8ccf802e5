//! The VAD input direction — lifting the paper's stated limitation.
//!
//! §2.1.1: "anything written on the slave device (vads) is given to the
//! master device (vadm) as input (**currently vads only supports audio
//! output**)." This module implements the missing direction: a process
//! holding the master side *injects* audio, and an unmodified
//! application reading the slave sees it as microphone input — the
//! capture mirror of the playback path, analogous to writing into a
//! pty's master so the slave's reader sees terminal input.
//!
//! Uses: feeding recorded announcements into an app that only reads
//! `/dev/audio`, loopback testing of capture pipelines, and the §5.2
//! ambient-monitoring path (the ES comparing "its own output against
//! the ambient levels" needs an input device).
//!
//! Unlike the output path, input *is* naturally rate limited at the
//! consumer (the app reads as fast as it wants but blocks on an empty
//! ring), so the injection side optionally paces itself like real
//! capture hardware: one block per block-duration.

use es_audio::AudioConfig;
use es_sim::{shared, RepeatingTimer, Shared, Sim, SimDuration};

use crate::ring::AudioRing;

/// Statistics for the input pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputStats {
    /// Bytes injected by the master.
    pub bytes_injected: u64,
    /// Bytes read by the slave application.
    pub bytes_read: u64,
    /// Bytes dropped because the capture ring was full (the app reads
    /// too slowly — real capture hardware overruns the same way).
    pub overrun_bytes: u64,
}

impl es_telemetry::Telemetry for InputStats {
    fn record(&self, registry: &mut es_telemetry::Registry) {
        let mut s = registry.component("vad");
        s.counter("input_bytes_injected", self.bytes_injected)
            .counter("input_bytes_read", self.bytes_read)
            .counter("input_overrun_bytes", self.overrun_bytes);
    }
}

struct InputState {
    config: AudioConfig,
    ring: AudioRing,
    read_waiters: Vec<crate::device::Waiter>,
    stats: InputStats,
    paced: Option<PacedSource>,
}

struct PacedSource {
    pending: Vec<u8>,
    offset: usize,
}

/// The master (injecting) side of an input VAD.
#[derive(Clone)]
pub struct InputMaster {
    state: Shared<InputState>,
}

/// The slave (application/capture) side of an input VAD.
#[derive(Clone)]
pub struct InputSlave {
    state: Shared<InputState>,
}

/// Creates an input VAD pair with the given capture format and ring
/// capacity.
pub fn input_pair(config: AudioConfig, ring_capacity: usize) -> (InputMaster, InputSlave) {
    let blocksize = config
        .bytes_for_nanos(crate::device::DEFAULT_BLOCK_MS * 1_000_000)
        .max(config.bytes_per_frame() as u64) as usize;
    let state = shared(InputState {
        config,
        ring: AudioRing::new(ring_capacity, blocksize.min(ring_capacity / 2).max(1)),
        read_waiters: Vec::new(),
        stats: InputStats::default(),
        paced: None,
    });
    (
        InputMaster {
            state: state.clone(),
        },
        InputSlave { state },
    )
}

fn wake_readers(state: &Shared<InputState>, sim: &mut Sim) {
    let waiters = std::mem::take(&mut state.borrow_mut().read_waiters);
    for w in waiters {
        w(sim);
    }
}

impl InputMaster {
    /// Injects bytes immediately (as fast as the ring accepts; the
    /// excess is dropped as an overrun, like capture hardware whose
    /// consumer stalled).
    pub fn inject(&self, sim: &mut Sim, data: &[u8]) -> usize {
        let accepted = {
            let mut st = self.state.borrow_mut();
            let n = st.ring.write(data);
            st.stats.bytes_injected += n as u64;
            st.stats.overrun_bytes += (data.len() - n) as u64;
            n
        };
        if accepted > 0 {
            wake_readers(&self.state, sim);
        }
        accepted
    }

    /// Injects a clip paced at the capture rate: one block per
    /// block-duration, exactly like a microphone. Returns immediately;
    /// delivery happens over virtual time.
    pub fn inject_paced(&self, sim: &mut Sim, data: Vec<u8>) {
        {
            let mut st = self.state.borrow_mut();
            st.paced = Some(PacedSource {
                pending: data,
                offset: 0,
            });
        }
        let state = self.state.clone();
        let block_dur = {
            let st = state.borrow();
            SimDuration::from_nanos(st.config.nanos_for_bytes(st.ring.blocksize() as u64))
        };
        let timer = RepeatingTimer::start(sim, block_dur, move |sim| {
            let done = {
                let mut st = state.borrow_mut();
                let blocksize = st.ring.blocksize();
                match st.paced.take() {
                    None => true,
                    Some(mut src) => {
                        let end = (src.offset + blocksize).min(src.pending.len());
                        let chunk = src.pending[src.offset..end].to_vec();
                        let n = st.ring.write(&chunk);
                        st.stats.bytes_injected += n as u64;
                        st.stats.overrun_bytes += (chunk.len() - n) as u64;
                        src.offset = end;
                        let done = src.offset >= src.pending.len();
                        if !done {
                            st.paced = Some(src);
                        }
                        done
                    }
                }
            };
            wake_readers(&state, sim);
            if done {
                // Timer keeps its own handle; stopping happens by
                // leaving `paced` empty — the next tick is a no-op and
                // we stop it here.
            }
        });
        // Stop the timer when the clip is exhausted: poll cheaply.
        watch_done(sim, self.state.clone(), timer);
    }

    /// The pair's statistics.
    pub fn stats(&self) -> InputStats {
        self.state.borrow().stats
    }
}

fn watch_done(sim: &mut Sim, state: Shared<InputState>, timer: RepeatingTimer) {
    sim.schedule_in(SimDuration::from_millis(100), move |sim| {
        if state.borrow().paced.is_none() {
            timer.stop();
        } else {
            watch_done(sim, state, timer);
        }
    });
}

impl InputSlave {
    /// Reads up to `max` bytes of captured audio; returns an empty
    /// vector if none is buffered (register [`InputSlave::on_readable`]
    /// to block like `read(2)`).
    pub fn read(&self, _sim: &mut Sim, max: usize) -> Vec<u8> {
        let mut st = self.state.borrow_mut();
        let mut out = Vec::new();
        while out.len() < max {
            // Partial tail reads are allowed once no full block remains.
            if !st.ring.has_block() {
                break;
            }
            let block = st.ring.take_block(false).expect("has_block checked");
            let take = block.len().min(max - out.len());
            out.extend_from_slice(&block[..take]);
            if take < block.len() {
                // Put the remainder back is not supported by a real
                // ring either; deliver the whole block instead.
                out.extend_from_slice(&block[take..]);
                break;
            }
        }
        st.stats.bytes_read += out.len() as u64;
        out
    }

    /// Registers a one-shot callback for when captured data arrives.
    pub fn on_readable(&self, f: impl FnOnce(&mut Sim) + 'static) {
        self.state.borrow_mut().read_waiters.push(Box::new(f));
    }

    /// The capture format.
    pub fn config(&self) -> AudioConfig {
        self.state.borrow().config
    }

    /// True if a full block is waiting.
    pub fn has_data(&self) -> bool {
        self.state.borrow().ring.has_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_sim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pair() -> (InputMaster, InputSlave) {
        input_pair(AudioConfig::PHONE, 8_192)
    }

    #[test]
    fn injected_audio_is_readable() {
        let mut sim = Sim::new(1);
        let (master, slave) = pair();
        let data: Vec<u8> = (0..1_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(master.inject(&mut sim, &data), 1_000);
        let got = slave.read(&mut sim, 4_096);
        // PHONE blocksize = 400 bytes; two full blocks available, the
        // 200-byte tail stays buffered until it fills a block.
        assert_eq!(got.len(), 800);
        assert_eq!(&got[..], &data[..800]);
        assert_eq!(master.stats().bytes_read, 800);
    }

    #[test]
    fn reader_blocks_until_woken() {
        let mut sim = Sim::new(1);
        let (master, slave) = pair();
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let s2 = slave.clone();
        slave.on_readable(move |sim| {
            g.borrow_mut().extend(s2.read(sim, 4_096));
        });
        assert!(got.borrow().is_empty());
        master.inject(&mut sim, &vec![7u8; 400]);
        sim.run();
        assert_eq!(got.borrow().len(), 400);
    }

    #[test]
    fn overrun_when_app_reads_too_slowly() {
        let mut sim = Sim::new(1);
        let (master, _slave) = pair();
        // Ring capacity ~8 KiB (rounded up to whole blocks): injecting
        // 10_000 overruns.
        let n = master.inject(&mut sim, &vec![1u8; 10_000]);
        assert!((8_192..10_000).contains(&n), "accepted {n}");
        let st = master.stats();
        assert_eq!(st.bytes_injected, n as u64);
        assert_eq!(st.overrun_bytes, (10_000 - n) as u64);
    }

    #[test]
    fn paced_injection_arrives_at_capture_rate() {
        let mut sim = Sim::new(1);
        let (master, slave) = pair();
        // Two seconds of phone audio = 16_000 bytes; paced injection
        // must take ~2 virtual seconds, not arrive at once.
        let clip = vec![9u8; 16_000];
        master.inject_paced(&mut sim, clip);
        let collected: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        fn arm(slave: InputSlave, log: Rc<RefCell<Vec<(u64, usize)>>>) {
            let s2 = slave.clone();
            let l2 = log.clone();
            slave.on_readable(move |sim| {
                let got = s2.read(sim, usize::MAX);
                if !got.is_empty() {
                    l2.borrow_mut().push((sim.now().as_millis(), got.len()));
                }
                arm(s2.clone(), l2.clone());
            });
        }
        arm(slave, collected.clone());
        sim.run_until(SimTime::from_secs(3));
        let log = collected.borrow();
        let total: usize = log.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 16_000);
        let last_ms = log.last().unwrap().0;
        assert!(
            (1_900..=2_200).contains(&last_ms),
            "paced capture finished at {last_ms} ms"
        );
        assert_eq!(master.stats().overrun_bytes, 0);
    }

    #[test]
    fn config_is_visible_to_the_app() {
        let (_m, slave) = pair();
        assert_eq!(slave.config(), AudioConfig::PHONE);
        assert!(!slave.has_data());
    }
}
