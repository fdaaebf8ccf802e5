//! The "off-the-shelf audio application" driver.
//!
//! The paper's whole premise is that the application is unmodified and
//! opaque — mpg123, the Real Audio player — and simply writes PCM to
//! what it believes is `/dev/audio` (§1, §2.1). This module is that
//! application for the simulator: it opens an [`AudioDevice`] (a real
//! card or a VAD slave — it cannot tell which, by design), configures
//! it with an ioctl, and writes a generated signal.
//!
//! Two pacing behaviours matter for the experiments:
//!
//! - [`AppPacing::WireSpeed`]: a file player decoding ahead of
//!   playback, writing as fast as `write(2)` accepts — the §3.1 failure
//!   mode when pointed at an unpaced VAD.
//! - [`AppPacing::RealTime`]: a live source (network radio client)
//!   producing audio as it arrives.

use std::rc::Rc;

use es_audio::convert::encode_samples_into;
use es_audio::gen::{render_interleaved_into, Signal};
use es_audio::AudioConfig;
use es_sim::{shared, Shared, Sim, SimDuration, SimTime};
use es_telemetry::{Registry, Telemetry};
use es_vad::{AudioDevice, DevError, Ioctl};

/// How the application produces data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppPacing {
    /// Write the whole clip as fast as the device accepts it.
    WireSpeed,
    /// Write one chunk per chunk-duration of virtual time.
    RealTime,
}

/// Progress counters for the application.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppStats {
    /// Bytes accepted by the device so far.
    pub bytes_written: u64,
    /// Virtual time the final write completed, if finished.
    pub finished_at: Option<SimTime>,
    /// Number of short writes encountered (back-pressure events).
    pub short_writes: u64,
}

impl Telemetry for AppStats {
    fn record(&self, registry: &mut Registry) {
        let mut s = registry.component("app");
        s.counter("bytes_written", self.bytes_written)
            .counter("short_writes", self.short_writes)
            .gauge(
                "finished",
                if self.finished_at.is_some() { 1.0 } else { 0.0 },
            );
    }
}

struct AppState {
    /// The open device — held like a process holds its file
    /// descriptor, so the device outlives transient closures.
    _dev: Rc<AudioDevice>,
    signal: Box<dyn Signal>,
    /// The chunk being rendered, recycled chunk after chunk.
    pcm: Vec<i16>,
    cfg: AudioConfig,
    remaining_frames: u64,
    chunk_frames: u64,
    stats: AppStats,
    pacing: AppPacing,
}

/// Handle to a running audio application.
#[derive(Clone)]
pub struct AudioApp {
    state: Shared<AppState>,
}

impl AudioApp {
    /// Opens `dev`, configures it for `cfg`, and starts writing
    /// `duration` worth of `signal` with the given pacing. Chunks are
    /// 50 ms of audio each.
    ///
    /// Returns a handle for progress inspection.
    pub fn start(
        sim: &mut Sim,
        dev: Rc<AudioDevice>,
        cfg: AudioConfig,
        signal: Box<dyn Signal>,
        duration: SimDuration,
        pacing: AppPacing,
    ) -> Result<AudioApp, DevError> {
        dev.open()?;
        dev.ioctl(sim, Ioctl::SetInfo(cfg))?;
        let total_frames =
            (duration.as_nanos() as u128 * cfg.sample_rate as u128 / 1_000_000_000) as u64;
        let chunk_frames = (cfg.sample_rate as u64 / 20).max(1);
        let state = shared(AppState {
            _dev: dev.clone(),
            signal,
            pcm: Vec::new(),
            cfg,
            remaining_frames: total_frames,
            chunk_frames,
            stats: AppStats::default(),
            pacing,
        });
        let app = AudioApp {
            state: state.clone(),
        };
        pump(sim, dev, state);
        Ok(app)
    }

    /// Progress snapshot.
    pub fn stats(&self) -> AppStats {
        self.state.borrow().stats
    }

    /// True once every frame has been accepted by the device.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().stats.finished_at.is_some()
    }
}

/// Renders the next chunk and writes all of it, then comes back for
/// the one after: at once at wire speed, a chunk-duration later in
/// real time (the write itself happens now).
fn pump(sim: &mut Sim, dev: Rc<AudioDevice>, state: Shared<AppState>) {
    let (chunk, pacing, chunk_dur) = {
        let mut st = state.borrow_mut();
        let st = &mut *st;
        if st.remaining_frames == 0 {
            st.stats.finished_at = Some(sim.now());
            return;
        }
        let frames = st.chunk_frames.min(st.remaining_frames);
        st.remaining_frames -= frames;
        render_interleaved_into(
            &mut *st.signal,
            st.cfg.channels,
            frames as usize,
            &mut st.pcm,
        );
        let mut chunk = Vec::new();
        encode_samples_into(&st.pcm, st.cfg.encoding, &mut chunk);
        let chunk_dur = SimDuration::from_nanos(st.cfg.nanos_for_bytes(chunk.len() as u64));
        (Rc::new(chunk), st.pacing, chunk_dur)
    };
    let counted = Rc::clone(&state);
    let wrote = move |n: usize, short: bool| {
        let stats = &mut counted.borrow_mut().stats;
        stats.bytes_written += n as u64;
        stats.short_writes += u64::from(short);
    };
    Rc::clone(&dev).write_all(sim, chunk, 0, wrote, move |sim| match pacing {
        AppPacing::WireSpeed => pump(sim, dev, state),
        AppPacing::RealTime => {
            sim.schedule_in(chunk_dur, move |sim| pump(sim, dev, state));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::gen::Sine;
    use es_vad::{vad_pair, vad_pair_with_geometry, VadMaster, VadMode};

    fn drain_master(master: &VadMaster, sim: &mut Sim) -> u64 {
        let mut total = 0u64;
        for item in master.read(sim, usize::MAX) {
            if let es_vad::MasterItem::Audio(b) = item {
                total += b.len() as u64;
            }
        }
        total
    }

    #[test]
    fn wire_speed_app_finishes_fast() {
        // §3.1: "the producer will essentially send the entire file at
        // wire speed".
        let mut sim = Sim::new(1);
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let slave = Rc::new(slave);
        let app = AudioApp::start(
            &mut sim,
            slave,
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(30),
            AppPacing::WireSpeed,
        )
        .unwrap();
        // Keep the master drained so the app never deadlocks.
        let mut drained = 0u64;
        while !app.is_finished() {
            if !sim.step() {
                break;
            }
            drained += drain_master(&master, &mut sim);
        }
        // Let the kernel thread forward the ring's final contents.
        sim.run_for(SimDuration::from_millis(50));
        drained += drain_master(&master, &mut sim);
        let stats = app.stats();
        assert!(app.is_finished());
        // 30s of CD audio = 5,292,000 bytes, delivered in < 1s virtual.
        assert_eq!(stats.bytes_written, 5_292_000);
        assert!(stats.finished_at.unwrap() < SimTime::from_secs(1));
        assert!(stats.short_writes > 0, "back-pressure must have occurred");
        let leftover = master.stats().buffered_audio_bytes as u64;
        assert!(drained + leftover >= 5_292_000 - 8_820 * 2);
    }

    #[test]
    fn wire_speed_app_into_a_small_ring_is_pinned() {
        // Two seconds written into a 16 KiB ring meet back-pressure
        // on most chunks; how the app writes must move none of these.
        let mut sim = Sim::new(1);
        let (slave, _master) = vad_pair_with_geometry(
            VadMode::KernelThread {
                poll: SimDuration::from_millis(10),
            },
            16_384,
            50,
        );
        let app = AudioApp::start(
            &mut sim,
            Rc::new(slave),
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(2),
            AppPacing::WireSpeed,
        )
        .unwrap();
        while !app.is_finished() && sim.step() {}
        let stats = app.stats();
        assert_eq!(stats.bytes_written, 352_800);
        assert_eq!(stats.short_writes, 41);
        assert_eq!(stats.finished_at, Some(SimTime::from_millis(210)));
    }

    #[test]
    fn real_time_app_paces_writes() {
        let mut sim = Sim::new(1);
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(10),
        });
        let slave = Rc::new(slave);
        let app = AudioApp::start(
            &mut sim,
            slave,
            AudioConfig::CD,
            Box::new(Sine::new(440.0, 44_100, 0.5)),
            SimDuration::from_secs(2),
            AppPacing::RealTime,
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(1));
        drain_master(&master, &mut sim);
        // Halfway through: roughly half the bytes written.
        let written = app.stats().bytes_written;
        let expected = AudioConfig::CD.bytes_per_second();
        assert!(
            (written as i64 - expected as i64).unsigned_abs() < expected / 5,
            "written {written} expected ~{expected}"
        );
        assert!(!app.is_finished());
        sim.run_until(SimTime::from_secs(3));
        drain_master(&master, &mut sim);
        sim.run_until(SimTime::from_secs(4));
        assert!(app.is_finished());
        let finished = app.stats().finished_at.unwrap();
        assert!(
            finished >= SimTime::from_millis(1_950),
            "finished too early: {finished}"
        );
    }

    #[test]
    fn app_respects_configured_encoding() {
        let mut sim = Sim::new(1);
        let (slave, master) = vad_pair(VadMode::KernelThread {
            poll: SimDuration::from_millis(5),
        });
        let slave = Rc::new(slave);
        let _app = AudioApp::start(
            &mut sim,
            slave,
            AudioConfig::PHONE,
            Box::new(Sine::new(300.0, 8_000, 0.5)),
            SimDuration::from_secs(1),
            AppPacing::WireSpeed,
        )
        .unwrap();
        sim.run_for(SimDuration::from_millis(100));
        let items = master.read(&mut sim, usize::MAX);
        // First item is the PHONE config forwarded by the ioctl.
        assert!(matches!(
            items.first(),
            Some(es_vad::MasterItem::Config(c)) if *c == AudioConfig::PHONE
        ));
        let audio: u64 = items
            .iter()
            .map(|i| match i {
                es_vad::MasterItem::Audio(b) => b.len() as u64,
                _ => 0,
            })
            .sum();
        // One second of 8 kHz mono ulaw = 8000 bytes.
        assert_eq!(audio, 8_000);
    }
}
