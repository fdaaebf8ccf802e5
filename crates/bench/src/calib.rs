//! Calibration constants for the Geode-class experiments, with their
//! derivations.
//!
//! The paper's testbed was a Neoware EON 4000: a 233 MHz National
//! Semiconductor Geode with 64 MB RAM (§3.4). Two experiments depend on
//! modelling that hardware; everything the model assumes is collected
//! here so EXPERIMENTS.md can point at one place.
//!
//! # Figure 4 — CPU cost of compression
//!
//! `es-codec` bills OVL encodes in *work units* (multiply-accumulate
//! count, dominated by the direct O(N²) MDCT: 512×1024 MACs per
//! window). At 50 ms packets, one second of CD stereo costs ≈ 126 M
//! work units. The paper's codec (libvorbis, FFT-based) does roughly
//! 4.8× less arithmetic per window, and Figure 4's slope implies one
//! CD stream cost ≈ 11% of the 233 MHz Geode (four streams ≈ 45%,
//! eight approaching saturation) — i.e. ≈ 26 M cycles/s/stream. The
//! billing rate is therefore 26 M / 126 M ≈ **0.21 cycles per work
//! unit** (`work_to_cycles` in `es-rebroadcast`, `decode_work_to_cycles`
//! in `es-speaker`).
//!
//! These constants are calibrated against `es_codec::CostModel::Direct`
//! accounting (the paper-era O(N²) transform). The codec's execution
//! path is always the O(N log N) FFT; the Figure 4 and §3.4 experiments
//! explicitly select `CostModel::Direct` so the billed work stays on
//! this calibration, while everything else defaults to
//! `CostModel::Fft`, which bills ≈ 57× less per transform at N = 512
//! (fold + N/2-point FFT, 9216 work units against 524 288; ≈ 50× less
//! for a whole OVL packet).
//!
//! # Figure 5 — context-switch rates
//!
//! `vmstat` counts one switch per change of the running context,
//! including to/from the idle loop. The three configurations:
//!
//! - **Unloaded**: background daemons (cron, syslogd, network
//!   housekeeping) waking at Poisson rate λ = 2.1/s, each wakeup
//!   costing two switches (idle → daemon → idle) → mean 4.2/interval,
//!   the paper's unloaded mean.
//! - **Kernel-threaded VAD**: adds the VAD's kernel thread, which wakes
//!   every poll period to run the interrupt routine, plus the audio
//!   application unblocking from `write(2)` in the same batch. The
//!   back-to-back dispatch idle → kthread → app → idle costs 3
//!   switches; the paper's mean of 28.716 implies (28.7 − 4.2)/3 ≈ 8.2
//!   cycles/s → a **122 ms poll period**.
//! - **User-level VAD**: the same cycle plus the user-space streaming
//!   process (idle → kthread → app → reader → idle, 4 switches). At
//!   the *same* 122 ms poll this gives 4.2 + 4 × 8.2 ≈ 37.0 — the
//!   paper's 37.2. That one poll period explains both lines is what
//!   makes the calibration credible.
//!
//! The poll periods stand in for OpenBSD's (undocumented) audio-timeout
//! geometry on the authors' build; what the reproduction claims is the
//! *ordering and ratios* — user-level > in-kernel > unloaded, both
//! streaming configurations ≈ 7–9× the unloaded machine, and the §3.3
//! conclusion that the user-level overhead "is not significant" next to
//! compression (compare Figure 4's cost).

use es_sim::SimDuration;

/// The Geode's clock rate (§3.4).
pub const GEODE_HZ: u64 = 233_000_000;

/// `vmstat` sampling interval used by Figure 5.
pub const VMSTAT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Background daemon wakeup rate on the unloaded machine (wakeups/s);
/// two switches each → the paper's 4.2 mean.
pub const UNLOADED_DAEMON_RATE: f64 = 2.1;

/// CPU burst per daemon wakeup.
pub const DAEMON_BURST: SimDuration = SimDuration::from_micros(40);

/// VAD kernel-thread poll period (both streaming configurations; see
/// the module docs for the derivation from the paper's means).
pub const KTHREAD_POLL: SimDuration = SimDuration::from_millis(122);

/// Alias kept for readability at call sites.
pub const USERLEVEL_POLL: SimDuration = KTHREAD_POLL;

/// CPU burst for a kernel-thread drain pass.
pub const KTHREAD_BURST: SimDuration = SimDuration::from_micros(60);

/// CPU burst for the user-level reader's `read(2)` + send pass.
pub const READER_BURST: SimDuration = SimDuration::from_micros(120);

/// CPU burst for the audio application's unblocked `write(2)`.
pub const APP_BURST: SimDuration = SimDuration::from_micros(80);

/// Duration of each Figure 4/5 run (the paper plots 60 s).
pub const RUN_SECONDS: u64 = 60;

/// Measurement window: skip the first second (pipeline warm-up), take
/// the next [`RUN_SECONDS`].
pub const WARMUP: SimDuration = SimDuration::from_secs(1);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_arithmetic_matches_paper_means() {
        // Unloaded: 2 switches per daemon wakeup.
        assert!((UNLOADED_DAEMON_RATE * 2.0 - 4.2).abs() < 1e-9);
        // Kernel-threaded: 3 switches per drain cycle
        // (idle -> kthread -> app -> idle).
        let kt = 4.2 + 3.0 * (1000.0 / KTHREAD_POLL.as_millis() as f64);
        assert!((kt - 28.7).abs() < 0.8, "kthread mean model: {kt}");
        // User-level: 4 switches per drain cycle (+ reader).
        let ul = 4.2 + 4.0 * (1000.0 / USERLEVEL_POLL.as_millis() as f64);
        assert!((ul - 37.2).abs() < 0.8, "user-level mean model: {ul}");
    }

    #[test]
    fn figure4_per_stream_cost_is_plausible() {
        // One CD stream ≈ 26 Mcycles/s ≈ 11% of the Geode.
        let stream_cycles = es_rebroadcast::producer::work_to_cycles(126_000_000) as f64;
        let share = stream_cycles / GEODE_HZ as f64;
        assert!((0.09..0.14).contains(&share), "per-stream share {share}");
    }
}
