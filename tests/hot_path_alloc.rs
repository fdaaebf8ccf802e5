//! The steady-state decode path does not allocate (DESIGN.md §7).
//!
//! A counting global allocator tallies every allocation per thread, so
//! tests running in parallel do not see each other's. Once warmed up,
//! the codec and conversion kernels must make none at all. A whole
//! one-speaker pipeline (producer, LAN, speaker, telemetry) is pinned
//! to its exact count instead: that count includes every allocation
//! made inside a called function, so a stray per-packet `Vec` anywhere
//! on the path moves it.

#![expect(
    unsafe_code,
    reason = "a global allocator implements the unsafe GlobalAlloc trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use es_audio::convert::{decode_samples_into, encode_samples_into};
use es_audio::gen::{render_interleaved, ImpulseTrain, MultiTone, Signal, WhiteNoise};
use es_audio::Encoding;
use es_codec::{dsp, CodecId, OvlCodec, MAX_QUALITY};
use es_core::prelude::*;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator may run while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (fresh, zeroed or grown) this thread makes inside `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A few seconds of varied audio: tonal, noisy and impulsive, mono and
/// stereo, at a length that is not a multiple of the codec block.
fn clips() -> Vec<(u8, Vec<i16>)> {
    let mut clips = Vec::new();
    for channels in [1u8, 2] {
        let signals: [Box<dyn Signal>; 3] = [
            Box::new(MultiTone::music(44_100)),
            Box::new(WhiteNoise::new(27, 0.6)),
            Box::new(ImpulseTrain::new(441, 0.9)),
        ];
        for mut signal in signals {
            clips.push((channels, render_interleaved(&mut *signal, channels, 5_000)));
        }
    }
    clips
}

#[test]
fn ovl_decode_into_does_not_allocate_once_warm() {
    let codec = OvlCodec::new();
    let packets: Vec<Vec<u8>> = clips()
        .iter()
        .flat_map(|(channels, clip)| {
            [0, 5, MAX_QUALITY].map(|q| codec.encode(clip, *channels, q).bytes)
        })
        .collect();
    let mut out = Vec::new();
    for packet in &packets {
        codec.decode_into(packet, &mut out).expect("decodes");
    }
    let n = allocations_during(|| {
        for _ in 0..10 {
            for packet in &packets {
                codec.decode_into(packet, &mut out).expect("decodes");
            }
        }
    });
    assert_eq!(n, 0, "OvlCodec::decode_into allocated");
}

#[test]
fn sample_conversion_does_not_allocate_once_warm() {
    let clips = clips();
    let (mut bytes, mut samples) = (Vec::new(), Vec::new());
    let mut round_trip = || {
        for (_, clip) in &clips {
            for enc in Encoding::ALL {
                encode_samples_into(clip, enc, &mut bytes);
                decode_samples_into(&bytes, enc, &mut samples);
            }
        }
    };
    round_trip();
    assert_eq!(
        allocations_during(round_trip),
        0,
        "encode_samples_into / decode_samples_into allocated"
    );
}

#[test]
fn dsp_kernels_do_not_allocate() {
    const STRIDE: usize = 5_120;
    let clip = render_interleaved(&mut MultiTone::music(44_100), 2, 5_000);
    let mut planes = vec![0.0f32; 2 * STRIDE];
    let mut quantized = vec![0i32; 64];
    let mut band = vec![0.0f32; 64];
    let n = allocations_during(|| {
        dsp::deinterleave_normalize(&clip, 2, &mut planes, STRIDE);
        let peak = dsp::peak_abs(&planes[..64]);
        dsp::quantize_band(&planes[..64], 127.0 / peak, 127, &mut quantized);
        dsp::dequantize_band(&quantized, peak / 127.0, 127, &mut band);
    });
    assert_eq!(n, 0, "an es_codec::dsp kernel allocated");
}

/// Allocations in 10 s of virtual time of one speaker playing one
/// channel under `policy`, after 2 s of warm-up.
fn pipeline_allocations(policy: CompressionPolicy) -> u64 {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "stream")
        .source(Source::Music)
        .duration(SimDuration::from_secs(13))
        .policy(policy);
    let mut sys = SystemBuilder::new(5)
        .channel(ch)
        .speaker(SpeakerSpec::new("es0", group))
        .build();
    sys.run_for(SimDuration::from_secs(2));
    let n = allocations_during(|| sys.run_for(SimDuration::from_secs(10)));
    assert!(sys.speaker(0).expect("built").stats().samples_played > 0);
    n
}

#[test]
fn one_speaker_pipelines_allocate_exactly_as_pinned() {
    let ovl = CompressionPolicy::Always {
        codec: CodecId::Ovl,
        quality: MAX_QUALITY,
    };
    let pinned = [
        ("ovl", pipeline_allocations(ovl), 5_855),
        ("pcm", pipeline_allocations(CompressionPolicy::Never), 5_855),
    ];
    for (name, measured, expected) in pinned {
        assert_eq!(
            measured, expected,
            "the {name} pipeline's allocation count moved; a change that adds or \
             removes allocations on purpose updates the pin"
        );
    }
}

/// Allocations in 10 s of virtual time of one speaker playing one OVL
/// channel at a playout delay of `delay_ms`, after 2 s of warm-up.
fn lapped_pipeline_allocations(delay_ms: u64) -> u64 {
    let group = McastGroup(1);
    let ch = ChannelSpec::new(1, group, "stream")
        .source(Source::Music)
        .duration(SimDuration::from_secs(13))
        .playout_delay(SimDuration::from_millis(delay_ms))
        .policy(CompressionPolicy::Always {
            codec: CodecId::Ovl,
            quality: MAX_QUALITY,
        });
    let mut sys = SystemBuilder::new(5)
        .channel(ch)
        .speaker(SpeakerSpec::new("es0", group))
        .build();
    sys.run_for(SimDuration::from_secs(2));
    let n = allocations_during(|| sys.run_for(SimDuration::from_secs(10)));
    assert!(sys.speaker(0).expect("built").stats().samples_played > 0);
    n
}

#[test]
fn a_long_playout_delay_allocates_as_pinned() {
    // At 400 ms a block waits 8 blocks of 50 ms for its deadline, past
    // the decode memo's 8 slots: the memo lets go of a block the
    // speaker still holds, and its memory must come back once the
    // speaker drops it, or each packet allocates its block again.
    for (delay_ms, expected) in [(200, 5_855), (400, 5_855)] {
        assert_eq!(
            lapped_pipeline_allocations(delay_ms),
            expected,
            "the OVL pipeline's allocation count at a {delay_ms} ms playout delay moved"
        );
    }
}
