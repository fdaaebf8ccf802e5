//! The `perf_hotpath` experiment: wall-clock throughput of the hot
//! paths this PR optimized, tracked as a JSON baseline.
//!
//! Four metric groups:
//!
//! - **mdct** — windows/s through the O(N log N) FFT transform vs. the
//!   retained direct O(N²) reference at the codec block size, and the
//!   resulting speedup (the acceptance floor is 5×).
//! - **companding** — G.711 Msamples/s through the table-driven decode
//!   and the batch encode loops.
//! - **packet** — wire-format encode/decode MB/s, encode measured
//!   through the reusable-buffer `encode_data_into` path.
//! - **pipeline** — end-to-end simulated system throughput: how many
//!   seconds of CD audio the full producer→LAN→speaker stack pushes
//!   per wall-clock second.
//!
//! The bench binary writes the report to `BENCH_PR3.json` at the repo
//! root; `ES_BENCH_BASELINE=<file>` compares a run against a saved
//! report and warns on >20% regressions. `ES_BENCH_QUICK=1` shrinks
//! iteration budgets for CI smoke tests.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use es_audio::convert::{decode_samples, encode_samples};
use es_audio::gen::{render_stereo, MultiTone, Sine};
use es_audio::Encoding;
use es_codec::mdct::Mdct;
use es_codec::reference::DirectMdct;
use es_core::{ChannelSpec, SpeakerSpec, SystemBuilder};
use es_net::McastGroup;
use es_proto::{encode_data_into, DataPacket};
use es_rebroadcast::CompressionPolicy;
use es_sim::{SimDuration, SimTime};
use es_telemetry::json::{self, JsonValue};

/// Codec block half-length the MDCT group measures (the OVL default).
pub const MDCT_N: usize = 512;

/// A perf report: ordered metric groups of `(name, value)` pairs.
/// Order is presentation order; the JSON object sorts keys itself.
pub struct PerfReport {
    /// Which experiment produced the report (the JSON `bench` tag).
    pub bench: String,
    /// True when the run used the shortened `ES_BENCH_QUICK` budgets.
    pub quick: bool,
    /// Metric groups: `(group, [(metric, value)])`.
    pub groups: Vec<(String, Vec<(String, f64)>)>,
}

impl PerfReport {
    /// Renders the report as a JSON object:
    /// `{"bench":"<bench>","quick":...,"<group>":{"<metric>":...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bench\":");
        json::write_str(&mut out, &self.bench);
        out.push_str(",\"quick\":");
        out.push_str(if self.quick { "true" } else { "false" });
        for (group, metrics) in &self.groups {
            out.push(',');
            json::write_str(&mut out, group);
            out.push_str(":{");
            for (i, (name, value)) in metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, name);
                out.push(':');
                json::write_num(&mut out, *value);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Checks every metric is finite and strictly positive. Returns the
    /// offending `group.metric` on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (group, metrics) in &self.groups {
            for (name, value) in metrics {
                if !value.is_finite() || *value <= 0.0 {
                    return Err(format!("{group}.{name} = {value}"));
                }
            }
        }
        Ok(())
    }
}

/// Flattens a perf-report JSON document into `group.metric -> value`
/// pairs (skipping the non-numeric `bench`/`quick` fields).
pub fn flatten_metrics(doc: &str) -> Result<Vec<(String, f64)>, String> {
    let parsed = json::parse(doc).map_err(|e| e.to_string())?;
    let JsonValue::Obj(top) = parsed else {
        return Err("report is not a JSON object".into());
    };
    let mut flat = Vec::new();
    for (group, value) in &top {
        if let JsonValue::Obj(metrics) = value {
            for (name, v) in metrics {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("{group}.{name} is not a number"))?;
                flat.push((format!("{group}.{name}"), n));
            }
        }
    }
    Ok(flat)
}

/// Compares a current report against a baseline document, returning a
/// warning line per metric that regressed by more than 20%. Metrics
/// missing on either side are ignored (the set may grow across PRs).
/// Keys ending in `wall_seconds` are skipped: they are
/// lower-is-better, so the shared higher-is-better comparison would
/// flag an *improvement* — and every group already pairs them with a
/// rate of the right polarity (`x_realtime`, `x_realtime_aggregate`)
/// that carries the same signal, so the fleet sweep's aggregates are
/// gated alongside the pipeline numbers.
pub fn baseline_warnings(current: &str, baseline: &str) -> Result<Vec<String>, String> {
    let base: std::collections::BTreeMap<String, f64> =
        flatten_metrics(baseline)?.into_iter().collect();
    let mut warnings = Vec::new();
    for (key, now) in flatten_metrics(current)? {
        if key.ends_with("wall_seconds") {
            continue;
        }
        if let Some(&was) = base.get(&key) {
            if was > 0.0 && now < was * 0.8 {
                warnings.push(format!(
                    "regression: {key} {now:.3} vs baseline {was:.3} ({:+.1}%)",
                    (now / was - 1.0) * 100.0
                ));
            }
        }
    }
    Ok(warnings)
}

pub(crate) fn quick() -> bool {
    matches!(std::env::var("ES_BENCH_QUICK"), Ok(v) if v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Times `f` over `iters` iterations (after a short warmup) and
/// returns seconds per iteration.
fn secs_per_iter<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..iters / 10 + 1 {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    // Clamp away timer-resolution zeros so downstream rates stay
    // finite and positive even for degenerate quick runs.
    (start.elapsed().as_secs_f64() / iters as f64).max(1e-12)
}

fn stereo_music(frames: usize) -> Vec<i16> {
    let mut l = MultiTone::music(44_100);
    let mut r = Sine::new(523.25, 44_100, 0.4);
    render_stereo(&mut l, &mut r, frames)
}

/// MDCT group: FFT vs. direct-reference windows/s at [`MDCT_N`].
pub fn mdct_group(iters: u32) -> Vec<(String, f64)> {
    let fast = Mdct::new(MDCT_N);
    assert!(fast.uses_fft(), "N={MDCT_N} must take the FFT path");
    let reference = DirectMdct::new(MDCT_N);
    let time: Vec<f32> = (0..2 * MDCT_N)
        .map(|t| ((t * 37) % 255) as f32 - 127.0)
        .collect();
    let mut coeffs = vec![0.0f32; MDCT_N];
    let fft_spi = secs_per_iter(iters, || {
        fast.forward(&time, &mut coeffs);
        coeffs[0]
    });
    let direct_spi = secs_per_iter(iters, || {
        reference.forward(&time, &mut coeffs);
        coeffs[0]
    });
    let mut synth = vec![0.0f32; 2 * MDCT_N];
    let fft_inv_spi = secs_per_iter(iters, || {
        fast.inverse(&coeffs, &mut synth);
        synth[0]
    });
    vec![
        ("n".into(), MDCT_N as f64),
        ("fft_windows_per_sec".into(), 1.0 / fft_spi),
        ("fft_inverse_windows_per_sec".into(), 1.0 / fft_inv_spi),
        ("direct_windows_per_sec".into(), 1.0 / direct_spi),
        ("speedup".into(), direct_spi / fft_spi),
    ]
}

/// Companding group: G.711 Msamples/s both directions.
pub fn companding_group(iters: u32) -> Vec<(String, f64)> {
    let samples = stereo_music(44_100); // 1 s of CD stereo.
    let msamples = samples.len() as f64 / 1e6;
    let mut out = Vec::new();
    for (label, enc) in [("ulaw", Encoding::ULaw), ("alaw", Encoding::ALaw)] {
        let encode_spi = secs_per_iter(iters, || encode_samples(&samples, enc));
        let bytes = encode_samples(&samples, enc);
        let decode_spi = secs_per_iter(iters, || decode_samples(&bytes, enc));
        out.push((
            format!("{label}_encode_msamples_per_sec"),
            msamples / encode_spi,
        ));
        out.push((
            format!("{label}_decode_msamples_per_sec"),
            msamples / decode_spi,
        ));
    }
    out
}

/// Packet group: wire-format encode (reusable buffer) and decode MB/s.
pub fn packet_group(iters: u32) -> Vec<(String, f64)> {
    let pkt = DataPacket {
        stream_id: 1,
        seq: 42,
        play_at_us: 1_000_000,
        codec: 3,
        payload: bytes::Bytes::from(vec![0xA5u8; 1_400]),
    };
    let mut scratch = BytesMut::new();
    let encode_spi = secs_per_iter(iters, || {
        scratch.clear();
        encode_data_into(&pkt, &mut scratch);
        scratch.len()
    });
    let wire = es_proto::encode_data(&pkt);
    let decode_spi = secs_per_iter(iters, || es_proto::decode(&wire).expect("valid packet"));
    let mb = wire.len() as f64 / 1e6;
    vec![
        ("payload_bytes".into(), 1_400.0),
        ("encode_mb_per_sec".into(), mb / encode_spi),
        ("decode_mb_per_sec".into(), mb / decode_spi),
    ]
}

/// DSP-kernel group: Msamples/s through each batch kernel in
/// [`es_codec::dsp`] over one second of CD stereo, plus the zero-alloc
/// OVL decode rate the kernels compose into (`decode_into` against the
/// codec's reusable arena — no per-packet allocation after warm-up).
pub fn dsp_kernels_group(iters: u32) -> Vec<(String, f64)> {
    use es_codec::dsp;
    let samples = stereo_music(44_100); // 1 s of CD stereo.
    let frames = samples.len() / 2;
    let mframes = frames as f64 / 1e6;

    let mut plane = vec![0.0f32; frames];
    let deint_spi = secs_per_iter(iters, || {
        dsp::deinterleave_normalize(&samples, 2, 0, &mut plane);
        plane[0]
    });
    let mut inter = vec![0i16; samples.len()];
    let inter_spi = secs_per_iter(iters, || {
        dsp::interleave_denormalize(&plane, 2, 0, &mut inter);
        inter[0]
    });
    let scale = dsp::peak_abs(&plane).max(1e-6);
    let mut quantized = vec![0i32; frames];
    let quant_spi = secs_per_iter(iters, || {
        dsp::quantize_band(&plane, scale, 1023, &mut quantized);
        quantized[0]
    });
    let mut coeffs = vec![0.0f32; frames];
    let dequant_spi = secs_per_iter(iters, || {
        dsp::dequantize_band(&quantized, scale, 1023, &mut coeffs);
        coeffs[0]
    });
    let mut acc = vec![0.0f32; frames];
    let overlap_spi = secs_per_iter(iters, || {
        dsp::accumulate(&mut acc, &coeffs);
        acc[0]
    });
    let peak_spi = secs_per_iter(iters, || dsp::peak_abs(&plane));

    let codec = es_codec::OvlCodec::new();
    let encoded = codec.encode(&samples, 2, es_codec::MAX_QUALITY);
    let mut out = Vec::new();
    let decode_spi = secs_per_iter(iters / 4 + 1, || {
        codec
            .decode_into(&encoded.bytes, &mut out)
            .expect("valid packet");
        out.len()
    });

    vec![
        ("deinterleave_msamples_per_sec".into(), mframes / deint_spi),
        ("interleave_msamples_per_sec".into(), mframes / inter_spi),
        ("quantize_msamples_per_sec".into(), mframes / quant_spi),
        ("dequantize_msamples_per_sec".into(), mframes / dequant_spi),
        ("overlap_add_msamples_per_sec".into(), mframes / overlap_spi),
        ("peak_abs_msamples_per_sec".into(), mframes / peak_spi),
        (
            "ovl_decode_msamples_per_sec".into(),
            samples.len() as f64 / 1e6 / decode_spi,
        ),
    ]
}

/// Pipeline group: full simulated system (producer → LAN → speaker,
/// OVL at max quality) throughput in audio-seconds per wall-second.
pub fn pipeline_group(audio_seconds: u64) -> Vec<(String, f64)> {
    let group = McastGroup(1);
    let spec = ChannelSpec::new(1, group, "perf")
        .policy(CompressionPolicy::Always {
            codec: es_codec::CodecId::Ovl,
            quality: es_codec::MAX_QUALITY,
        })
        .duration(SimDuration::from_secs(audio_seconds));
    let mut sys = SystemBuilder::new(7)
        .channel(spec)
        .speaker(SpeakerSpec::new("spk", group))
        .build();
    let start = Instant::now();
    sys.run_until(SimTime::from_secs(audio_seconds + 1));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let produced = sys.rebroadcaster(0).stats();
    let played = sys
        .speaker(0)
        .map(|s| s.stats().samples_played)
        .unwrap_or(0);
    vec![
        ("audio_seconds".into(), audio_seconds as f64),
        ("wall_seconds".into(), wall),
        ("x_realtime".into(), audio_seconds as f64 / wall),
        (
            "payload_mb_per_sec".into(),
            produced.payload_bytes_out as f64 / 1e6 / wall,
        ),
        ("samples_played".into(), played as f64),
    ]
}

/// Runs all four groups and assembles the report.
pub fn run() -> PerfReport {
    let quick = quick();
    let iters: u32 = if quick { 30 } else { 400 };
    let audio_seconds: u64 = if quick { 2 } else { 10 };
    PerfReport {
        bench: "perf_hotpath".into(),
        quick,
        groups: vec![
            ("mdct".into(), mdct_group(iters)),
            ("companding".into(), companding_group(iters / 4 + 1)),
            ("packet".into(), packet_group(iters * 4)),
            ("pipeline".into(), pipeline_group(audio_seconds)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        PerfReport {
            bench: "perf_hotpath".into(),
            quick: true,
            groups: vec![
                ("mdct".into(), mdct_group(3)),
                ("companding".into(), companding_group(2)),
                ("packet".into(), packet_group(5)),
                ("pipeline".into(), pipeline_group(1)),
            ],
        }
    }

    #[test]
    fn report_is_valid_and_roundtrips_through_json() {
        let report = tiny_report();
        report.validate().expect("all metrics positive and finite");
        let doc = report.to_json();
        let flat = flatten_metrics(&doc).expect("parses");
        let total: usize = report.groups.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(flat.len(), total);
        assert!(flat.iter().any(|(k, _)| k == "mdct.speedup"));
        assert!(flat.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn validation_rejects_zero_and_nan() {
        let mut r = PerfReport {
            bench: "perf_hotpath".into(),
            quick: true,
            groups: vec![("g".into(), vec![("ok".into(), 1.0), ("bad".into(), 0.0)])],
        };
        assert!(r.validate().is_err());
        r.groups[0].1[1].1 = f64::NAN;
        assert!(r.validate().is_err());
        r.groups[0].1[1].1 = 2.5;
        assert!(r.validate().is_ok());
    }

    #[test]
    fn baseline_comparison_flags_regressions_only() {
        let old = r#"{"bench":"perf_hotpath","quick":true,"g":{"a":100,"b":100,"new_metric":1}}"#;
        let new = r#"{"bench":"perf_hotpath","quick":true,"g":{"a":79,"b":95,"other":9}}"#;
        let warnings = baseline_warnings(new, old).expect("both parse");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("g.a"));
        assert!(baseline_warnings(new, "not json").is_err());
    }

    #[test]
    fn baseline_comparison_covers_fleet_rates_and_skips_wall_clock() {
        // A fleet aggregate that regressed must warn; a wall-seconds
        // metric that *improved* (dropped) must not be mistaken for a
        // regression, and one that degraded stays a non-signal too —
        // the paired x_realtime rate is its gate.
        let old = concat!(
            r#"{"bench":"fleet","quick":true,"#,
            r#""fleet_0064":{"t1_x_realtime_aggregate":100,"t1_wall_seconds":10,"#,
            r#""t4_projected_wall_seconds":8},"#,
            r#""pipeline":{"x_realtime":50,"wall_seconds":4}}"#
        );
        let new = concat!(
            r#"{"bench":"fleet","quick":true,"#,
            r#""fleet_0064":{"t1_x_realtime_aggregate":70,"t1_wall_seconds":2,"#,
            r#""t4_projected_wall_seconds":30},"#,
            r#""pipeline":{"x_realtime":49,"wall_seconds":1}}"#
        );
        let warnings = baseline_warnings(new, old).expect("both parse");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("fleet_0064.t1_x_realtime_aggregate"));
    }

    #[test]
    fn fft_beats_direct_by_required_margin() {
        // The acceptance floor: ≥ 5× at N = 512. Use a real iteration
        // budget so the ratio is stable even under a debug build.
        let metrics = mdct_group(20);
        let speedup = metrics
            .iter()
            .find(|(k, _)| k == "speedup")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(speedup >= 5.0, "FFT speedup only {speedup:.2}x");
    }
}
