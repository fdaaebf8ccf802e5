//! IMA ADPCM (DVI4) — the cheap 4:1 compressor.
//!
//! §2.2 argues for *selective* compression: Ogg Vorbis buys the best
//! ratio but costs real CPU and latency, so low-bitrate channels go
//! uncompressed. ADPCM sits between the two: fixed 4 bits per sample,
//! negligible CPU, decent quality — a useful middle policy point for
//! the bandwidth/CPU trade-off experiments. The implementation is the
//! standard IMA step-size algorithm; packets are self-contained (each
//! carries its initial predictor state per channel).

/// IMA ADPCM step size table.
const STEP_TABLE: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// Index adjustment per 4-bit code.
const INDEX_TABLE: [i32; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

/// ADPCM decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdpcmError {
    /// Payload shorter than its header.
    ShortPayload,
    /// Header fields out of range.
    BadHeader(&'static str),
}

impl core::fmt::Display for AdpcmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdpcmError::ShortPayload => f.write_str("adpcm payload truncated"),
            AdpcmError::BadHeader(w) => write!(f, "adpcm header invalid: {w}"),
        }
    }
}

impl std::error::Error for AdpcmError {}

#[derive(Debug, Clone, Copy)]
struct ChannelState {
    predictor: i32,
    index: i32,
}

impl ChannelState {
    fn encode_sample(&mut self, sample: i16) -> u8 {
        let step = STEP_TABLE[self.index as usize];
        let mut diff = sample as i32 - self.predictor;
        let mut code: u8 = 0;
        if diff < 0 {
            code = 8;
            diff = -diff;
        }
        // Quantize diff/step to 3 magnitude bits.
        let mut temp = step;
        if diff >= temp {
            code |= 4;
            diff -= temp;
        }
        temp >>= 1;
        if diff >= temp {
            code |= 2;
            diff -= temp;
        }
        temp >>= 1;
        if diff >= temp {
            code |= 1;
        }
        self.step(code);
        code
    }

    /// Applies a 4-bit code to the predictor (shared by both encode and
    /// decode so their states stay bit-identical).
    fn step(&mut self, code: u8) {
        let step = STEP_TABLE[self.index as usize];
        let mut diff = step >> 3;
        if code & 4 != 0 {
            diff += step;
        }
        if code & 2 != 0 {
            diff += step >> 1;
        }
        if code & 1 != 0 {
            diff += step >> 2;
        }
        if code & 8 != 0 {
            self.predictor -= diff;
        } else {
            self.predictor += diff;
        }
        self.predictor = self.predictor.clamp(i16::MIN as i32, i16::MAX as i32);
        self.index = (self.index + INDEX_TABLE[code as usize]).clamp(0, 88);
    }
}

/// Encodes interleaved samples to a self-contained ADPCM packet.
///
/// Layout: `channels:u8`, `samples_per_channel:u32le`, then per channel
/// `predictor:i16le`, `index:u8`, then the nibble stream (per frame,
/// channel-interleaved, two codes per byte, zero-padded).
///
/// # Panics
///
/// Panics if `channels` is 0 or the sample count is not a multiple of
/// the channel count.
pub fn adpcm_encode(samples: &[i16], channels: u8) -> Vec<u8> {
    assert!(channels >= 1, "need at least one channel");
    assert!(
        samples.len().is_multiple_of(channels as usize),
        "sample count must be a multiple of the channel count"
    );
    let ch = channels as usize;
    let per_ch = samples.len() / ch;
    let mut out = Vec::with_capacity(5 + 3 * ch + samples.len() / 2 + 1);
    out.push(channels);
    out.extend_from_slice(&(per_ch as u32).to_le_bytes());

    let mut states: Vec<ChannelState> = (0..ch)
        .map(|c| {
            // Seed the predictor with the first sample and the step
            // index near the channel's early slope so the coder does
            // not spend its first hundred samples attacking.
            let predictor = if per_ch > 0 { samples[c] as i32 } else { 0 };
            let probe = per_ch.min(64);
            let mut mean_diff = 0i64;
            for f in 1..probe {
                mean_diff += (samples[f * ch + c] as i64 - samples[(f - 1) * ch + c] as i64).abs();
            }
            let mean_diff = if probe > 1 {
                (mean_diff / (probe as i64 - 1)) as i32
            } else {
                0
            };
            let index = STEP_TABLE
                .iter()
                .position(|&s| s >= mean_diff)
                .unwrap_or(STEP_TABLE.len() - 1) as i32;
            ChannelState { predictor, index }
        })
        .collect();
    for st in &states {
        out.extend_from_slice(&(st.predictor as i16).to_le_bytes());
        out.push(st.index as u8);
    }

    let mut nibble: Option<u8> = None;
    for f in 0..per_ch {
        for c in 0..ch {
            let code = states[c].encode_sample(samples[f * ch + c]);
            match nibble.take() {
                None => nibble = Some(code),
                Some(hi) => out.push((hi << 4) | code),
            }
        }
    }
    if let Some(hi) = nibble {
        out.push(hi << 4);
    }
    out
}

/// Decodes a packet produced by [`adpcm_encode`]. Returns interleaved
/// samples and the channel count.
pub fn adpcm_decode(bytes: &[u8]) -> Result<(Vec<i16>, u8), AdpcmError> {
    let mut out = Vec::new();
    let channels = adpcm_decode_into(bytes, &mut out)?;
    Ok((out, channels))
}

// es-hot-path
/// [`adpcm_decode`] into a caller-provided buffer (cleared and
/// resized), returning the channel count. Reusing `out` across packets
/// makes steady-state decode allocation-free; channel predictor state
/// lives in a fixed stack array (the header caps channels at 8).
pub fn adpcm_decode_into(bytes: &[u8], out: &mut Vec<i16>) -> Result<u8, AdpcmError> {
    if bytes.len() < 5 {
        return Err(AdpcmError::ShortPayload);
    }
    let channels = bytes[0];
    if !(1..=8).contains(&channels) {
        return Err(AdpcmError::BadHeader("channel count"));
    }
    let per_ch = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
    if per_ch > 1 << 24 {
        return Err(AdpcmError::BadHeader("sample count"));
    }
    let ch = channels as usize;
    let state_end = 5 + 3 * ch;
    if bytes.len() < state_end {
        return Err(AdpcmError::ShortPayload);
    }
    let mut states = [ChannelState {
        predictor: 0,
        index: 0,
    }; 8];
    for (c, state) in states.iter_mut().enumerate().take(ch) {
        let off = 5 + 3 * c;
        let predictor = i16::from_le_bytes([bytes[off], bytes[off + 1]]) as i32;
        let index = bytes[off + 2] as i32;
        if index > 88 {
            return Err(AdpcmError::BadHeader("step index"));
        }
        *state = ChannelState { predictor, index };
    }

    let total_codes = per_ch * ch;
    let need_bytes = total_codes.div_ceil(2);
    if bytes.len() < state_end + need_bytes {
        return Err(AdpcmError::ShortPayload);
    }
    let data = &bytes[state_end..];
    out.clear();
    out.resize(total_codes, 0);
    for (i, slot) in out.iter_mut().enumerate() {
        let byte = data[i / 2];
        let code = if i % 2 == 0 { byte >> 4 } else { byte & 0x0F };
        let c = i % ch;
        states[c].step(code);
        *slot = states[c].predictor as i16;
    }
    Ok(channels)
}

// es-hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::analysis::snr_db;
    use es_audio::gen::{render_stereo, MultiTone, Sine};

    fn stereo(frames: usize) -> Vec<i16> {
        let mut l = MultiTone::music(44_100);
        let mut r = Sine::new(660.0, 44_100, 0.5);
        render_stereo(&mut l, &mut r, frames)
    }

    #[test]
    fn compresses_4_to_1() {
        let s = stereo(4_096);
        let enc = adpcm_encode(&s, 2);
        let raw = s.len() * 2;
        // 4 bits/sample plus a small header.
        assert!(enc.len() < raw / 3, "{} vs {raw}", enc.len());
    }

    #[test]
    fn roundtrip_snr_is_reasonable() {
        let s = stereo(8_192);
        let (dec, ch) = adpcm_decode(&adpcm_encode(&s, 2)).unwrap();
        assert_eq!(ch, 2);
        assert_eq!(dec.len(), s.len());
        let snr = snr_db(&s, &dec).unwrap();
        assert!(snr > 20.0, "snr {snr}");
    }

    #[test]
    fn mono_and_odd_lengths() {
        let mut m = MultiTone::music(22_050);
        let s: Vec<i16> = (0..1_001)
            .map(|_| es_audio::gen::f32_to_i16(es_audio::gen::Signal::next_sample(&mut m)))
            .collect();
        let (dec, ch) = adpcm_decode(&adpcm_encode(&s, 1)).unwrap();
        assert_eq!(ch, 1);
        assert_eq!(dec.len(), 1_001);
        assert!(snr_db(&s, &dec).unwrap() > 15.0);
    }

    #[test]
    fn empty_input() {
        let enc = adpcm_encode(&[], 2);
        let (dec, _) = adpcm_decode(&enc).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn step_changes_track_signal_slope() {
        // A steep ramp should drive the index up.
        let ramp: Vec<i16> = (0..200).map(|i| (i * 300 - 30_000) as i16).collect();
        let enc = adpcm_encode(&ramp, 1);
        let (dec, _) = adpcm_decode(&enc).unwrap();
        // The decoded ramp must track within a coarse bound.
        for (a, b) in ramp.iter().zip(&dec).skip(20) {
            assert!((*a as i32 - *b as i32).abs() < 3_000, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_corrupt_headers() {
        assert_eq!(adpcm_decode(&[]), Err(AdpcmError::ShortPayload));
        assert_eq!(
            adpcm_decode(&[0, 1, 0, 0, 0]),
            Err(AdpcmError::BadHeader("channel count"))
        );
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            adpcm_decode(&bytes),
            Err(AdpcmError::BadHeader("sample count"))
        );
        // Bad step index.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 99]);
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(
            adpcm_decode(&bytes),
            Err(AdpcmError::BadHeader("step index"))
        );
    }

    #[test]
    fn rejects_truncated_nibble_stream() {
        let s = stereo(512);
        let enc = adpcm_encode(&s, 2);
        let cut = &enc[..enc.len() - 10];
        assert_eq!(adpcm_decode(cut), Err(AdpcmError::ShortPayload));
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip_shape(samples in proptest::collection::vec(-20_000i16..20_000, 2..500)) {
            // Any input decodes to the same length without panicking.
            let samples = if samples.len() % 2 == 1 { samples[..samples.len()-1].to_vec() } else { samples };
            let (dec, ch) = adpcm_decode(&adpcm_encode(&samples, 2)).unwrap();
            proptest::prop_assert_eq!(ch, 2);
            proptest::prop_assert_eq!(dec.len(), samples.len());
        }
    }
}
