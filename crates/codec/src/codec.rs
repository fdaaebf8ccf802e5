//! The codec registry: one uniform encode/decode surface.
//!
//! The rebroadcaster picks a codec per stream (§2.2's selective
//! compression policy); the wire protocol carries the codec id in every
//! data packet so a speaker can decode any stream it tunes to without
//! negotiating with the producer (§2.3's stateless design).

use es_audio::convert::{decode_samples_into, encode_samples};
use es_audio::Encoding;

use crate::adpcm::{adpcm_decode_into, adpcm_encode, AdpcmError};
use crate::ovl::{OvlCodec, OvlError, MAX_QUALITY};

/// Wire identifiers for payload codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Uncompressed signed 16-bit little-endian PCM — what early
    /// versions of the paper's system sent ("the raw data as it was
    /// extracted from the VAD").
    Pcm = 0,
    /// G.711 µ-law, 2:1 on 16-bit sources, negligible CPU.
    ULaw = 1,
    /// IMA ADPCM, 4:1, negligible CPU.
    Adpcm = 2,
    /// The OVL lossy transform codec (the Ogg Vorbis stand-in), best
    /// ratio, highest CPU.
    Ovl = 3,
}

impl CodecId {
    /// All codecs, for exhaustive tests and sweeps.
    pub const ALL: [CodecId; 4] = [CodecId::Pcm, CodecId::ULaw, CodecId::Adpcm, CodecId::Ovl];

    /// Wire discriminant.
    pub const fn to_wire(self) -> u8 {
        self as u8
    }

    /// Decodes the wire discriminant.
    pub const fn from_wire(v: u8) -> Option<CodecId> {
        Some(match v {
            0 => CodecId::Pcm,
            1 => CodecId::ULaw,
            2 => CodecId::Adpcm,
            3 => CodecId::Ovl,
            _ => return None,
        })
    }
}

impl core::fmt::Display for CodecId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            CodecId::Pcm => "pcm",
            CodecId::ULaw => "ulaw",
            CodecId::Adpcm => "adpcm",
            CodecId::Ovl => "ovl",
        })
    }
}

/// Errors from the uniform codec surface.
#[derive(Debug)]
pub enum CodecError {
    /// Unknown wire codec id.
    UnknownCodec(u8),
    /// OVL payload problem.
    Ovl(OvlError),
    /// ADPCM payload problem.
    Adpcm(AdpcmError),
    /// The payload's channel layout disagrees with the stream config.
    ChannelMismatch {
        /// Channels the stream configuration promises.
        expected: u8,
        /// Channels found in the payload.
        got: u8,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::Ovl(e) => write!(f, "ovl: {e}"),
            CodecError::Adpcm(e) => write!(f, "adpcm: {e}"),
            CodecError::ChannelMismatch { expected, got } => {
                write!(
                    f,
                    "payload has {got} channels, stream config says {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<OvlError> for CodecError {
    fn from(e: OvlError) -> Self {
        CodecError::Ovl(e)
    }
}

impl From<AdpcmError> for CodecError {
    fn from(e: AdpcmError) -> Self {
        CodecError::Adpcm(e)
    }
}

/// An encoded packet payload plus its cost accounting.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Codec that produced the payload.
    pub codec: CodecId,
    /// The payload bytes.
    pub bytes: Vec<u8>,
    /// Abstract CPU work performed (multiply-accumulate scale; see the
    /// Figure 4 calibration in `es-bench`).
    pub work_units: u64,
}

/// A codec engine holding the expensive precomputed state (MDCT
/// tables). Reuse one per producer/speaker.
pub struct Codecs {
    ovl: OvlCodec,
}

impl Default for Codecs {
    fn default() -> Self {
        Self::new()
    }
}

impl Codecs {
    /// Creates the engine with the default (fast-path) cost model.
    pub fn new() -> Self {
        Codecs::with_cost_model(es_sim::CostModel::default())
    }

    /// Creates the engine billing transform work under `cost_model`
    /// (see [`es_sim::CostModel`]); execution is identical either way.
    pub fn with_cost_model(cost_model: es_sim::CostModel) -> Self {
        Codecs {
            ovl: OvlCodec::with_cost_model(cost_model),
        }
    }

    /// Encodes interleaved samples with the chosen codec. `quality`
    /// only affects [`CodecId::Ovl`].
    ///
    /// # Panics
    ///
    /// Panics if `channels` is 0 or the sample count is not a multiple
    /// of the channel count (caller bugs, not data errors).
    pub fn encode(&self, codec: CodecId, samples: &[i16], channels: u8, quality: u8) -> Encoded {
        assert!(channels >= 1, "need at least one channel");
        assert!(
            samples.len().is_multiple_of(channels as usize),
            "torn final frame"
        );
        match codec {
            CodecId::Pcm => Encoded {
                codec,
                bytes: encode_samples(samples, Encoding::Slinear16Le),
                work_units: samples.len() as u64,
            },
            CodecId::ULaw => Encoded {
                codec,
                bytes: encode_samples(samples, Encoding::ULaw),
                work_units: samples.len() as u64 * 2,
            },
            CodecId::Adpcm => Encoded {
                codec,
                bytes: adpcm_encode(samples, channels),
                work_units: samples.len() as u64 * 4,
            },
            CodecId::Ovl => {
                let out = self.ovl.encode(samples, channels, quality.min(MAX_QUALITY));
                Encoded {
                    codec,
                    bytes: out.bytes,
                    work_units: out.work_units,
                }
            }
        }
    }

    /// Decodes a payload back to interleaved samples. `channels` is the
    /// stream configuration's channel count; self-describing payloads
    /// (OVL, ADPCM) are cross-checked against it.
    pub fn decode(
        &self,
        codec: CodecId,
        bytes: &[u8],
        channels: u8,
    ) -> Result<(Vec<i16>, u64), CodecError> {
        let mut out = Vec::new();
        let work = self.decode_into(codec, bytes, channels, &mut out)?;
        Ok((out, work))
    }

    /// [`Codecs::decode`] into a caller-provided buffer (cleared
    /// first), returning the work units. Reusing `out` across packets
    /// makes the steady-state decode path allocation-free end to end —
    /// the speakers' shared decode threads a recycled buffer through
    /// here.
    pub fn decode_into(
        &self,
        codec: CodecId,
        bytes: &[u8],
        channels: u8,
        out: &mut Vec<i16>,
    ) -> Result<u64, CodecError> {
        match codec {
            CodecId::Pcm => {
                decode_samples_into(bytes, Encoding::Slinear16Le, out);
                Ok(out.len() as u64)
            }
            CodecId::ULaw => {
                decode_samples_into(bytes, Encoding::ULaw, out);
                Ok(out.len() as u64 * 2)
            }
            CodecId::Adpcm => {
                let ch = adpcm_decode_into(bytes, out)?;
                if ch != channels {
                    return Err(CodecError::ChannelMismatch {
                        expected: channels,
                        got: ch,
                    });
                }
                Ok(out.len() as u64 * 4)
            }
            CodecId::Ovl => {
                let (ch, work) = self.ovl.decode_into(bytes, out)?;
                if ch != channels {
                    return Err(CodecError::ChannelMismatch {
                        expected: channels,
                        got: ch,
                    });
                }
                Ok(work)
            }
        }
    }

    /// Decodes by wire id, for protocol paths.
    pub fn decode_wire(
        &self,
        wire_codec: u8,
        bytes: &[u8],
        channels: u8,
    ) -> Result<(Vec<i16>, u64), CodecError> {
        let codec = CodecId::from_wire(wire_codec).ok_or(CodecError::UnknownCodec(wire_codec))?;
        self.decode(codec, bytes, channels)
    }

    /// [`Codecs::decode_wire`] into a caller-provided buffer.
    pub fn decode_wire_into(
        &self,
        wire_codec: u8,
        bytes: &[u8],
        channels: u8,
        out: &mut Vec<i16>,
    ) -> Result<u64, CodecError> {
        let codec = CodecId::from_wire(wire_codec).ok_or(CodecError::UnknownCodec(wire_codec))?;
        self.decode_into(codec, bytes, channels, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_audio::analysis::snr_db;
    use es_audio::gen::{render_stereo, MultiTone, Sine};

    fn stereo(frames: usize) -> Vec<i16> {
        let mut l = MultiTone::music(44_100);
        let mut r = Sine::new(440.0, 44_100, 0.5);
        render_stereo(&mut l, &mut r, frames)
    }

    #[test]
    fn wire_id_roundtrip() {
        for c in CodecId::ALL {
            assert_eq!(CodecId::from_wire(c.to_wire()), Some(c));
        }
        assert_eq!(CodecId::from_wire(99), None);
    }

    #[test]
    fn pcm_is_lossless() {
        let codecs = Codecs::new();
        let s = stereo(1_000);
        let enc = codecs.encode(CodecId::Pcm, &s, 2, 0);
        assert_eq!(enc.bytes.len(), s.len() * 2);
        let (dec, _) = codecs.decode(CodecId::Pcm, &enc.bytes, 2).unwrap();
        assert_eq!(dec, s);
    }

    #[test]
    fn all_codecs_roundtrip_with_reasonable_snr() {
        let codecs = Codecs::new();
        let s = stereo(4_096);
        for c in CodecId::ALL {
            let enc = codecs.encode(c, &s, 2, 10);
            let (dec, _) = codecs.decode(c, &enc.bytes, 2).unwrap();
            assert_eq!(dec.len(), s.len(), "{c}");
            let snr = snr_db(&s, &dec).unwrap();
            let floor = match c {
                CodecId::Pcm => 100.0,
                CodecId::ULaw => 25.0,
                CodecId::Adpcm => 20.0,
                CodecId::Ovl => 25.0,
            };
            assert!(snr >= floor, "{c}: snr {snr} < {floor}");
        }
    }

    #[test]
    fn compression_ratios_are_ordered() {
        let codecs = Codecs::new();
        let s = stereo(8_192);
        let size = |c| codecs.encode(c, &s, 2, 10).bytes.len();
        let pcm = size(CodecId::Pcm);
        let ulaw = size(CodecId::ULaw);
        let adpcm = size(CodecId::Adpcm);
        let ovl = size(CodecId::Ovl);
        assert_eq!(ulaw * 2, pcm);
        assert!(adpcm < ulaw, "adpcm {adpcm} vs ulaw {ulaw}");
        assert!(ovl < pcm / 2, "ovl {ovl} vs pcm {pcm}");
    }

    #[test]
    fn ovl_costs_most_cpu() {
        // Under the default FFT accounting (fold + n/2-point FFT) OVL
        // is ~6x ADPCM; under the paper-fidelity direct model it stays
        // >100x.
        let codecs = Codecs::new();
        let s = stereo(4_096);
        let work = |c| codecs.encode(c, &s, 2, 10).work_units;
        assert!(work(CodecId::Ovl) > work(CodecId::Adpcm) * 5);
        assert!(work(CodecId::Adpcm) >= work(CodecId::ULaw));
        assert!(work(CodecId::ULaw) >= work(CodecId::Pcm));

        let paper = Codecs::with_cost_model(es_sim::CostModel::Direct);
        let direct_work = paper.encode(CodecId::Ovl, &s, 2, 10).work_units;
        assert!(direct_work > work(CodecId::Adpcm) * 100);
        assert!(
            direct_work > work(CodecId::Ovl) * 5,
            "direct billing must dominate"
        );
    }

    #[test]
    fn channel_mismatch_detected() {
        let codecs = Codecs::new();
        let s = stereo(1_024);
        for c in [CodecId::Adpcm, CodecId::Ovl] {
            let enc = codecs.encode(c, &s, 2, 10);
            assert!(matches!(
                codecs.decode(c, &enc.bytes, 1),
                Err(CodecError::ChannelMismatch {
                    expected: 1,
                    got: 2
                })
            ));
        }
    }

    #[test]
    fn unknown_wire_codec_rejected() {
        let codecs = Codecs::new();
        assert!(matches!(
            codecs.decode_wire(42, &[], 2),
            Err(CodecError::UnknownCodec(42))
        ));
        assert!(codecs.decode_wire(0, &[0, 0], 2).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::ChannelMismatch {
            expected: 2,
            got: 1,
        };
        assert!(format!("{e}").contains("1 channels"));
        assert!(format!("{}", CodecError::UnknownCodec(7)).contains('7'));
    }
}
