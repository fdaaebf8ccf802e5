//! The selective-compression policy (§2.2).
//!
//! "Audio channels with low bit-rates are still sent uncompressed
//! because the use of Ogg Vorbis introduces latency and increases the
//! workload on the sender. The selective use of compression can be
//! enhanced by allowing the rebroadcast application to select the Ogg
//! Vorbis compression rate."

use es_audio::AudioConfig;
use es_codec::{CodecId, MAX_QUALITY};

/// Chooses the codec for a stream from its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionPolicy {
    /// Always send raw PCM (the early system the paper describes, with
    /// its ~1.3 Mbps per CD stream).
    Never,
    /// Always use the given codec at the given quality.
    Always {
        /// Codec to apply.
        codec: CodecId,
        /// Quality index (OVL only).
        quality: u8,
    },
    /// Compress only streams above a bit-rate threshold; quality may
    /// shrink as the raw rate grows ("more aggressive compression ...
    /// on high bit-rate audio channels where audio quality is less of a
    /// concern").
    Auto {
        /// Streams at or below this raw bit rate stay uncompressed.
        threshold_bps: u64,
        /// Quality used for streams just above the threshold.
        quality: u8,
    },
}

impl CompressionPolicy {
    /// The paper's configuration: compress CD-quality streams with the
    /// lossy codec at maximum quality ("we simply set the Ogg Vorbis
    /// quality index to its maximum"), leave telephone-grade channels
    /// alone.
    pub fn paper_default() -> Self {
        CompressionPolicy::Auto {
            threshold_bps: 256_000,
            quality: MAX_QUALITY,
        }
    }

    /// Resolves the codec and quality for a stream configuration.
    pub fn select(&self, cfg: &AudioConfig) -> (CodecId, u8) {
        match *self {
            CompressionPolicy::Never => (CodecId::Pcm, 0),
            CompressionPolicy::Always { codec, quality } => (codec, quality.min(MAX_QUALITY)),
            CompressionPolicy::Auto {
                threshold_bps,
                quality,
            } => {
                if cfg.bits_per_second() <= threshold_bps {
                    // "Still sent uncompressed" — i.e. in the stream's
                    // own raw form: companded channels stay 8-bit.
                    match cfg.encoding {
                        es_audio::Encoding::ULaw | es_audio::Encoding::ALaw => (CodecId::ULaw, 0),
                        _ => (CodecId::Pcm, 0),
                    }
                } else {
                    (CodecId::Ovl, quality.min(MAX_QUALITY))
                }
            }
        }
    }

    /// The codec wire ids this policy could ever put on the wire for
    /// `cfg` — the stream's capability advertisement. [`Self::Auto`]
    /// advertises both its branches (uncompressed fallback plus the
    /// compressed choice) because the rebroadcast application may
    /// re-select as the configured rate changes; the fixed policies
    /// advertise exactly their one codec. Sorted, deduplicated.
    pub fn advertised_codecs(&self, cfg: &AudioConfig) -> Vec<u8> {
        let mut out = match *self {
            CompressionPolicy::Never => vec![CodecId::Pcm.to_wire()],
            CompressionPolicy::Always { codec, .. } => vec![codec.to_wire()],
            CompressionPolicy::Auto { .. } => {
                let raw = match cfg.encoding {
                    es_audio::Encoding::ULaw | es_audio::Encoding::ALaw => CodecId::ULaw,
                    _ => CodecId::Pcm,
                };
                vec![self.select(cfg).0.to_wire(), raw.to_wire()]
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl Default for CompressionPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_compresses_cd_not_phone() {
        let p = CompressionPolicy::paper_default();
        assert_eq!(p.select(&AudioConfig::CD), (CodecId::Ovl, MAX_QUALITY));
        // The phone channel is companded: its "raw" form is ulaw bytes.
        assert_eq!(p.select(&AudioConfig::PHONE), (CodecId::ULaw, 0));
    }

    #[test]
    fn never_always() {
        assert_eq!(
            CompressionPolicy::Never.select(&AudioConfig::CD),
            (CodecId::Pcm, 0)
        );
        // Not what the paper default picks for a phone channel.
        let p = CompressionPolicy::Always {
            codec: CodecId::Ovl,
            quality: 3,
        };
        assert_eq!(p.select(&AudioConfig::PHONE), (CodecId::Ovl, 3));
    }

    #[test]
    fn quality_clamped() {
        let p = CompressionPolicy::Always {
            codec: CodecId::Ovl,
            quality: 200,
        };
        assert_eq!(p.select(&AudioConfig::CD).1, MAX_QUALITY);
    }

    #[test]
    fn threshold_boundary() {
        let p = CompressionPolicy::Auto {
            threshold_bps: AudioConfig::CD.bits_per_second(),
            quality: 5,
        };
        // At the threshold: uncompressed.
        assert_eq!(p.select(&AudioConfig::CD).0, CodecId::Pcm);
        let just_above = AudioConfig {
            sample_rate: 48_000,
            ..AudioConfig::CD
        };
        assert_eq!(p.select(&just_above).0, CodecId::Ovl);
    }
}
