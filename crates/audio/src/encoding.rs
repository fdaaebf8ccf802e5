//! Audio stream parameters, mirroring OpenBSD `audio(4)`.
//!
//! The paper's key observation (§2.1) is that whatever exotic format an
//! application decodes, the data crossing the `audio(4)` system-call
//! boundary uses a *small, standardized* set of encodings configured
//! with `AUDIO_SETINFO`. This module is that set: the encoding enum,
//! the `audio_info`-style configuration block, and the rate arithmetic
//! (bytes per second, duration of a buffer) that the rate limiter
//! (§3.1) and the synchronization logic (§3.2) are built on.

use core::fmt;

/// Errors from configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Sample rate outside the supported range.
    BadSampleRate(u32),
    /// Channel count outside the supported range.
    BadChannels(u8),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadSampleRate(r) => {
                write!(
                    f,
                    "sample rate {r} Hz outside supported range 1000..=192000"
                )
            }
            ConfigError::BadChannels(c) => {
                write!(f, "channel count {c} outside supported range 1..=8")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Sample encodings, the subset of `audio(4)`'s `AUDIO_ENCODING_*`
/// values the Ethernet Speaker system handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Encoding {
    /// ITU-T G.711 µ-law companded, 8 bits per sample.
    ULaw = 0,
    /// ITU-T G.711 A-law companded, 8 bits per sample.
    ALaw = 1,
    /// Signed 8-bit linear PCM.
    Slinear8 = 2,
    /// Unsigned 8-bit linear PCM.
    Ulinear8 = 3,
    /// Signed 16-bit little-endian linear PCM (the CD-quality wire
    /// format in all the paper's experiments).
    Slinear16Le = 4,
    /// Signed 16-bit big-endian linear PCM (what the SUN Ultra 10 in
    /// the paper's testbed speaks natively).
    Slinear16Be = 5,
    /// Unsigned 16-bit little-endian linear PCM.
    Ulinear16Le = 6,
    /// Unsigned 16-bit big-endian linear PCM.
    Ulinear16Be = 7,
}

impl Encoding {
    /// All supported encodings, for exhaustive tests.
    pub const ALL: [Encoding; 8] = [
        Encoding::ULaw,
        Encoding::ALaw,
        Encoding::Slinear8,
        Encoding::Ulinear8,
        Encoding::Slinear16Le,
        Encoding::Slinear16Be,
        Encoding::Ulinear16Le,
        Encoding::Ulinear16Be,
    ];

    /// Bytes occupied by one sample of one channel.
    pub const fn bytes_per_sample(self) -> u32 {
        match self {
            Encoding::ULaw | Encoding::ALaw | Encoding::Slinear8 | Encoding::Ulinear8 => 1,
            _ => 2,
        }
    }

    /// Decodes the wire discriminant, for protocol parsing.
    pub const fn from_wire(v: u8) -> Option<Encoding> {
        Some(match v {
            0 => Encoding::ULaw,
            1 => Encoding::ALaw,
            2 => Encoding::Slinear8,
            3 => Encoding::Ulinear8,
            4 => Encoding::Slinear16Le,
            5 => Encoding::Slinear16Be,
            6 => Encoding::Ulinear16Le,
            7 => Encoding::Ulinear16Be,
            _ => return None,
        })
    }

    /// The wire discriminant.
    pub const fn to_wire(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Encoding::ULaw => "ulaw",
            Encoding::ALaw => "alaw",
            Encoding::Slinear8 => "slinear8",
            Encoding::Ulinear8 => "ulinear8",
            Encoding::Slinear16Le => "slinear16le",
            Encoding::Slinear16Be => "slinear16be",
            Encoding::Ulinear16Le => "ulinear16le",
            Encoding::Ulinear16Be => "ulinear16be",
        };
        f.write_str(s)
    }
}

/// The `audio_info`-style configuration an application sets with
/// `AUDIO_SETINFO` and the VAD forwards to the rebroadcaster (§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AudioConfig {
    /// Samples per second per channel.
    pub sample_rate: u32,
    /// Interleaved channel count (1 = mono, 2 = stereo).
    pub channels: u8,
    /// Sample encoding.
    pub encoding: Encoding,
}

impl AudioConfig {
    /// CD-quality stereo: 44.1 kHz, 2 channels, signed 16-bit LE.
    /// This is "a separate CD-quality stereo audio stream" from the
    /// Figure 4 caption; it costs 1 411 200 bits/s ≈ 1.35 Mibit/s on
    /// the wire, the "around 1.3Mbps" of §2.2.
    pub const CD: AudioConfig = AudioConfig {
        sample_rate: 44_100,
        channels: 2,
        encoding: Encoding::Slinear16Le,
    };

    /// Telephone-quality mono µ-law: 8 kHz — the paper's example of a
    /// "low bit-rate channel" that is cheaper to send uncompressed.
    pub const PHONE: AudioConfig = AudioConfig {
        sample_rate: 8_000,
        channels: 1,
        encoding: Encoding::ULaw,
    };

    /// Validates rate and channel ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1_000..=192_000).contains(&self.sample_rate) {
            return Err(ConfigError::BadSampleRate(self.sample_rate));
        }
        if !(1..=8).contains(&self.channels) {
            return Err(ConfigError::BadChannels(self.channels));
        }
        Ok(())
    }

    /// Bytes per frame (one sample for every channel).
    pub const fn bytes_per_frame(&self) -> u32 {
        self.encoding.bytes_per_sample() * self.channels as u32
    }

    /// Bytes per second of real-time audio in this configuration — the
    /// quantity the rate limiter (§3.1) divides by.
    pub const fn bytes_per_second(&self) -> u64 {
        self.bytes_per_frame() as u64 * self.sample_rate as u64
    }

    /// Bits per second on the wire, uncompressed.
    pub const fn bits_per_second(&self) -> u64 {
        self.bytes_per_second() * 8
    }

    /// How long `bytes` of audio takes to play, in nanoseconds.
    ///
    /// "The actual duration of this sleep is calculated using the
    /// various encoding parameters such as the sample rate and
    /// precision" (§3.1). Bytes that do not divide evenly into frames
    /// still count proportionally.
    pub fn nanos_for_bytes(&self, bytes: u64) -> u64 {
        let bps = self.bytes_per_second();
        ((bytes as u128 * 1_000_000_000) / bps as u128) as u64
    }

    /// How many bytes of audio play in `nanos` nanoseconds (truncating
    /// to whole frames).
    pub fn bytes_for_nanos(&self, nanos: u64) -> u64 {
        let bps = self.bytes_per_second();
        let raw = (nanos as u128 * bps as u128 / 1_000_000_000) as u64;
        let frame = self.bytes_per_frame() as u64;
        raw / frame * frame
    }
}

impl Default for AudioConfig {
    fn default() -> Self {
        AudioConfig::CD
    }
}

impl fmt::Display for AudioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} Hz x{} {}",
            self.sample_rate, self.channels, self.encoding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd_quality_matches_paper_bandwidth() {
        let cd = AudioConfig::CD;
        assert_eq!(cd.bytes_per_second(), 176_400);
        assert_eq!(cd.bits_per_second(), 1_411_200);
        // "around 1.3Mbps" in Mebibits.
        let mibps = cd.bits_per_second() as f64 / (1024.0 * 1024.0);
        assert!((mibps - 1.35).abs() < 0.01, "{mibps}");
    }

    #[test]
    fn frame_arithmetic() {
        let cd = AudioConfig::CD;
        assert_eq!(cd.bytes_per_frame(), 4);
        let phone = AudioConfig::PHONE;
        assert_eq!(phone.bytes_per_frame(), 1);
        assert_eq!(phone.bytes_per_second(), 8_000);
    }

    #[test]
    fn duration_roundtrip() {
        let cd = AudioConfig::CD;
        // One second of CD audio.
        assert_eq!(cd.nanos_for_bytes(176_400), 1_000_000_000);
        assert_eq!(cd.bytes_for_nanos(1_000_000_000), 176_400);
        // Truncates to whole frames.
        assert_eq!(cd.bytes_for_nanos(30_000) % 4, 0);
    }

    #[test]
    fn five_second_clip_takes_five_seconds() {
        // §3.1's titular property, at the arithmetic level.
        let cd = AudioConfig::CD;
        let clip = cd.bytes_per_second() * 5;
        assert_eq!(cd.nanos_for_bytes(clip), 5_000_000_000);
    }

    #[test]
    fn validation() {
        assert!(AudioConfig::CD.validate().is_ok());
        assert!(AudioConfig::PHONE.validate().is_ok());
        let bad = AudioConfig {
            sample_rate: 500,
            ..AudioConfig::CD
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadSampleRate(500)));
        let bad = AudioConfig {
            channels: 0,
            ..AudioConfig::CD
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadChannels(0)));
        assert!(format!("{}", bad.validate().unwrap_err()).contains("channel"));
    }

    #[test]
    fn encoding_wire_roundtrip() {
        for e in Encoding::ALL {
            assert_eq!(Encoding::from_wire(e.to_wire()), Some(e));
        }
        assert_eq!(Encoding::from_wire(200), None);
    }

    #[test]
    fn encoding_sizes() {
        assert_eq!(Encoding::ULaw.bytes_per_sample(), 1);
        assert_eq!(Encoding::Slinear16Le.bytes_per_sample(), 2);
    }

    #[test]
    fn display_strings() {
        assert_eq!(format!("{}", AudioConfig::CD), "44100 Hz x2 slinear16le");
        assert_eq!(format!("{}", Encoding::ULaw), "ulaw");
    }
}
