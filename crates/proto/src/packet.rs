//! The Ethernet Speaker wire format.
//!
//! §2.3's protocol in full:
//!
//! - **Control packets** are multicast "at regular intervals with the
//!   configuration of the audio driver" plus "a timestamp that serves
//!   as a wall clock for the ESs" (§3.2). A speaker must hold playback
//!   until it has one.
//! - **Data packets** carry the audio payload and "a timestamp within
//!   each audio data packet that instructs the ES when it should play
//!   the data", relative to the producer wall clock.
//! - **Announce packets** implement the MFTP-inspired out-of-band
//!   catalog the paper plans in §4.3: a well-known group lists the
//!   active channels so speakers can browse without tuning in.
//!
//! The producer keeps no per-client state; everything a late joiner
//! needs is in the periodic control packet. All integers are
//! little-endian; every packet ends with a CRC-32 of everything before
//! it.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use es_audio::{AudioConfig, Encoding};

use crate::crc::crc32;
use crate::fec::ParityPacket;
use crate::session::{Capabilities, SessionPacket};

/// Wire magic ("ES").
pub const MAGIC: u16 = 0xE5AB;

/// Protocol version this implementation speaks.
pub const VERSION: u8 = 1;

/// Flag: stream is a priority announcement that overrides music
/// channels (§5.3's crew-announcement use case).
pub const FLAG_PRIORITY: u16 = 0x0001;

/// Flag: packets of this stream carry an authentication trailer
/// (§5.1).
pub const FLAG_AUTHENTICATED: u16 = 0x0002;

/// Largest data-packet payload that still fits one Ethernet frame
/// (1472-byte UDP MTU minus the data-packet envelope).
pub const RECOMMENDED_MAX_PAYLOAD: usize = 1_472 - DATA_ENVELOPE;

/// Bytes of envelope around a data payload (header 10 + timestamp 8 +
/// codec 1 + length 4 + crc 4).
pub const DATA_ENVELOPE: usize = 10 + 8 + 1 + 4 + 4;

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than any valid packet.
    TooShort,
    /// Wrong magic number.
    BadMagic,
    /// Unsupported version.
    BadVersion(u8),
    /// CRC mismatch (corruption or truncation).
    BadCrc,
    /// Unknown packet type.
    BadType(u8),
    /// A field failed validation.
    BadField(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::TooShort => f.write_str("packet too short"),
            WireError::BadMagic => f.write_str("bad magic"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadCrc => f.write_str("crc mismatch"),
            WireError::BadType(t) => write!(f, "unknown packet type {t}"),
            WireError::BadField(w) => write!(f, "invalid field: {w}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The periodic control packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlPacket {
    /// Stream (channel) identifier.
    pub stream_id: u16,
    /// Monotone control sequence number.
    pub seq: u32,
    /// Producer wall clock in microseconds at send time (§3.2).
    pub producer_time_us: u64,
    /// The `audio(4)` configuration forwarded from the VAD.
    pub config: AudioConfig,
    /// Codec id data packets of this stream use.
    pub codec: u8,
    /// Codec quality index.
    pub quality: u8,
    /// How often control packets are sent, so speakers can detect a
    /// dead stream.
    pub control_interval_ms: u16,
    /// Stream flags ([`FLAG_PRIORITY`], [`FLAG_AUTHENTICATED`]).
    pub flags: u16,
}

/// An audio data packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Stream (channel) identifier.
    pub stream_id: u16,
    /// Monotone data sequence number.
    pub seq: u32,
    /// When to play this payload, on the producer timeline (§3.2).
    pub play_at_us: u64,
    /// Codec id of the payload.
    pub codec: u8,
    /// Encoded audio payload.
    pub payload: Bytes,
}

/// One catalog entry in an announce packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// Stream identifier.
    pub stream_id: u16,
    /// Multicast group carrying the stream.
    pub group: u16,
    /// Human-readable channel name.
    pub name: String,
    /// Codec id in use.
    pub codec: u8,
    /// Stream configuration.
    pub config: AudioConfig,
    /// Stream flags.
    pub flags: u16,
    /// Capability advertisement: the codec set this stream may put on
    /// the wire, its rate, and the device class it targets. Session
    /// negotiation validates SETUPs against this.
    pub caps: Capabilities,
}

/// The out-of-band catalog packet (§4.3's MFTP-style announcement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnouncePacket {
    /// Monotone announce sequence number.
    pub seq: u32,
    /// Producer wall clock at send time.
    pub producer_time_us: u64,
    /// Channels currently on the air.
    pub streams: Vec<StreamInfo>,
}

/// Any parsed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Periodic stream control.
    Control(ControlPacket),
    /// Audio data.
    Data(DataPacket),
    /// Channel catalog.
    Announce(AnnouncePacket),
    /// FEC parity (extension; see [`crate::fec`]).
    Parity(ParityPacket),
    /// Session control plane (extension; see [`crate::session`]).
    Session(SessionPacket),
}

impl Packet {
    /// The packet's stream id (announce packets use stream id 0).
    pub fn stream_id(&self) -> u16 {
        match self {
            Packet::Control(c) => c.stream_id,
            Packet::Data(d) => d.stream_id,
            Packet::Announce(_) => 0,
            Packet::Parity(p) => p.stream_id,
            Packet::Session(s) => s.stream_id(),
        }
    }
}

const TYPE_CONTROL: u8 = 1;
const TYPE_DATA: u8 = 2;
const TYPE_ANNOUNCE: u8 = 3;
const TYPE_PARITY: u8 = 4;
const TYPE_SESSION: u8 = 5;

fn put_header(buf: &mut BytesMut, ptype: u8, stream_id: u16, seq: u32) {
    buf.put_u16_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(ptype);
    buf.put_u16_le(stream_id);
    buf.put_u32_le(seq);
}

fn put_config(buf: &mut BytesMut, cfg: &AudioConfig) {
    buf.put_u32_le(cfg.sample_rate);
    buf.put_u8(cfg.channels);
    buf.put_u8(cfg.encoding.to_wire());
}

fn get_config(buf: &mut impl Buf) -> Result<AudioConfig, WireError> {
    if buf.remaining() < 6 {
        return Err(WireError::TooShort);
    }
    let sample_rate = buf.get_u32_le();
    let channels = buf.get_u8();
    let encoding = Encoding::from_wire(buf.get_u8()).ok_or(WireError::BadField("encoding"))?;
    let cfg = AudioConfig {
        sample_rate,
        channels,
        encoding,
    };
    cfg.validate().map_err(|_| WireError::BadField("config"))?;
    Ok(cfg)
}

/// Appends the CRC of everything written since `start`. The `_into`
/// encoders compute the checksum over their own region only, so a
/// caller may serialize into a buffer that already holds other bytes.
fn finish_into(buf: &mut BytesMut, start: usize) {
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Writes the common header for a session packet (the session module
/// shares this framing rather than inventing its own).
pub(crate) fn put_session_header(buf: &mut BytesMut, stream_id: u16, seq: u32) {
    put_header(buf, TYPE_SESSION, stream_id, seq);
}

/// Appends the region CRC for a session packet.
pub(crate) fn finish_session(buf: &mut BytesMut, start: usize) {
    finish_into(buf, start);
}

/// Writes one catalog entry (shared by announce and session OFFER).
pub(crate) fn put_stream_info(buf: &mut BytesMut, s: &StreamInfo) {
    buf.put_u16_le(s.stream_id);
    buf.put_u16_le(s.group);
    let name = s.name.as_bytes();
    let len = name.len().min(255);
    buf.put_u8(len as u8);
    buf.put_slice(&name[..len]);
    buf.put_u8(s.codec);
    put_config(buf, &s.config);
    buf.put_u16_le(s.flags);
    crate::session::put_caps(buf, &s.caps);
}

/// Reads one catalog entry (shared by announce and session OFFER).
pub(crate) fn get_stream_info(buf: &mut &[u8]) -> Result<StreamInfo, WireError> {
    if buf.remaining() < 5 {
        return Err(WireError::TooShort);
    }
    let stream_id = buf.get_u16_le();
    let group = buf.get_u16_le();
    let name_len = buf.get_u8() as usize;
    if buf.remaining() < name_len {
        return Err(WireError::TooShort);
    }
    let name = String::from_utf8(buf[..name_len].to_vec())
        .map_err(|_| WireError::BadField("stream name"))?;
    buf.advance(name_len);
    if buf.remaining() < 1 {
        return Err(WireError::TooShort);
    }
    let codec = buf.get_u8();
    let config = get_config(buf)?;
    if buf.remaining() < 2 {
        return Err(WireError::TooShort);
    }
    let flags = buf.get_u16_le();
    let caps = crate::session::get_caps(buf)?;
    Ok(StreamInfo {
        stream_id,
        group,
        name,
        codec,
        config,
        flags,
        caps,
    })
}

/// Serializes a control packet into `buf`, appending to any existing
/// contents. The allocation-free sibling of [`encode_control`]; hot
/// paths hand in a reusable scratch buffer.
pub fn encode_control_into(p: &ControlPacket, buf: &mut BytesMut) {
    let start = buf.len();
    buf.reserve(40);
    put_header(buf, TYPE_CONTROL, p.stream_id, p.seq);
    buf.put_u64_le(p.producer_time_us);
    put_config(buf, &p.config);
    buf.put_u8(p.codec);
    buf.put_u8(p.quality);
    buf.put_u16_le(p.control_interval_ms);
    buf.put_u16_le(p.flags);
    finish_into(buf, start);
}

/// Serializes a control packet.
pub fn encode_control(p: &ControlPacket) -> Bytes {
    let mut buf = BytesMut::with_capacity(40);
    encode_control_into(p, &mut buf);
    buf.freeze()
}

/// Serializes a data packet into `buf`, appending to any existing
/// contents. See [`encode_control_into`].
pub fn encode_data_into(p: &DataPacket, buf: &mut BytesMut) {
    let start = buf.len();
    buf.reserve(DATA_ENVELOPE + p.payload.len());
    put_header(buf, TYPE_DATA, p.stream_id, p.seq);
    buf.put_u64_le(p.play_at_us);
    buf.put_u8(p.codec);
    buf.put_u32_le(p.payload.len() as u32);
    buf.put_slice(&p.payload);
    finish_into(buf, start);
}

/// Serializes a data packet.
pub fn encode_data(p: &DataPacket) -> Bytes {
    let mut buf = BytesMut::with_capacity(DATA_ENVELOPE + p.payload.len());
    encode_data_into(p, &mut buf);
    buf.freeze()
}

/// Serializes an announce packet into `buf`, appending to any existing
/// contents. See [`encode_control_into`].
pub fn encode_announce_into(p: &AnnouncePacket, buf: &mut BytesMut) {
    let start = buf.len();
    buf.reserve(64 + p.streams.len() * 32);
    put_header(buf, TYPE_ANNOUNCE, 0, p.seq);
    buf.put_u64_le(p.producer_time_us);
    buf.put_u16_le(p.streams.len() as u16);
    for s in &p.streams {
        put_stream_info(buf, s);
    }
    finish_into(buf, start);
}

/// Serializes an announce packet.
pub fn encode_announce(p: &AnnouncePacket) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + p.streams.len() * 32);
    encode_announce_into(p, &mut buf);
    buf.freeze()
}

/// Serializes a parity packet into `buf`, appending to any existing
/// contents. See [`encode_control_into`].
pub fn encode_parity_into(p: &ParityPacket, buf: &mut BytesMut) {
    let start = buf.len();
    buf.reserve(32 + p.payload.len());
    put_header(buf, TYPE_PARITY, p.stream_id, p.base_seq);
    buf.put_u8(p.count);
    buf.put_u64_le(p.xor_play_at_us);
    buf.put_u32_le(p.xor_len);
    buf.put_u8(p.xor_codec);
    buf.put_u32_le(p.payload.len() as u32);
    buf.put_slice(&p.payload);
    finish_into(buf, start);
}

/// Serializes a parity packet.
pub fn encode_parity(p: &ParityPacket) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + p.payload.len());
    encode_parity_into(p, &mut buf);
    buf.freeze()
}

/// Parses any packet, verifying magic, version and CRC.
pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
    if bytes.len() < 14 {
        return Err(WireError::TooShort);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != want {
        return Err(WireError::BadCrc);
    }
    let mut buf = body;
    let magic = buf.get_u16_le();
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let ptype = buf.get_u8();
    let stream_id = buf.get_u16_le();
    let seq = buf.get_u32_le();
    match ptype {
        TYPE_CONTROL => {
            if buf.remaining() < 8 + 6 + 6 {
                return Err(WireError::TooShort);
            }
            let producer_time_us = buf.get_u64_le();
            let config = get_config(&mut buf)?;
            let codec = buf.get_u8();
            let quality = buf.get_u8();
            let control_interval_ms = buf.get_u16_le();
            let flags = buf.get_u16_le();
            Ok(Packet::Control(ControlPacket {
                stream_id,
                seq,
                producer_time_us,
                config,
                codec,
                quality,
                control_interval_ms,
                flags,
            }))
        }
        TYPE_DATA => {
            if buf.remaining() < 8 + 1 + 4 {
                return Err(WireError::TooShort);
            }
            let play_at_us = buf.get_u64_le();
            let codec = buf.get_u8();
            let len = buf.get_u32_le() as usize;
            if buf.remaining() != len {
                return Err(WireError::BadField("payload length"));
            }
            let payload = Bytes::copy_from_slice(buf);
            Ok(Packet::Data(DataPacket {
                stream_id,
                seq,
                play_at_us,
                codec,
                payload,
            }))
        }
        TYPE_ANNOUNCE => {
            if buf.remaining() < 8 + 2 {
                return Err(WireError::TooShort);
            }
            let producer_time_us = buf.get_u64_le();
            let count = buf.get_u16_le() as usize;
            if count > 512 {
                return Err(WireError::BadField("stream count"));
            }
            let mut streams = Vec::with_capacity(count);
            for _ in 0..count {
                streams.push(get_stream_info(&mut buf)?);
            }
            if buf.has_remaining() {
                return Err(WireError::BadField("trailing bytes"));
            }
            Ok(Packet::Announce(AnnouncePacket {
                seq,
                producer_time_us,
                streams,
            }))
        }
        TYPE_PARITY => {
            if buf.remaining() < 1 + 8 + 4 + 1 + 4 {
                return Err(WireError::TooShort);
            }
            let count = buf.get_u8();
            if !(2..=32).contains(&count) {
                return Err(WireError::BadField("parity count"));
            }
            let xor_play_at_us = buf.get_u64_le();
            let xor_len = buf.get_u32_le();
            let xor_codec = buf.get_u8();
            let len = buf.get_u32_le() as usize;
            if buf.remaining() != len {
                return Err(WireError::BadField("payload length"));
            }
            Ok(Packet::Parity(ParityPacket {
                stream_id,
                base_seq: seq,
                count,
                xor_play_at_us,
                xor_len,
                xor_codec,
                payload: Bytes::copy_from_slice(buf),
            }))
        }
        TYPE_SESSION => Ok(Packet::Session(crate::session::decode_session_body(
            stream_id, seq, buf,
        )?)),
        t => Err(WireError::BadType(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control() -> ControlPacket {
        ControlPacket {
            stream_id: 3,
            seq: 42,
            producer_time_us: 1_234_567,
            config: AudioConfig::CD,
            codec: 3,
            quality: 10,
            control_interval_ms: 500,
            flags: FLAG_PRIORITY,
        }
    }

    #[test]
    fn control_roundtrip() {
        let p = control();
        let bytes = encode_control(&p);
        match decode(&bytes).unwrap() {
            Packet::Control(c) => assert_eq!(c, p),
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn data_roundtrip() {
        let p = DataPacket {
            stream_id: 1,
            seq: 7,
            play_at_us: 999_000,
            codec: 0,
            payload: Bytes::from(vec![9u8; 1_000]),
        };
        let bytes = encode_data(&p);
        assert_eq!(bytes.len(), DATA_ENVELOPE + 1_000);
        match decode(&bytes).unwrap() {
            Packet::Data(d) => assert_eq!(d, p),
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn empty_payload_data_roundtrip() {
        let p = DataPacket {
            stream_id: 0,
            seq: 0,
            play_at_us: 0,
            codec: 3,
            payload: Bytes::new(),
        };
        let bytes = encode_data(&p);
        assert!(matches!(decode(&bytes).unwrap(), Packet::Data(d) if d == p));
    }

    #[test]
    fn announce_roundtrip() {
        let p = AnnouncePacket {
            seq: 5,
            producer_time_us: 88,
            streams: vec![
                StreamInfo {
                    stream_id: 1,
                    group: 10,
                    name: "campus radio".into(),
                    codec: 3,
                    config: AudioConfig::CD,
                    flags: 0,
                    caps: Capabilities {
                        codecs: vec![0, 3],
                        sample_rates: vec![44_100],
                        device_class: crate::session::DeviceClass::Hifi,
                    },
                },
                StreamInfo {
                    stream_id: 2,
                    group: 11,
                    name: "pa-announcements".into(),
                    codec: 0,
                    config: AudioConfig::PHONE,
                    flags: FLAG_PRIORITY,
                    caps: Capabilities::any(),
                },
            ],
        };
        let bytes = encode_announce(&p);
        match decode(&bytes).unwrap() {
            Packet::Announce(a) => assert_eq!(a, p),
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn empty_announce_roundtrips() {
        let p = AnnouncePacket {
            seq: 0,
            producer_time_us: 0,
            streams: vec![],
        };
        let bytes = encode_announce(&p);
        assert!(matches!(decode(&bytes).unwrap(), Packet::Announce(a) if a == p));
    }

    #[test]
    fn parity_roundtrip() {
        let p = ParityPacket {
            stream_id: 3,
            base_seq: 40,
            count: 8,
            xor_play_at_us: 0xDEAD_BEEF,
            xor_len: 777,
            xor_codec: 2,
            payload: Bytes::from(vec![0xAA; 512]),
        };
        let bytes = encode_parity(&p);
        match decode(&bytes).unwrap() {
            Packet::Parity(q) => assert_eq!(q, p),
            other => panic!("wrong type: {other:?}"),
        }
        // Bad count rejected.
        let mut q = p.clone();
        q.count = 1;
        assert_eq!(
            decode(&encode_parity(&q)),
            Err(WireError::BadField("parity count"))
        );
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let bytes = encode_control(&control());
        for i in 0..bytes.len() {
            let mut m = bytes.to_vec();
            m[i] ^= 0x40;
            assert!(decode(&m).is_err(), "undetected corruption at byte {i}");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_data(&DataPacket {
            stream_id: 1,
            seq: 1,
            play_at_us: 1,
            codec: 0,
            payload: Bytes::from(vec![1u8; 100]),
        });
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "undetected cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_version_type() {
        let good = encode_control(&control()).to_vec();
        // Magic.
        let mut m = good.clone();
        m[0] = 0;
        let body_len = m.len() - 4;
        let crc = crate::crc::crc32(&m[..body_len]).to_le_bytes();
        m[body_len..].copy_from_slice(&crc);
        assert_eq!(decode(&m), Err(WireError::BadMagic));
        // Version.
        let mut m = good.clone();
        m[2] = 9;
        let crc = crate::crc::crc32(&m[..body_len]).to_le_bytes();
        m[body_len..].copy_from_slice(&crc);
        assert_eq!(decode(&m), Err(WireError::BadVersion(9)));
        // Type.
        let mut m = good;
        m[3] = 77;
        let crc = crate::crc::crc32(&m[..body_len]).to_le_bytes();
        m[body_len..].copy_from_slice(&crc);
        assert_eq!(decode(&m), Err(WireError::BadType(77)));
    }

    #[test]
    fn bad_config_rejected() {
        let mut p = control();
        p.config.channels = 0;
        let bytes = encode_control(&p).to_vec();
        assert_eq!(decode(&bytes), Err(WireError::BadField("config")));
    }

    #[test]
    fn recommended_payload_fits_mtu() {
        let p = DataPacket {
            stream_id: 1,
            seq: 1,
            play_at_us: 1,
            codec: 0,
            payload: Bytes::from(vec![0u8; RECOMMENDED_MAX_PAYLOAD]),
        };
        assert_eq!(encode_data(&p).len(), 1_472);
    }

    #[test]
    fn encode_into_appends_with_region_crc() {
        // The _into encoders must checksum only their own region, so a
        // reused scratch buffer with leftover contents still yields a
        // byte-identical, decodable packet.
        let c = control();
        let d = DataPacket {
            stream_id: 2,
            seq: 9,
            play_at_us: 44,
            codec: 1,
            payload: Bytes::from(vec![7u8; 64]),
        };
        let mut buf = BytesMut::with_capacity(256);
        buf.put_slice(b"junk-prefix");
        let start = buf.len();
        encode_control_into(&c, &mut buf);
        let mid = buf.len();
        encode_data_into(&d, &mut buf);
        assert_eq!(&buf[start..mid], &encode_control(&c)[..]);
        assert_eq!(&buf[mid..], &encode_data(&d)[..]);
        assert!(matches!(decode(&buf[mid..]).unwrap(), Packet::Data(p) if p == d));
    }

    #[test]
    fn encode_into_matches_allocating_encoders() {
        let a = AnnouncePacket {
            seq: 1,
            producer_time_us: 2,
            streams: vec![StreamInfo {
                stream_id: 1,
                group: 10,
                name: "ch".into(),
                codec: 3,
                config: AudioConfig::CD,
                flags: 0,
                caps: Capabilities {
                    codecs: vec![3],
                    sample_rates: vec![44_100],
                    device_class: crate::session::DeviceClass::Standard,
                },
            }],
        };
        let p = ParityPacket {
            stream_id: 3,
            base_seq: 40,
            count: 4,
            xor_play_at_us: 5,
            xor_len: 6,
            xor_codec: 2,
            payload: Bytes::from(vec![0x55; 32]),
        };
        let mut buf = BytesMut::new();
        encode_announce_into(&a, &mut buf);
        assert_eq!(&buf[..], &encode_announce(&a)[..]);
        buf.clear();
        encode_parity_into(&p, &mut buf);
        assert_eq!(&buf[..], &encode_parity(&p)[..]);
    }

    proptest::proptest! {
        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256)) {
            let _ = decode(&bytes);
            // The same bytes as an auth trailer in front of its message.
            use crate::auth::{AuthTrailer, StreamVerifier, TRAILER_LEN};
            if let Some((trailer, message)) = bytes.split_at_checked(TRAILER_LEN) {
                let trailer = AuthTrailer::decode(trailer).expect("exactly TRAILER_LEN bytes");
                let (released, _) = StreamVerifier::new([7; 32]).offer(message, &trailer);
                proptest::prop_assert!(released.is_empty(), "noise authenticated");
            }
        }

        #[test]
        fn prop_data_roundtrip(
            stream_id in 0u16..100,
            seq in 0u32..1_000_000,
            play_at in 0u64..u64::MAX / 2,
            codec in 0u8..4,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..2000),
        ) {
            let p = DataPacket {
                stream_id,
                seq,
                play_at_us: play_at,
                codec,
                payload: Bytes::from(payload),
            };
            let bytes = encode_data(&p);
            proptest::prop_assert_eq!(decode(&bytes).unwrap(), Packet::Data(p));
        }
    }
}
