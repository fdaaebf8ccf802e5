//! The session control plane (discovery, negotiation, lifecycle).
//!
//! The paper's producer is stateless radio: speakers tune a multicast
//! group and listen. Production streaming systems (RTSP/RAOP-style)
//! instead *negotiate*: a receiver discovers what is on the air, asks
//! for one channel with what it can play, and is granted a session
//! naming the group to tune. This module is that control plane as
//! deterministic wire packets and pure state machines,
//! transport-agnostic so the same logic drives the simulated LAN
//! (`es-core`) and real UDP multicast (the loopback smoke test). It
//! carries what a receive-only radio acts on — one session, FLUSH,
//! TEARDOWN and keepalive — and nothing else:
//!
//! - **DISCOVER** — a speaker multicasts its name on the announce
//!   group.
//! - **OFFER** — the channel line-up, each entry carrying the stream's
//!   own capability advertisement: the broker's answer to a DISCOVER,
//!   and the §4.3 catalog's periodic announce.
//! - **SETUP / SETUP-ACK / REFUSE** — per-receiver handshake: the
//!   speaker asks for one stream with [`Capabilities::any`] (it plays
//!   every codec at any rate); the producer validates that block as it
//!   would any input from the LAN, then grants a session id + group or
//!   refuses with a reason. SETUP's codec and playout delay and the
//!   ACK's copies of them stay on the wire, but nothing acts on them:
//!   a multicast stream has one codec (from its control packets) and
//!   one deadline per block.
//! - **KEEPALIVE** — receivers refresh their entry in the producer's
//!   [`SessionTable`]; silence past the timeout expires the session.
//! - **FLUSH** — producer-initiated resync: the speaker re-gates on
//!   the next control packet (the §3.2 catch-up rule, commanded).
//! - **TEARDOWN** — either side ends the session, with a reason.
//!
//! Everything reuses the [`crate::packet`] framing: same magic,
//! version and CRC-32 trailer, one packet type with a kind byte.
//! The state machines ([`SessionClient`], [`SessionTable`],
//! [`negotiate`]) are pure functions of (time, packets) — no clocks,
//! no randomness — so two runs with the same inputs are bit-identical,
//! which is what lets chaos conformance fingerprint whole handshakes.

use bytes::{Buf, BufMut, BytesMut};

use crate::packet::{StreamInfo, WireError};

/// A capability advertisement: what a receiver can play, or what a
/// stream requires. Empty lists mean "unconstrained".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// Codec wire ids supported (see [`es_codec wire ids`]; empty =
    /// any).
    ///
    /// [`es_codec wire ids`]: crate::packet::ControlPacket::codec
    pub codecs: Vec<u8>,
    /// Sample rates supported (empty = any).
    pub sample_rates: Vec<u32>,
}

impl Capabilities {
    /// A receiver that plays every codec at any rate.
    pub fn any() -> Self {
        Capabilities::default()
    }

    /// True when `codec` is acceptable under this advertisement.
    pub fn supports_codec(&self, codec: u8) -> bool {
        self.codecs.is_empty() || self.codecs.contains(&codec)
    }

    /// True when `rate` is acceptable under this advertisement.
    pub fn supports_rate(&self, rate: u32) -> bool {
        self.sample_rates.is_empty() || self.sample_rates.contains(&rate)
    }
}

/// Why a SETUP was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// No such stream on the air.
    UnknownStream,
    /// No codec acceptable to both sides.
    CodecMismatch,
    /// The stream's sample rate is outside the receiver's set.
    RateMismatch,
    /// The stream's session table is at its cap.
    TableFull,
}

impl RefuseReason {
    /// Wire discriminant.
    pub const fn to_wire(self) -> u8 {
        match self {
            RefuseReason::UnknownStream => 0,
            RefuseReason::CodecMismatch => 1,
            RefuseReason::RateMismatch => 2,
            RefuseReason::TableFull => 3,
        }
    }

    /// Decodes the wire discriminant.
    pub const fn from_wire(v: u8) -> Option<RefuseReason> {
        Some(match v {
            0 => RefuseReason::UnknownStream,
            1 => RefuseReason::CodecMismatch,
            2 => RefuseReason::RateMismatch,
            3 => RefuseReason::TableFull,
            _ => return None,
        })
    }
}

impl core::fmt::Display for RefuseReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RefuseReason::UnknownStream => f.write_str("unknown stream"),
            RefuseReason::CodecMismatch => f.write_str("codec mismatch"),
            RefuseReason::RateMismatch => f.write_str("sample-rate mismatch"),
            RefuseReason::TableFull => f.write_str("session table full"),
        }
    }
}

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeardownReason {
    /// The peer asked for it.
    Requested,
    /// The producer expired it (keepalives stopped).
    Expired,
}

impl TeardownReason {
    /// Wire discriminant.
    pub const fn to_wire(self) -> u8 {
        match self {
            TeardownReason::Requested => 0,
            TeardownReason::Expired => 1,
        }
    }

    /// Decodes the wire discriminant.
    pub const fn from_wire(v: u8) -> Option<TeardownReason> {
        Some(match v {
            0 => TeardownReason::Requested,
            1 => TeardownReason::Expired,
            _ => return None,
        })
    }
}

impl core::fmt::Display for TeardownReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TeardownReason::Requested => f.write_str("requested"),
            TeardownReason::Expired => f.write_str("expired"),
        }
    }
}

/// A control-plane packet. All variants ride the standard packet
/// framing (magic, version, CRC) as one wire type with a kind byte;
/// see [`crate::packet::Packet::Session`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionPacket {
    /// A speaker looking for channels.
    Discover {
        /// Per-speaker discover sequence number.
        seq: u32,
        /// Speaker name (the logical reply address).
        speaker: String,
    },
    /// The channel line-up, with per-stream capabilities: the broker's
    /// answer to a DISCOVER and the §4.3 catalog's periodic announce.
    Offer {
        /// Producer offer sequence number.
        seq: u32,
        /// Channels on the air.
        streams: Vec<StreamInfo>,
    },
    /// A speaker requests one stream.
    Setup {
        /// Requesting speaker.
        speaker: String,
        /// Stream wanted.
        stream_id: u16,
        /// Codec the speaker chose from the stream's advertisement.
        codec: u8,
        /// Playout delay the speaker wants.
        playout_delay_us: u64,
        /// The speaker's capabilities (revalidated by the producer).
        caps: Capabilities,
    },
    /// The producer grants a session.
    SetupAck {
        /// Granted session id.
        session_id: u32,
        /// The speaker this grant is for.
        speaker: String,
        /// Stream granted.
        stream_id: u16,
        /// Multicast group to join for the data plane.
        group: u16,
        /// Codec the producer confirmed.
        codec: u8,
        /// Playout delay the producer granted (clamped).
        playout_delay_us: u64,
    },
    /// The producer declines a SETUP.
    Refuse {
        /// The speaker refused.
        speaker: String,
        /// Stream that was asked for.
        stream_id: u16,
        /// Why.
        reason: RefuseReason,
    },
    /// A receiver refreshing its session-table entry.
    Keepalive {
        /// Session being refreshed.
        session_id: u32,
    },
    /// Producer-commanded resync: re-gate on the next control packet.
    Flush {
        /// Session being flushed.
        session_id: u32,
    },
    /// Either side ends the session.
    Teardown {
        /// Session being ended.
        session_id: u32,
        /// Why.
        reason: TeardownReason,
    },
}

const K_DISCOVER: u8 = 1;
const K_OFFER: u8 = 2;
const K_SETUP: u8 = 3;
const K_ACK: u8 = 4;
const K_REFUSE: u8 = 5;
const K_KEEPALIVE: u8 = 6;
const K_FLUSH: u8 = 7;
const K_TEARDOWN: u8 = 8;

pub(crate) fn put_caps(buf: &mut BytesMut, caps: &Capabilities) {
    buf.put_u8(caps.codecs.len().min(255) as u8);
    for c in caps.codecs.iter().take(255) {
        buf.put_u8(*c);
    }
    buf.put_u8(caps.sample_rates.len().min(255) as u8);
    for r in caps.sample_rates.iter().take(255) {
        buf.put_u32_le(*r);
    }
}

pub(crate) fn get_caps(buf: &mut &[u8]) -> Result<Capabilities, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::TooShort);
    }
    let n_codecs = buf.get_u8() as usize;
    if buf.remaining() < n_codecs {
        return Err(WireError::TooShort);
    }
    let codecs = buf[..n_codecs].to_vec();
    buf.advance(n_codecs);
    if buf.remaining() < 1 {
        return Err(WireError::TooShort);
    }
    let n_rates = buf.get_u8() as usize;
    if buf.remaining() < n_rates * 4 {
        return Err(WireError::TooShort);
    }
    let mut sample_rates = Vec::with_capacity(n_rates);
    for _ in 0..n_rates {
        sample_rates.push(buf.get_u32_le());
    }
    Ok(Capabilities {
        codecs,
        sample_rates,
    })
}

fn put_name(buf: &mut BytesMut, name: &str) {
    let bytes = name.as_bytes();
    let len = bytes.len().min(255);
    buf.put_u8(len as u8);
    buf.put_slice(&bytes[..len]);
}

fn get_name(buf: &mut &[u8]) -> Result<String, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::TooShort);
    }
    let len = buf.get_u8() as usize;
    if buf.remaining() < len {
        return Err(WireError::TooShort);
    }
    let name =
        String::from_utf8(buf[..len].to_vec()).map_err(|_| WireError::BadField("name utf8"))?;
    buf.advance(len);
    Ok(name)
}

/// Serializes a session packet into `buf`, appending to any existing
/// contents with a region CRC (see
/// [`crate::packet::encode_control_into`]).
pub fn encode_session_into(p: &SessionPacket, buf: &mut BytesMut) {
    let start = buf.len();
    buf.reserve(64);
    let (stream_id, seq) = match p {
        SessionPacket::Discover { seq, .. } | SessionPacket::Offer { seq, .. } => (0u16, *seq),
        SessionPacket::Setup { stream_id, .. } | SessionPacket::Refuse { stream_id, .. } => {
            (*stream_id, 0)
        }
        SessionPacket::SetupAck {
            session_id,
            stream_id,
            ..
        } => (*stream_id, *session_id),
        SessionPacket::Keepalive { session_id }
        | SessionPacket::Flush { session_id }
        | SessionPacket::Teardown { session_id, .. } => (0, *session_id),
    };
    crate::packet::put_header(buf, crate::packet::TYPE_SESSION, stream_id, seq);
    match p {
        SessionPacket::Discover { speaker, .. } => {
            buf.put_u8(K_DISCOVER);
            put_name(buf, speaker);
        }
        SessionPacket::Offer { streams, .. } => {
            buf.put_u8(K_OFFER);
            buf.put_u16_le(streams.len() as u16);
            for s in streams {
                crate::packet::put_stream_info(buf, s);
            }
        }
        SessionPacket::Setup {
            speaker,
            codec,
            playout_delay_us,
            caps,
            ..
        } => {
            buf.put_u8(K_SETUP);
            put_name(buf, speaker);
            buf.put_u8(*codec);
            buf.put_u64_le(*playout_delay_us);
            put_caps(buf, caps);
        }
        SessionPacket::SetupAck {
            speaker,
            group,
            codec,
            playout_delay_us,
            ..
        } => {
            buf.put_u8(K_ACK);
            put_name(buf, speaker);
            buf.put_u16_le(*group);
            buf.put_u8(*codec);
            buf.put_u64_le(*playout_delay_us);
        }
        SessionPacket::Refuse {
            speaker, reason, ..
        } => {
            buf.put_u8(K_REFUSE);
            put_name(buf, speaker);
            buf.put_u8(reason.to_wire());
        }
        SessionPacket::Keepalive { .. } => {
            buf.put_u8(K_KEEPALIVE);
        }
        SessionPacket::Flush { .. } => {
            buf.put_u8(K_FLUSH);
        }
        SessionPacket::Teardown { reason, .. } => {
            buf.put_u8(K_TEARDOWN);
            buf.put_u8(reason.to_wire());
        }
    }
    crate::packet::finish_into(buf, start);
}

/// Serializes a session packet.
pub fn encode_session(p: &SessionPacket) -> bytes::Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_session_into(p, &mut buf);
    buf.freeze()
}

/// Parses a session packet body (after the common header; CRC already
/// verified by [`crate::packet::decode`]).
pub(crate) fn decode_session_body(
    stream_id: u16,
    seq: u32,
    mut buf: &[u8],
) -> Result<SessionPacket, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::TooShort);
    }
    let kind = buf.get_u8();
    let pkt = match kind {
        K_DISCOVER => {
            let speaker = get_name(&mut buf)?;
            SessionPacket::Discover { seq, speaker }
        }
        K_OFFER => {
            if buf.remaining() < 2 {
                return Err(WireError::TooShort);
            }
            let count = buf.get_u16_le() as usize;
            if count > 512 {
                return Err(WireError::BadField("stream count"));
            }
            let mut streams = Vec::with_capacity(count);
            for _ in 0..count {
                streams.push(crate::packet::get_stream_info(&mut buf)?);
            }
            SessionPacket::Offer { seq, streams }
        }
        K_SETUP => {
            let speaker = get_name(&mut buf)?;
            if buf.remaining() < 9 {
                return Err(WireError::TooShort);
            }
            let codec = buf.get_u8();
            let playout_delay_us = buf.get_u64_le();
            let caps = get_caps(&mut buf)?;
            SessionPacket::Setup {
                speaker,
                stream_id,
                codec,
                playout_delay_us,
                caps,
            }
        }
        K_ACK => {
            let speaker = get_name(&mut buf)?;
            if buf.remaining() < 11 {
                return Err(WireError::TooShort);
            }
            let group = buf.get_u16_le();
            let codec = buf.get_u8();
            let playout_delay_us = buf.get_u64_le();
            SessionPacket::SetupAck {
                session_id: seq,
                speaker,
                stream_id,
                group,
                codec,
                playout_delay_us,
            }
        }
        K_REFUSE => {
            let speaker = get_name(&mut buf)?;
            if buf.remaining() < 1 {
                return Err(WireError::TooShort);
            }
            let reason =
                RefuseReason::from_wire(buf.get_u8()).ok_or(WireError::BadField("reason"))?;
            SessionPacket::Refuse {
                speaker,
                stream_id,
                reason,
            }
        }
        K_KEEPALIVE => SessionPacket::Keepalive { session_id: seq },
        K_FLUSH => SessionPacket::Flush { session_id: seq },
        K_TEARDOWN => {
            if buf.remaining() < 1 {
                return Err(WireError::TooShort);
            }
            let reason =
                TeardownReason::from_wire(buf.get_u8()).ok_or(WireError::BadField("reason"))?;
            SessionPacket::Teardown {
                session_id: seq,
                reason,
            }
        }
        _ => return Err(WireError::BadField("session kind")),
    };
    if buf.has_remaining() {
        return Err(WireError::BadField("trailing bytes"));
    }
    Ok(pkt)
}

/// What the producer granted in a successful negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Multicast group carrying the stream.
    pub group: u16,
    /// Confirmed codec.
    pub codec: u8,
    /// Granted playout delay (clamped to sane bounds).
    pub playout_delay_us: u64,
}

/// Floor of the granted playout delay.
pub const MIN_PLAYOUT_DELAY_US: u64 = 20_000;
/// Ceiling of the granted playout delay.
pub const MAX_PLAYOUT_DELAY_US: u64 = 2_000_000;

/// Pure capability negotiation: validates a SETUP against a stream's
/// advertisement and both sides' capabilities. Deterministic — same
/// inputs, same grant.
pub fn negotiate(
    info: &StreamInfo,
    speaker_caps: &Capabilities,
    codec: u8,
    requested_delay_us: u64,
) -> Result<Grant, RefuseReason> {
    if !info.caps.supports_codec(codec) || !speaker_caps.supports_codec(codec) {
        return Err(RefuseReason::CodecMismatch);
    }
    if !speaker_caps.supports_rate(info.config.sample_rate) {
        return Err(RefuseReason::RateMismatch);
    }
    Ok(Grant {
        group: info.group,
        codec,
        playout_delay_us: requested_delay_us.clamp(MIN_PLAYOUT_DELAY_US, MAX_PLAYOUT_DELAY_US),
    })
}

/// One granted session, as tracked by the producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionEntry {
    /// Session id.
    pub session_id: u32,
    /// Receiver name.
    pub speaker: String,
    /// Stream granted.
    pub stream_id: u16,
    /// Last keepalive (or open) time.
    pub last_seen_us: u64,
}

/// The producer-side session table: granted sessions keyed by id,
/// with timeout-driven expiry. Iteration order is the key order
/// (BTreeMap), so expiry sweeps are deterministic.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    entries: std::collections::BTreeMap<u32, SessionEntry>,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions removed by timeout.
    pub expired: u64,
    /// Sessions removed by teardown.
    pub closed: u64,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Records a newly granted session.
    pub fn open(&mut self, entry: SessionEntry) {
        self.opened += 1;
        self.entries.insert(entry.session_id, entry);
    }

    /// Refreshes a session's liveness; false if the id is unknown
    /// (already expired — the receiver will re-discover).
    pub fn touch(&mut self, session_id: u32, now_us: u64) -> bool {
        match self.entries.get_mut(&session_id) {
            Some(e) => {
                e.last_seen_us = e.last_seen_us.max(now_us);
                true
            }
            None => false,
        }
    }

    /// Removes a session by teardown.
    pub fn close(&mut self, session_id: u32) -> Option<SessionEntry> {
        let e = self.entries.remove(&session_id);
        if e.is_some() {
            self.closed += 1;
        }
        e
    }

    /// Removes and returns every session silent for longer than
    /// `timeout_us`, in session-id order.
    pub fn expire(&mut self, now_us: u64, timeout_us: u64) -> Vec<SessionEntry> {
        let dead: Vec<u32> = self
            .entries
            .values()
            .filter(|e| now_us.saturating_sub(e.last_seen_us) > timeout_us)
            .map(|e| e.session_id)
            .collect();
        let mut out = Vec::with_capacity(dead.len());
        for id in dead {
            if let Some(e) = self.entries.remove(&id) {
                self.expired += 1;
                out.push(e);
            }
        }
        out
    }

    /// The live session held by `speaker`, if any (a speaker holds at
    /// most one session per stream; retried SETUPs re-ACK it).
    pub fn find_by_speaker(&self, speaker: &str) -> Option<&SessionEntry> {
        self.entries.values().find(|e| e.speaker == speaker)
    }

    /// Live session count.
    pub fn active(&self) -> usize {
        self.entries.len()
    }

    /// Iterates live sessions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SessionEntry> {
        self.entries.values()
    }
}

/// Silence after which either side of a session declares the peer gone:
/// the client's default `session_timeout_us` and the simulated broker's
/// expiry age.
pub const SESSION_TIMEOUT_US: u64 = 2_500_000;

/// SETUP attempts before a client falls back to discovery.
const MAX_SETUP_ATTEMPTS: u32 = 4;

/// The playout delay every SETUP asks for. Nothing acts on the grant
/// (a block plays at its producer's `play_at_us`), but the wire and the
/// clamp in [`negotiate`] keep it.
const REQUESTED_PLAYOUT_DELAY_US: u64 = 200_000;

/// Client (receiver-side) session state machine configuration. All
/// times are in microseconds on whatever monotone clock the caller
/// drives [`SessionClient::poll`] with.
#[derive(Debug, Clone)]
pub struct SessionClientConfig {
    /// This receiver's name (logical address in the handshake).
    pub speaker: String,
    /// Channel name wanted (matched against [`StreamInfo::name`]).
    pub channel: String,
    /// DISCOVER period while unattached.
    pub discover_interval_us: u64,
    /// SETUP retransmit period.
    pub setup_retry_us: u64,
    /// KEEPALIVE period while established.
    pub keepalive_interval_us: u64,
    /// Silence (no control-plane or stream traffic) after which the
    /// session is declared lost and discovery restarts.
    pub session_timeout_us: u64,
}

impl SessionClientConfig {
    /// Defaults tuned for the simulator's timescale: 300 ms discovery,
    /// 400 ms setup retry, 1 s keepalives, 2.5 s session timeout.
    pub fn new(speaker: impl Into<String>, channel: impl Into<String>) -> Self {
        SessionClientConfig {
            speaker: speaker.into(),
            channel: channel.into(),
            discover_interval_us: 300_000,
            setup_retry_us: 400_000,
            keepalive_interval_us: 1_000_000,
            session_timeout_us: SESSION_TIMEOUT_US,
        }
    }
}

/// Where a [`SessionClient`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPhase {
    /// Multicasting DISCOVER, waiting for an OFFER naming the channel.
    Discovering,
    /// SETUP sent, waiting for the ACK.
    Requesting,
    /// Session granted; streaming.
    Established,
}

/// What the surrounding transport must do in response to an event.
/// Actions come back in a deterministic order; the caller applies
/// them in sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Transmit this packet on the announce group.
    Send(SessionPacket),
    /// Join the granted data group and gate on its control packet.
    JoinData(u16),
    /// Leave the data group (session over or lost).
    LeaveData,
    /// Flush playback and re-gate on the next control packet.
    Resync,
    /// The handshake completed (journaling hook).
    Established {
        /// Granted session id.
        session_id: u32,
        /// Granted stream.
        stream_id: u16,
        /// Granted group.
        group: u16,
    },
    /// The session timed out; discovery restarts (journaling hook).
    Lost {
        /// The session that died.
        session_id: u32,
    },
    /// The session was torn down by the producer (journaling hook).
    Closed {
        /// The session that ended.
        session_id: u32,
        /// Why.
        reason: TeardownReason,
    },
    /// SETUP attempts exhausted; back to discovery (journaling hook).
    GaveUp,
}

#[derive(Debug)]
enum ClientState {
    Discovering {
        next_discover_at: u64,
    },
    Requesting {
        stream_id: u16,
        codec: u8,
        last_setup_at: u64,
        attempts: u32,
    },
    Established {
        session_id: u32,
        last_alive_at: u64,
        next_keepalive_at: u64,
    },
}

/// The receiver-side handshake state machine. Pure: consumes time
/// (via [`poll`](Self::poll)) and packets (via
/// [`on_packet`](Self::on_packet)), emits [`ClientAction`]s. The
/// caller owns all transport and timing.
#[derive(Debug)]
pub struct SessionClient {
    cfg: SessionClientConfig,
    state: ClientState,
    discover_seq: u32,
    /// DISCOVERs sent (diagnostics).
    pub discovers_sent: u64,
    /// SETUPs sent (diagnostics).
    pub setups_sent: u64,
    /// Sessions established over this client's lifetime.
    pub sessions_established: u64,
    /// Sessions lost to timeout.
    pub sessions_lost: u64,
}

impl SessionClient {
    /// A client that starts discovering at the first poll.
    pub fn new(cfg: SessionClientConfig) -> Self {
        SessionClient {
            cfg,
            state: ClientState::Discovering {
                next_discover_at: 0,
            },
            discover_seq: 0,
            discovers_sent: 0,
            setups_sent: 0,
            sessions_established: 0,
            sessions_lost: 0,
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> ClientPhase {
        match self.state {
            ClientState::Discovering { .. } => ClientPhase::Discovering,
            ClientState::Requesting { .. } => ClientPhase::Requesting,
            ClientState::Established { .. } => ClientPhase::Established,
        }
    }

    /// The granted session id, while established.
    pub fn session_id(&self) -> Option<u32> {
        match self.state {
            ClientState::Established { session_id, .. } => Some(session_id),
            _ => None,
        }
    }

    /// Evidence the stream is alive (e.g. a control packet arrived on
    /// the data group) — defers the session-loss timeout.
    pub fn note_stream_alive(&mut self, now_us: u64) {
        if let ClientState::Established { last_alive_at, .. } = &mut self.state {
            *last_alive_at = (*last_alive_at).max(now_us);
        }
    }

    fn discover(&mut self, now_us: u64) -> SessionPacket {
        let seq = self.discover_seq;
        self.discover_seq += 1;
        self.discovers_sent += 1;
        self.state = ClientState::Discovering {
            next_discover_at: now_us + self.cfg.discover_interval_us,
        };
        SessionPacket::Discover {
            seq,
            speaker: self.cfg.speaker.clone(),
        }
    }

    fn setup(&self, stream_id: u16, codec: u8) -> SessionPacket {
        SessionPacket::Setup {
            speaker: self.cfg.speaker.clone(),
            stream_id,
            codec,
            playout_delay_us: REQUESTED_PLAYOUT_DELAY_US,
            caps: Capabilities::any(),
        }
    }

    /// Advances timers to `now_us`. Call periodically (the tick rate
    /// bounds handshake latency, not correctness).
    pub fn poll(&mut self, now_us: u64) -> Vec<ClientAction> {
        let mut out = Vec::new();
        match self.state {
            ClientState::Discovering { next_discover_at } => {
                if now_us >= next_discover_at {
                    let d = self.discover(now_us);
                    out.push(ClientAction::Send(d));
                }
            }
            ClientState::Requesting {
                stream_id,
                codec,
                last_setup_at,
                attempts,
            } => {
                if now_us.saturating_sub(last_setup_at) >= self.cfg.setup_retry_us {
                    if attempts >= MAX_SETUP_ATTEMPTS {
                        out.push(ClientAction::GaveUp);
                        self.state = ClientState::Discovering {
                            next_discover_at: now_us,
                        };
                    } else {
                        self.setups_sent += 1;
                        out.push(ClientAction::Send(self.setup(stream_id, codec)));
                        self.state = ClientState::Requesting {
                            stream_id,
                            codec,
                            last_setup_at: now_us,
                            attempts: attempts + 1,
                        };
                    }
                }
            }
            ClientState::Established {
                session_id,
                last_alive_at,
                next_keepalive_at,
            } => {
                if now_us.saturating_sub(last_alive_at) > self.cfg.session_timeout_us {
                    self.sessions_lost += 1;
                    out.push(ClientAction::Lost { session_id });
                    out.push(ClientAction::LeaveData);
                    self.state = ClientState::Discovering {
                        next_discover_at: now_us,
                    };
                } else if now_us >= next_keepalive_at {
                    out.push(ClientAction::Send(SessionPacket::Keepalive { session_id }));
                    self.state = ClientState::Established {
                        session_id,
                        last_alive_at,
                        next_keepalive_at: now_us + self.cfg.keepalive_interval_us,
                    };
                }
            }
        }
        out
    }

    /// Feeds one received control-plane packet.
    pub fn on_packet(&mut self, now_us: u64, pkt: &SessionPacket) -> Vec<ClientAction> {
        let mut out = Vec::new();
        match (&self.state, pkt) {
            (ClientState::Discovering { .. }, SessionPacket::Offer { streams, .. }) => {
                // Pick the wanted channel and its first offered codec
                // (offer order is the producer's preference order); a
                // stream advertising no codec set accepts whatever its
                // control packets will name, so ask for the primary.
                let Some(info) = streams.iter().find(|s| s.name == self.cfg.channel) else {
                    return out;
                };
                let codec = info.caps.codecs.first().copied().unwrap_or(info.codec);
                self.setups_sent += 1;
                out.push(ClientAction::Send(self.setup(info.stream_id, codec)));
                self.state = ClientState::Requesting {
                    stream_id: info.stream_id,
                    codec,
                    last_setup_at: now_us,
                    attempts: 1,
                };
            }
            (
                ClientState::Requesting { stream_id, .. },
                SessionPacket::SetupAck {
                    session_id,
                    speaker,
                    stream_id: ack_stream,
                    group,
                    ..
                },
            ) if *speaker == self.cfg.speaker && ack_stream == stream_id => {
                self.sessions_established += 1;
                out.push(ClientAction::JoinData(*group));
                out.push(ClientAction::Established {
                    session_id: *session_id,
                    stream_id: *ack_stream,
                    group: *group,
                });
                self.state = ClientState::Established {
                    session_id: *session_id,
                    last_alive_at: now_us,
                    next_keepalive_at: now_us + self.cfg.keepalive_interval_us,
                };
            }
            (ClientState::Requesting { .. }, SessionPacket::Refuse { speaker, .. })
                if *speaker == self.cfg.speaker =>
            {
                self.state = ClientState::Discovering {
                    next_discover_at: now_us + self.cfg.discover_interval_us,
                };
            }
            (
                ClientState::Established { session_id, .. },
                SessionPacket::Flush {
                    session_id: flushed,
                },
            ) if flushed == session_id => {
                out.push(ClientAction::Resync);
                self.note_stream_alive(now_us);
            }
            (
                ClientState::Established { session_id, .. },
                SessionPacket::Teardown {
                    session_id: torn,
                    reason,
                },
            ) if torn == session_id => {
                out.push(ClientAction::LeaveData);
                out.push(ClientAction::Closed {
                    session_id: *session_id,
                    reason: *reason,
                });
                self.state = ClientState::Discovering {
                    next_discover_at: now_us + self.cfg.discover_interval_us,
                };
            }
            _ => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{decode, Packet};
    use es_audio::AudioConfig;

    fn caps(codecs: &[u8]) -> Capabilities {
        Capabilities {
            codecs: codecs.to_vec(),
            sample_rates: vec![44_100],
        }
    }

    fn stream(id: u16, name: &str, codecs: &[u8]) -> StreamInfo {
        StreamInfo {
            stream_id: id,
            group: 10 + id,
            name: name.into(),
            codec: codecs.first().copied().unwrap_or(0),
            config: AudioConfig::CD,
            flags: 0,
            caps: caps(codecs),
        }
    }

    fn roundtrip(p: SessionPacket) {
        let bytes = encode_session(&p);
        match decode(&bytes).unwrap() {
            Packet::Session(q) => assert_eq!(q, p),
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(SessionPacket::Discover {
            seq: 7,
            speaker: "lobby".into(),
        });
        roundtrip(SessionPacket::Offer {
            seq: 3,
            streams: vec![stream(1, "radio", &[0, 3]), stream(2, "pa", &[0])],
        });
        roundtrip(SessionPacket::Setup {
            speaker: "lobby".into(),
            stream_id: 1,
            codec: 3,
            playout_delay_us: 180_000,
            caps: caps(&[3]),
        });
        roundtrip(SessionPacket::SetupAck {
            session_id: 42,
            speaker: "lobby".into(),
            stream_id: 1,
            group: 11,
            codec: 3,
            playout_delay_us: 200_000,
        });
        roundtrip(SessionPacket::Refuse {
            speaker: "lobby".into(),
            stream_id: 9,
            reason: RefuseReason::UnknownStream,
        });
        roundtrip(SessionPacket::Keepalive { session_id: 42 });
        roundtrip(SessionPacket::Flush { session_id: 42 });
        roundtrip(SessionPacket::Teardown {
            session_id: 42,
            reason: TeardownReason::Expired,
        });
    }

    #[test]
    fn empty_offer_and_empty_caps_roundtrip() {
        roundtrip(SessionPacket::Offer {
            seq: 0,
            streams: vec![],
        });
        roundtrip(SessionPacket::Setup {
            speaker: String::new(),
            stream_id: 0,
            codec: 0,
            playout_delay_us: 0,
            caps: Capabilities::any(),
        });
    }

    #[test]
    fn session_corruption_is_detected_everywhere() {
        let bytes = encode_session(&SessionPacket::Setup {
            speaker: "es1".into(),
            stream_id: 2,
            codec: 3,
            playout_delay_us: 100_000,
            caps: caps(&[0, 1, 3]),
        });
        for i in 0..bytes.len() {
            let mut m = bytes.to_vec();
            m[i] ^= 0x40;
            assert!(decode(&m).is_err(), "undetected corruption at byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "undetected cut at {cut}");
        }
    }

    #[test]
    fn negotiate_validates_both_sides() {
        let info = stream(1, "radio", &[0, 3]);
        let g = negotiate(&info, &caps(&[3]), 3, 150_000).unwrap();
        assert_eq!(g.group, 11);
        assert_eq!(g.codec, 3);
        assert_eq!(g.playout_delay_us, 150_000);
        // Delay clamped at both ends.
        assert_eq!(
            negotiate(&info, &caps(&[3]), 3, 1)
                .unwrap()
                .playout_delay_us,
            MIN_PLAYOUT_DELAY_US
        );
        assert_eq!(
            negotiate(&info, &caps(&[3]), 3, u64::MAX)
                .unwrap()
                .playout_delay_us,
            MAX_PLAYOUT_DELAY_US
        );
        // Codec outside the stream's set.
        assert_eq!(
            negotiate(&info, &caps(&[1]), 1, 0),
            Err(RefuseReason::CodecMismatch)
        );
        // Rate outside the receiver's set.
        let phone_only = Capabilities {
            codecs: vec![],
            sample_rates: vec![8_000],
        };
        assert_eq!(
            negotiate(&info, &phone_only, 0, 0),
            Err(RefuseReason::RateMismatch)
        );
    }

    #[test]
    fn table_expires_silent_sessions_in_order() {
        let mut t = SessionTable::new();
        for id in [3u32, 1, 2] {
            t.open(SessionEntry {
                session_id: id,
                speaker: format!("es{id}"),
                stream_id: 1,
                last_seen_us: 0,
            });
        }
        assert_eq!(t.active(), 3);
        assert!(t.touch(2, 5_000_000));
        let dead = t.expire(6_000_000, 2_000_000);
        // 1 and 3 silent since t=0; 2 refreshed at t=5s survives.
        assert_eq!(
            dead.iter().map(|e| e.session_id).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(t.active(), 1);
        assert_eq!(t.expired, 2);
        assert_eq!(t.iter().map(|e| e.session_id).collect::<Vec<_>>(), [2]);
        assert!(!t.touch(1, 6_000_000), "expired id is gone");
        assert!(t.close(2).is_some());
        assert_eq!(t.closed, 1);
    }

    /// Regression (PR 7 satellite): a KEEPALIVE landing in the same
    /// epoch as the expiry sweep must never tear down a live session,
    /// in either processing order.
    #[test]
    fn same_epoch_keepalive_never_expires_session() {
        let entry = |id: u32| SessionEntry {
            session_id: id,
            speaker: format!("es{id}"),
            stream_id: 1,
            last_seen_us: 0,
        };
        let timeout = 2_000_000;
        let epoch = 2_000_000; // Exactly at the timeout boundary.

        // Order A: touch first, then sweep at the same instant.
        let mut t = SessionTable::new();
        t.open(entry(1));
        assert!(t.touch(1, epoch));
        assert!(t.expire(epoch, timeout).is_empty());

        // Order B: sweep first, then touch at the same instant. The
        // boundary is exclusive (`elapsed > timeout`), so a session
        // exactly `timeout` old is still alive when its keepalive is
        // racing the sweep.
        let mut t = SessionTable::new();
        t.open(entry(1));
        assert!(t.expire(epoch, timeout).is_empty(), "boundary is alive");
        assert!(t.touch(1, epoch));
        assert!(t.expire(epoch + timeout, timeout).is_empty());

        // A late-arriving keepalive with an older stamp never rolls
        // liveness backwards.
        assert!(t.touch(1, 1));
        assert_eq!(t.iter().next().unwrap().last_seen_us, epoch);
        assert!(t.expire(epoch + timeout, timeout).is_empty());
    }

    /// Drives a client and a hand-rolled producer loop to completion.
    #[test]
    fn client_happy_path() {
        let mut c = SessionClient::new(SessionClientConfig::new("lobby", "radio"));
        assert_eq!(c.phase(), ClientPhase::Discovering);
        // First poll emits a DISCOVER.
        let a = c.poll(0);
        assert!(matches!(
            a.as_slice(),
            [ClientAction::Send(SessionPacket::Discover { .. })]
        ));
        // Producer answers with an OFFER; client picks the first
        // offered codec and SETUPs.
        let offer = SessionPacket::Offer {
            seq: 0,
            streams: vec![stream(1, "radio", &[3, 0])],
        };
        let a = c.on_packet(10_000, &offer);
        let Some(ClientAction::Send(SessionPacket::Setup {
            stream_id, codec, ..
        })) = a.first()
        else {
            panic!("expected setup, got {a:?}");
        };
        assert_eq!((*stream_id, *codec), (1, 3));
        assert_eq!(c.phase(), ClientPhase::Requesting);
        // ACK for someone else is ignored.
        let foreign = SessionPacket::SetupAck {
            session_id: 9,
            speaker: "cafeteria".into(),
            stream_id: 1,
            group: 11,
            codec: 3,
            playout_delay_us: 200_000,
        };
        assert!(c.on_packet(20_000, &foreign).is_empty());
        // Our ACK establishes and joins the data group.
        let ack = SessionPacket::SetupAck {
            session_id: 7,
            speaker: "lobby".into(),
            stream_id: 1,
            group: 11,
            codec: 3,
            playout_delay_us: 200_000,
        };
        let a = c.on_packet(30_000, &ack);
        assert!(matches!(a[0], ClientAction::JoinData(11)));
        assert!(matches!(
            a[1],
            ClientAction::Established { session_id: 7, .. }
        ));
        assert_eq!(c.session_id(), Some(7));
        // Keepalives flow on schedule.
        let a = c.poll(30_000 + c.cfg.keepalive_interval_us);
        assert!(matches!(
            a.as_slice(),
            [ClientAction::Send(SessionPacket::Keepalive {
                session_id: 7
            })]
        ));
        // Flush resyncs; teardown re-discovers.
        assert_eq!(
            c.on_packet(40_000, &SessionPacket::Flush { session_id: 7 }),
            vec![ClientAction::Resync]
        );
        let a = c.on_packet(
            50_000,
            &SessionPacket::Teardown {
                session_id: 7,
                reason: TeardownReason::Requested,
            },
        );
        assert_eq!(a[0], ClientAction::LeaveData);
        assert!(matches!(a[1], ClientAction::Closed { session_id: 7, .. }));
        assert_eq!(c.phase(), ClientPhase::Discovering);
    }

    #[test]
    fn client_retries_setup_then_gives_up_to_discovery() {
        let mut c = SessionClient::new(SessionClientConfig::new("es", "radio"));
        c.poll(0);
        let offer = SessionPacket::Offer {
            seq: 0,
            streams: vec![stream(1, "radio", &[0])],
        };
        c.on_packet(0, &offer); // attempt 1
        let retry = c.cfg.setup_retry_us;
        for attempt in 1..MAX_SETUP_ATTEMPTS as u64 {
            let a = c.poll(attempt * retry);
            assert!(
                matches!(
                    a.as_slice(),
                    [ClientAction::Send(SessionPacket::Setup { .. })]
                ),
                "{a:?}"
            );
        }
        // Attempts exhausted: back to discovery.
        let a = c.poll(MAX_SETUP_ATTEMPTS as u64 * retry);
        assert_eq!(a, vec![ClientAction::GaveUp]);
        assert_eq!(c.phase(), ClientPhase::Discovering);
        assert_eq!(c.setups_sent, MAX_SETUP_ATTEMPTS as u64);
    }

    #[test]
    fn client_timeout_restarts_discovery() {
        let mut c = SessionClient::new(SessionClientConfig::new("es", "radio"));
        c.poll(0);
        c.on_packet(
            0,
            &SessionPacket::Offer {
                seq: 0,
                streams: vec![stream(1, "radio", &[0])],
            },
        );
        let a = c.on_packet(
            0,
            &SessionPacket::SetupAck {
                session_id: 1,
                speaker: "es".into(),
                stream_id: 1,
                group: 11,
                codec: 0,
                playout_delay_us: 200_000,
            },
        );
        assert!(matches!(a[0], ClientAction::JoinData(11)));
        // Stream traffic defers the timeout…
        c.note_stream_alive(2_000_000);
        assert!(c
            .poll(3_000_000)
            .iter()
            .all(|a| !matches!(a, ClientAction::Lost { .. })));
        // …but silence past the timeout loses the session.
        let a = c.poll(2_000_000 + c.cfg.session_timeout_us + 1);
        assert!(matches!(a[0], ClientAction::Lost { session_id: 1 }));
        assert_eq!(a[1], ClientAction::LeaveData);
        assert_eq!(c.phase(), ClientPhase::Discovering);
        assert_eq!(c.sessions_lost, 1);
        // Re-discovery is immediate.
        let a = c.poll(2_000_000 + c.cfg.session_timeout_us + 2);
        assert!(matches!(
            a.as_slice(),
            [ClientAction::Send(SessionPacket::Discover { .. })]
        ));
    }

    #[test]
    fn a_stream_without_a_codec_set_is_asked_for_its_primary() {
        let mut c = SessionClient::new(SessionClientConfig::new("es", "radio"));
        c.poll(0);
        let mut info = stream(1, "radio", &[]);
        info.codec = 3;
        let a = c.on_packet(
            0,
            &SessionPacket::Offer {
                seq: 0,
                streams: vec![info],
            },
        );
        let [ClientAction::Send(SessionPacket::Setup { codec, caps, .. })] = a.as_slice() else {
            panic!("expected setup, got {a:?}");
        };
        assert_eq!((*codec, caps), (3, &Capabilities::any()));
    }
}
