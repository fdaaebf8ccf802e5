//! Stream authentication with delayed key disclosure.
//!
//! §5.1 sets two requirements: "(a) the ES should not play audio from
//! an unauthorized source, and (b) the machine should be resistant to
//! denial of service attacks", and explicitly rejects per-packet
//! digital signatures because "it allows an attacker to overwhelm an ES
//! by simply feeding it garbage", pointing at fast-verification schemes
//! (Reyzin & Reyzin, Karlof et al.) instead.
//!
//! The implemented scheme is TESLA-shaped, built from the one-way
//! SHA-256 chain + HMAC primitives in this crate:
//!
//! - The producer generates a key chain `k_0 ← H(k_1) ← ... ← H(k_n)`
//!   and distributes the *anchor* `k_0` out-of-band — the paper's plan
//!   of storing a verification key in each speaker's non-volatile RAM
//!   via the boot configuration (`es-boot`).
//! - Time is sliced into intervals. Packets sent during interval `i`
//!   carry `HMAC(k_i, packet)`; `k_i` itself is only *disclosed* `d`
//!   intervals later.
//! - A receiver buffers packets until their key is disclosed, verifies
//!   the disclosed key against the anchor with a handful of hash
//!   applications (cheap, bounded — this is the DoS resistance), and
//!   only then checks the MACs.
//!
//! A packet whose interval's key is already public is rejected
//! outright: an attacker who waited for the disclosure learned the key
//! too late to forge with it.

use std::collections::VecDeque;

use crate::sha256::{ct_eq, hmac_sha256, sha256, Sha256};

/// Wire size of an [`AuthTrailer`].
pub const TRAILER_LEN: usize = 4 + 32 + 4 + 32;

/// Default disclosure delay in intervals.
pub const DEFAULT_DISCLOSURE_DELAY: u32 = 2;

/// The per-packet authentication trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthTrailer {
    /// Interval whose (still secret) key MAC'd this packet.
    pub interval: u32,
    /// `HMAC(k_interval, message)`.
    pub mac: [u8; 32],
    /// Interval of the key being disclosed in this packet (0 = none
    /// yet).
    pub disclosed_interval: u32,
    /// The disclosed key bytes.
    pub disclosed_key: [u8; 32],
}

impl AuthTrailer {
    /// Serializes to the fixed wire layout.
    pub fn encode(&self) -> [u8; TRAILER_LEN] {
        let mut out = [0u8; TRAILER_LEN];
        out[0..4].copy_from_slice(&self.interval.to_le_bytes());
        out[4..36].copy_from_slice(&self.mac);
        out[36..40].copy_from_slice(&self.disclosed_interval.to_le_bytes());
        out[40..72].copy_from_slice(&self.disclosed_key);
        out
    }

    /// Parses the fixed wire layout.
    pub fn decode(bytes: &[u8]) -> Option<AuthTrailer> {
        if bytes.len() != TRAILER_LEN {
            return None;
        }
        let mut mac = [0u8; 32];
        mac.copy_from_slice(&bytes[4..36]);
        let mut disclosed_key = [0u8; 32];
        disclosed_key.copy_from_slice(&bytes[40..72]);
        Some(AuthTrailer {
            interval: u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            mac,
            disclosed_interval: u32::from_le_bytes([bytes[36], bytes[37], bytes[38], bytes[39]]),
            disclosed_key,
        })
    }
}

/// The producer side: owns the key chain and signs outgoing packets.
pub struct StreamSigner {
    /// `keys[i]` is `k_i`; `keys[0]` is the public anchor.
    keys: Vec<[u8; 32]>,
    delay: u32,
}

impl StreamSigner {
    /// Generates a chain of `intervals` keys from a seed. The seed
    /// stands in for the producer's secret; determinism keeps the
    /// experiments reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is 0 or `delay` is 0.
    pub fn new(seed: &[u8], intervals: u32, delay: u32) -> Self {
        assert!(intervals > 0, "need at least one interval");
        assert!(delay > 0, "disclosure delay must be at least one interval");
        let n = intervals as usize;
        let mut keys = vec![[0u8; 32]; n + 1];
        let mut h = Sha256::new();
        h.update(b"es-keychain-tip");
        h.update(seed);
        keys[n] = h.finalize();
        for i in (0..n).rev() {
            keys[i] = sha256(&keys[i + 1]);
        }
        StreamSigner { keys, delay }
    }

    /// The public anchor `k_0`, to be provisioned into speakers
    /// out-of-band.
    pub fn anchor(&self) -> [u8; 32] {
        self.keys[0]
    }

    /// Number of usable signing intervals.
    pub fn intervals(&self) -> u32 {
        (self.keys.len() - 1) as u32
    }

    /// The configured disclosure delay.
    pub fn delay(&self) -> u32 {
        self.delay
    }

    /// Signs `message` as sent during `interval` (1-based) and embeds
    /// the newest key that may be disclosed.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is 0 or beyond the chain length.
    pub fn sign(&self, interval: u32, message: &[u8]) -> AuthTrailer {
        assert!(
            (1..=self.intervals()).contains(&interval),
            "interval {interval} outside chain"
        );
        let mac = hmac_sha256(&self.keys[interval as usize], message);
        let (disclosed_interval, disclosed_key) = if interval > self.delay {
            let di = interval - self.delay;
            (di, self.keys[di as usize])
        } else {
            (0, [0u8; 32])
        };
        AuthTrailer {
            interval,
            mac,
            disclosed_interval,
            disclosed_key,
        }
    }
}

/// Why a packet was not (yet) authenticated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Claimed interval's key is already public — possible replay or
    /// post-disclosure forgery.
    KeyAlreadyDisclosed,
    /// The pending buffer is full; oldest entries were evicted.
    BufferFull,
}

/// Verification statistics — the E-AUTH experiment's raw numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifierStats {
    /// Packets authenticated successfully.
    pub authenticated: u64,
    /// Packets whose MAC failed once the key arrived.
    pub forged: u64,
    /// Packets rejected before buffering.
    pub rejected_early: u64,
    /// Disclosed keys that did not verify against the anchor.
    pub bad_keys: u64,
    /// Total SHA-256 compression-scale operations spent on *key*
    /// verification (the cheap pre-check).
    pub key_check_hashes: u64,
    /// Total HMAC operations spent verifying buffered packets.
    pub mac_checks: u64,
}

struct Pending {
    interval: u32,
    mac: [u8; 32],
    message: Vec<u8>,
}

/// The receiver side: anchors trust in `k_0` and releases packets as
/// keys disclose.
pub struct StreamVerifier {
    anchor_interval: u32,
    anchor_key: [u8; 32],
    pending: VecDeque<Pending>,
    max_pending: usize,
    stats: VerifierStats,
}

impl StreamVerifier {
    /// Creates a verifier trusting `anchor` as `k_0`.
    pub fn new(anchor: [u8; 32]) -> Self {
        Self::with_buffer(anchor, 4_096)
    }

    /// Creates a verifier with an explicit pending-buffer bound (the
    /// DoS backstop: garbage can occupy at most this much memory).
    pub fn with_buffer(anchor: [u8; 32], max_pending: usize) -> Self {
        StreamVerifier {
            anchor_interval: 0,
            anchor_key: anchor,
            pending: VecDeque::new(),
            max_pending,
            stats: VerifierStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> VerifierStats {
        self.stats
    }

    /// Verifies a disclosed key against the anchor by hashing forward.
    /// On success the anchor advances (so future checks get cheaper).
    /// Cost is `interval - anchor_interval` hashes — the bounded,
    /// garbage-resistant pre-check.
    pub fn accept_key(&mut self, interval: u32, key: [u8; 32]) -> bool {
        if interval <= self.anchor_interval {
            // Already known or stale; nothing to do. Accept silently if
            // it matches what we know for the anchor itself.
            return interval == self.anchor_interval && ct_eq(&key, &self.anchor_key);
        }
        // Refuse absurd jumps (an attacker could otherwise buy a huge
        // hash loop with four forged bytes).
        let gap = interval - self.anchor_interval;
        if gap > 1_024 {
            self.stats.bad_keys += 1;
            return false;
        }
        let mut walked = key;
        for _ in 0..gap {
            walked = sha256(&walked);
            self.stats.key_check_hashes += 1;
        }
        if !ct_eq(&walked, &self.anchor_key) {
            self.stats.bad_keys += 1;
            return false;
        }
        self.anchor_interval = interval;
        self.anchor_key = key;
        true
    }

    /// Offers a packet with its trailer. Returns the messages newly
    /// authenticated by this call (the offered one and/or earlier
    /// buffered ones released by the disclosed key).
    pub fn offer(
        &mut self,
        message: &[u8],
        trailer: &AuthTrailer,
    ) -> (Vec<Vec<u8>>, Option<Reject>) {
        // Packets MAC'd with an already-public key prove nothing.
        let mut reject = None;
        if trailer.interval <= self.anchor_interval {
            self.stats.rejected_early += 1;
            reject = Some(Reject::KeyAlreadyDisclosed);
        } else {
            if self.pending.len() >= self.max_pending {
                self.pending.pop_front();
                reject = Some(Reject::BufferFull);
            }
            self.pending.push_back(Pending {
                interval: trailer.interval,
                mac: trailer.mac,
                message: message.to_vec(),
            });
        }
        // Process the disclosure, possibly releasing buffered packets.
        let mut released = Vec::new();
        if trailer.disclosed_interval > 0
            && self.accept_key(trailer.disclosed_interval, trailer.disclosed_key)
        {
            released = self.release();
        }
        (released, reject)
    }

    /// Verifies every buffered packet whose interval key can now be
    /// derived (interval ≤ anchor). Keys for intermediate intervals are
    /// recovered by walking the chain from the anchor.
    fn release(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let anchor_interval = self.anchor_interval;
        let anchor_key = self.anchor_key;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].interval > anchor_interval {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i).expect("index checked");
            // Derive k_{p.interval} from the anchor by hashing down.
            let mut key = anchor_key;
            for _ in 0..(anchor_interval - p.interval) {
                key = sha256(&key);
                self.stats.key_check_hashes += 1;
            }
            self.stats.mac_checks += 1;
            let mac = hmac_sha256(&key, &p.message);
            if ct_eq(&mac, &p.mac) {
                self.stats.authenticated += 1;
                out.push(p.message);
            } else {
                self.stats.forged += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer() -> StreamSigner {
        StreamSigner::new(b"test-seed", 64, DEFAULT_DISCLOSURE_DELAY)
    }

    #[test]
    fn chain_is_one_way() {
        let s = signer();
        // k_0 = H(k_1): verify a couple of links via the signer's own data.
        let t3 = s.sign(3, b"m");
        let t1_key_from_t3 = sha256(&sha256(&t3.disclosed_key));
        // t3 disclosed k_1 (delay 2); hashing twice from k_1 lands
        // below the chain start — instead verify H(k_1) == k_0.
        assert_eq!(t3.disclosed_interval, 1);
        assert_eq!(sha256(&t3.disclosed_key), s.anchor());
        let _ = t1_key_from_t3;
    }

    #[test]
    fn trailer_wire_roundtrip() {
        let s = signer();
        let t = s.sign(5, b"payload");
        let bytes = t.encode();
        assert_eq!(AuthTrailer::decode(&bytes), Some(t));
        assert_eq!(AuthTrailer::decode(&bytes[..10]), None);
    }

    #[test]
    fn honest_stream_authenticates_everything() {
        let s = signer();
        let mut v = StreamVerifier::new(s.anchor());
        let mut got = Vec::new();
        for i in 1..=20u32 {
            let msg = format!("packet {i}");
            let t = s.sign(i, msg.as_bytes());
            let (released, reject) = v.offer(msg.as_bytes(), &t);
            assert_eq!(reject, None, "interval {i}");
            got.extend(released);
        }
        // Everything up to interval 18 (disclosed by packet 20) is out.
        assert_eq!(got.len(), 18);
        assert_eq!(got[0], b"packet 1");
        assert_eq!(v.stats().authenticated, 18);
        assert_eq!(v.stats().forged, 0);
    }

    #[test]
    fn forged_packets_are_detected_not_played() {
        let s = signer();
        let mut v = StreamVerifier::new(s.anchor());
        // Attacker injects garbage claiming interval 5.
        let forged = AuthTrailer {
            interval: 5,
            mac: [0xAB; 32],
            disclosed_interval: 0,
            disclosed_key: [0; 32],
        };
        let (released, reject) = v.offer(b"evil audio", &forged);
        assert!(released.is_empty());
        assert_eq!(reject, None, "buffered, not played");
        // Honest traffic continues; disclosure of k_5 exposes the fake.
        let mut got = Vec::new();
        for i in 1..=10u32 {
            let msg = format!("good {i}");
            let t = s.sign(i, msg.as_bytes());
            got.extend(v.offer(msg.as_bytes(), &t).0);
        }
        assert!(got.iter().all(|m| m.starts_with(b"good")));
        assert_eq!(v.stats().forged, 1);
    }

    #[test]
    fn post_disclosure_forgery_rejected_cheaply() {
        let s = signer();
        let mut v = StreamVerifier::new(s.anchor());
        for i in 1..=10u32 {
            let msg = [i as u8];
            let t = s.sign(i, &msg);
            v.offer(&msg, &t);
        }
        // k_8 is now public (disclosed by packet 10). An attacker who
        // learned it signs garbage for interval 8.
        let key_8 = s.sign(10, b"x").disclosed_key;
        let forged = AuthTrailer {
            interval: 8,
            mac: hmac_sha256(&key_8, b"late forgery"),
            disclosed_interval: 0,
            disclosed_key: [0; 32],
        };
        let before = v.stats().mac_checks;
        let (released, reject) = v.offer(b"late forgery", &forged);
        assert!(released.is_empty());
        assert_eq!(reject, Some(Reject::KeyAlreadyDisclosed));
        assert_eq!(v.stats().mac_checks, before, "no MAC work spent");
    }

    #[test]
    fn bad_disclosed_keys_cost_bounded_hashes() {
        let s = signer();
        let mut v = StreamVerifier::new(s.anchor());
        let garbage = AuthTrailer {
            interval: 3,
            mac: [0; 32],
            disclosed_interval: 1,
            disclosed_key: [0x55; 32], // Not the real k_1.
        };
        let (released, _) = v.offer(b"x", &garbage);
        assert!(released.is_empty());
        assert_eq!(v.stats().bad_keys, 1);
        assert_eq!(v.stats().key_check_hashes, 1, "exactly one hash spent");
        // Absurd interval jumps are refused without hashing 4 billion
        // times.
        assert!(!v.accept_key(2_000_000, [1; 32]));
        assert_eq!(v.stats().bad_keys, 2);
    }

    #[test]
    fn buffer_bound_evicts_oldest() {
        let s = signer();
        let mut v = StreamVerifier::with_buffer(s.anchor(), 4);
        for i in 0..10 {
            let forged = AuthTrailer {
                interval: 30,
                mac: [i as u8; 32],
                disclosed_interval: 0,
                disclosed_key: [0; 32],
            };
            let (_, reject) = v.offer(&[i as u8], &forged);
            if i >= 4 {
                assert_eq!(reject, Some(Reject::BufferFull));
            }
        }
    }

    #[test]
    fn anchor_advances_and_replays_rejected() {
        let s = signer();
        let mut v = StreamVerifier::new(s.anchor());
        for i in 1..=6u32 {
            let msg = [i as u8];
            let t = s.sign(i, &msg);
            v.offer(&msg, &t);
        }
        // Replaying packet 2 (key long public) is rejected early.
        let t2 = s.sign(2, &[2u8]);
        let (rel, rej) = v.offer(&[2u8], &t2);
        assert!(rel.is_empty());
        assert_eq!(rej, Some(Reject::KeyAlreadyDisclosed));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn signing_interval_zero_panics() {
        let s = signer();
        let _ = s.sign(0, b"x");
    }
}
