//! E-AUTH: stream authentication cost and DoS resistance (§5.1).
//!
//! "For the audio authentication digitally signing every audio packet
//! is not feasible as it allows an attacker to overwhelm an ES by
//! simply feeding it garbage. We are, therefore, examining techniques
//! for fast signing and verification." The TESLA-style scheme in
//! `es-proto::auth` is such a technique: the experiment measures (a)
//! the honest-path cost per packet, (b) what a garbage flood can make
//! the verifier spend — which must stay bounded and cheap — and (c)
//! the primitive operations' cost in SHA-256 compression blocks. Their
//! wall time is the perf ledger's `proto.auth_{sign,verify}_us_per_pkt`.

use es_proto::auth::{AuthTrailer, StreamSigner, StreamVerifier};

/// A full-size audio packet, the message an honest MAC check covers.
const PACKET_BYTES: usize = 1_024;

/// SHA-256 compression-function calls to hash `len` bytes: the message,
/// the 0x80 pad byte and the 8-byte length, in 64-byte blocks
/// (FIPS 180-4 §5.1.1).
fn sha256_blocks(len: usize) -> u64 {
    (len as u64 + 9).div_ceil(64)
}

/// Results of the authentication experiment.
#[derive(Debug)]
pub struct AuthRun {
    /// Honest packets authenticated.
    pub authenticated: u64,
    /// MAC checks per honest packet (should be ≈ 1).
    pub macs_per_honest_packet: f64,
    /// Hash operations per honest packet (should be ≈ 1).
    pub hashes_per_honest_packet: f64,
    /// Garbage packets injected in the flood phase.
    pub garbage_packets: u64,
    /// MAC checks the flood induced (bounded by the pending buffer).
    pub flood_mac_checks: u64,
    /// Hash operations the flood induced.
    pub flood_hashes: u64,
    /// Forged packets that reached the audio path (must be 0).
    pub forged_played: u64,
    /// Compression blocks per HMAC verification of one packet: the
    /// inner hash over the padded key block and the packet, the outer
    /// one over the padded key block and the inner digest (RFC 2104).
    pub hmac_blocks: u64,
    /// Compression blocks per chain-hash check (one 32-byte key).
    pub hash_blocks: u64,
}

/// Runs the honest-stream phase followed by a garbage flood.
pub fn run(honest_packets: u64, garbage_packets: u64, seed_label: &str) -> AuthRun {
    let signer = StreamSigner::new(seed_label.as_bytes(), honest_packets as u32 + 16, 2);
    let mut verifier = StreamVerifier::with_buffer(signer.anchor(), 256);

    // Honest phase: one packet per interval (a control+data cadence).
    let mut authenticated = 0u64;
    for i in 1..=honest_packets {
        let msg = format!("audio-packet-{i}");
        let trailer = signer.sign(i as u32, msg.as_bytes());
        let (released, _) = verifier.offer(msg.as_bytes(), &trailer);
        authenticated += released.len() as u64;
    }
    let honest_stats = verifier.stats();

    // Flood phase: an attacker blasts garbage claiming future
    // intervals with fake MACs and fake disclosed keys.
    for i in 0..garbage_packets {
        let trailer = AuthTrailer {
            interval: honest_packets as u32 + 8,
            mac: [i as u8; 32],
            disclosed_interval: honest_packets as u32 - 1,
            disclosed_key: [0x55; 32],
        };
        let payload = [0u8; 256];
        let _ = verifier.offer(&payload, &trailer);
    }
    let flood_stats = verifier.stats();

    AuthRun {
        authenticated,
        macs_per_honest_packet: honest_stats.mac_checks as f64 / honest_packets as f64,
        hashes_per_honest_packet: honest_stats.key_check_hashes as f64 / honest_packets as f64,
        garbage_packets,
        flood_mac_checks: flood_stats.mac_checks - honest_stats.mac_checks,
        flood_hashes: flood_stats.key_check_hashes - honest_stats.key_check_hashes,
        forged_played: flood_stats.forged,
        hmac_blocks: sha256_blocks(64 + PACKET_BYTES) + sha256_blocks(64 + 32),
        hash_blocks: sha256_blocks(32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_path_is_one_mac_one_hash_per_packet() {
        let r = run(500, 0, "t1");
        println!("500 honest packets: {r:?}");
        assert_eq!(r.authenticated, 498, "all but the last delay window");
        assert!(
            (0.9..1.1).contains(&r.macs_per_honest_packet),
            "{} MACs/packet",
            r.macs_per_honest_packet
        );
        assert!(
            (0.9..1.2).contains(&r.hashes_per_honest_packet),
            "{} hashes/packet",
            r.hashes_per_honest_packet
        );
    }

    #[test]
    fn garbage_flood_cannot_buy_mac_work() {
        let r = run(200, 10_000, "t2");
        println!("200 honest packets, then 10 000 garbage: {r:?}");
        // The attacker spent 10k packets; the verifier spent at most
        // one cheap hash each on the fake disclosures and zero MACs
        // (fake keys never verify, so buffered garbage never reaches
        // the HMAC stage).
        assert_eq!(r.flood_mac_checks, 0, "flood induced MAC work");
        assert!(
            r.flood_hashes <= r.garbage_packets,
            "flood hashes {} > packets",
            r.flood_hashes
        );
        assert_eq!(r.forged_played, 0);
    }

    #[test]
    fn hash_precheck_is_much_cheaper_than_hmac() {
        let r = run(50, 0, "t3");
        println!("50 honest packets: {r:?}");
        assert!(
            r.hash_blocks * 2 < r.hmac_blocks,
            "hash {} blocks vs hmac {} blocks",
            r.hash_blocks,
            r.hmac_blocks
        );
    }
}
