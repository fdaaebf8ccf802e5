//! Smoke test: the session control plane over real UDP loopback
//! multicast — one broker thread serving 8 concurrent receiver
//! handshakes from a single `SessionServer`.
//!
//! This is the broker's socket driver, as `es_core::SessionBroker` is
//! its simulator driver: `recv` → `on_packet` / `sweep` → `send`, with
//! no protocol of its own. The state machines (`SessionServer`,
//! `SessionClient`) run here exactly as they do in the simulator; only
//! the transport differs. Time is synthetic — each loop iteration
//! advances a per-thread microsecond clock — so the determinism lints
//! hold and the handshake logic, not the host clock, drives the
//! protocol. Sandboxes that forbid multicast skip *explicitly*: every
//! skip prints a `SKIPPED:` marker to stdout (run with `--nocapture`)
//! and journals the reason, so `scripts/check.sh` can count skips
//! instead of mistaking an unsupported sandbox for a green run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use es_net::udp::{McastReceiver, McastSender};
use es_proto::{
    encode_session, Capabilities, ClientAction, ClientPhase, Packet, ServerAction, SessionClient,
    SessionClientConfig, SessionPacket, SessionServer, StreamInfo, TeardownReason,
};
use es_telemetry::{Journal, Severity, Stamp};

const CHANNEL: u8 = 23;
const CLIENTS: usize = 8;
const CLIENT_TO_BROKER: u16 = 49_600; // + client index
const BROKER_TO_CLIENT: u16 = 49_700; // + client index
const TICK_US: u64 = 5_000;
const MAX_LOOPS: usize = 2_000;

fn skip(journal: &Journal, reason: String) {
    // The marker line is the machine-readable contract with
    // scripts/check.sh; keep the prefix stable.
    println!("SKIPPED: session_udp: {reason}");
    journal.emit(
        Stamp::wall_now(),
        Severity::Warn,
        "session",
        "udp session smoke skipped",
        &[("reason", reason)],
    );
}

fn radio_info() -> StreamInfo {
    StreamInfo {
        stream_id: 1,
        group: 77,
        name: "radio".into(),
        codec: 0,
        config: es_audio::AudioConfig::CD,
        flags: 0,
        caps: Capabilities {
            codecs: vec![0],
            sample_rates: vec![44_100],
            device_class: es_proto::DeviceClass::Standard,
        },
    }
}

/// Carries out what the server decided: a reply goes down the socket
/// of the client that was heard (`bind_reusable` admits a single
/// receiver per port per process, so each client has its own pair),
/// an announcement down all of them. No producer stands behind this
/// broker and nobody reads a journal, so the rest is dropped.
fn carry_out(txs: &[McastSender], from: Option<usize>, out: &mut Vec<ServerAction>) {
    for action in out.drain(..) {
        match (action, from) {
            (ServerAction::Reply(pkt), Some(i)) => {
                let _ = txs[i].send(&encode_session(&pkt));
            }
            (ServerAction::Announce(pkt), _) => {
                let bytes = encode_session(&pkt);
                for tx in txs {
                    let _ = tx.send(&bytes);
                }
            }
            _ => {}
        }
    }
}

/// The broker loop; returns the most sessions it held at once, and
/// the server for its tables.
fn broker_loop(
    rxs: Vec<McastReceiver>,
    txs: Vec<McastSender>,
    stop: Arc<AtomicBool>,
) -> (usize, SessionServer) {
    // Never expire a session mid-test.
    let mut server = SessionServer::new(vec![radio_info()], 60_000_000);
    let mut now_us: u64 = 0;
    let mut max_concurrent = 0usize;
    let mut buf = vec![0u8; 2_048];
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        now_us += TICK_US;
        for (i, rx) in rxs.iter().enumerate() {
            let Ok(Some(n)) = rx.recv(&mut buf) else {
                continue;
            };
            let Ok(Packet::Session(sp)) = es_proto::decode(&buf[..n]) else {
                continue;
            };
            server.on_packet(now_us, &sp, &mut out);
            carry_out(&txs, Some(i), &mut out);
            max_concurrent = max_concurrent.max(server.sessions_active());
        }
        server.sweep(now_us, &mut out);
        carry_out(&txs, None, &mut out);
    }
    (max_concurrent, server)
}

struct ClientOutcome {
    name: String,
    established: bool,
    heard_any: bool,
}

/// One receiver handshake: discover → setup → established, then hold
/// the session (keepalives) until every peer is established too, then
/// tear down.
fn client_loop(
    i: usize,
    rx: McastReceiver,
    tx: McastSender,
    established_count: Arc<AtomicUsize>,
) -> ClientOutcome {
    let name = format!("udp-es-{i}");
    let mut cfg = SessionClientConfig::new(name.clone(), "radio");
    cfg.discover_interval_us = 20_000;
    cfg.setup_retry_us = 30_000;
    cfg.keepalive_interval_us = 50_000;
    cfg.session_timeout_us = 60_000_000; // Never lose it mid-test.
    let mut client = SessionClient::new(cfg);
    let mut now_us: u64 = 0;
    let mut heard_any = false;
    let mut counted = false;
    let mut session_id = None;
    let mut buf = vec![0u8; 2_048];
    for _ in 0..MAX_LOOPS {
        now_us += TICK_US;
        let mut actions = client.poll(now_us);
        if let Ok(Some(n)) = rx.recv(&mut buf) {
            heard_any = true;
            if let Ok(Packet::Session(sp)) = es_proto::decode(&buf[..n]) {
                actions.extend(client.on_packet(now_us, &sp));
            }
        }
        for a in actions {
            match a {
                ClientAction::Send(pkt) => {
                    let _ = tx.send(&encode_session(&pkt));
                }
                ClientAction::Established {
                    session_id: sid, ..
                } => {
                    session_id = Some(sid);
                    if !counted {
                        counted = true;
                        established_count.fetch_add(1, Ordering::SeqCst);
                    }
                }
                _ => {}
            }
        }
        // Hold the session until the whole fleet is in — that is the
        // "8 concurrent sessions" part — then close cleanly.
        if client.phase() == ClientPhase::Established
            && established_count.load(Ordering::SeqCst) >= CLIENTS
        {
            let teardown = SessionPacket::Teardown {
                session_id: session_id.expect("established implies a session id"),
                reason: TeardownReason::Requested,
            };
            let _ = tx.send(&encode_session(&teardown));
            return ClientOutcome {
                name,
                established: true,
                heard_any,
            };
        }
    }
    ClientOutcome {
        name,
        established: false,
        heard_any,
    }
}

#[test]
fn eight_concurrent_sessions_over_udp_loopback() {
    let journal = Journal::new();

    // All sockets up front, so an unsupported sandbox skips before any
    // thread spawns.
    let mut broker_rxs = Vec::new();
    let mut broker_txs = Vec::new();
    let mut client_sockets = Vec::new();
    for i in 0..CLIENTS {
        let up = CLIENT_TO_BROKER + i as u16;
        let down = BROKER_TO_CLIENT + i as u16;
        let timeout = Duration::from_millis(2);
        match (
            McastReceiver::join(CHANNEL, up, timeout),
            McastSender::new(CHANNEL, down),
            McastReceiver::join(CHANNEL, down, Duration::from_millis(5)),
            McastSender::new(CHANNEL, up),
        ) {
            (Ok(brx), Ok(btx), Ok(crx), Ok(ctx)) => {
                broker_rxs.push(brx);
                broker_txs.push(btx);
                client_sockets.push((crx, ctx));
            }
            (r1, r2, r3, r4) => {
                let why = [
                    r1.err().map(|e| e.to_string()),
                    r2.err().map(|e| e.to_string()),
                    r3.err().map(|e| e.to_string()),
                    r4.err().map(|e| e.to_string()),
                ]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .join("; ");
                skip(&journal, format!("client {i}: {why}"));
                return;
            }
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let established_count = Arc::new(AtomicUsize::new(0));

    let broker = {
        let stop = stop.clone();
        std::thread::spawn(move || broker_loop(broker_rxs, broker_txs, stop))
    };
    let clients: Vec<_> = client_sockets
        .into_iter()
        .enumerate()
        .map(|(i, (rx, tx))| {
            let count = established_count.clone();
            std::thread::spawn(move || client_loop(i, rx, tx, count))
        })
        .collect();

    let outcomes: Vec<ClientOutcome> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Give the broker a beat to absorb the final teardowns, then stop.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let (max_concurrent, server) = broker.join().expect("broker thread");

    if outcomes.iter().all(|o| !o.heard_any) {
        skip(&journal, "no multicast loopback delivery".into());
        return;
    }
    for o in &outcomes {
        assert!(
            o.established,
            "{} heard traffic but never established",
            o.name
        );
    }
    assert_eq!(
        max_concurrent, CLIENTS,
        "all {CLIENTS} sessions must be open simultaneously"
    );
    let table = server.table(0);
    assert_eq!(table.opened, CLIENTS as u64, "one grant per client");
    assert_eq!(table.closed, CLIENTS as u64, "every teardown processed");
    assert_eq!(table.active(), 0, "table drained after the teardowns");
}
