//! Live mode: the Ethernet Speaker protocol over real UDP multicast.
//!
//! Everything else in this repository runs in the deterministic
//! simulator; this example proves the same wire protocol works on a
//! real network stack, from the same two protocol cores. The producer
//! steps `es_rebroadcast::StreamTx` — the §3.1 rate limiter, the §2.2
//! compression policy (OVL for CD audio), one XOR-parity packet per
//! four data packets — against the wall clock and multicasts what it
//! seals on `239.77.83.23`; a speaker thread joins the group and steps
//! `es_speaker::SpeakerNode` (control gating, producer clock, dedupe,
//! FEC recovery, §3.2's sleep/play/discard) from a socket, then reports
//! what it played. Its audio is written to `real_udp.wav`.
//!
//! Needs a network stack that permits multicast on loopback; if the
//! environment forbids it the example says so and exits cleanly.
//!
//! Run: `cargo run --example real_udp`

use std::time::Duration;

use es_audio::gen::MultiTone;
use es_core::prelude::*;
use es_core::{run_live_producer, run_live_speaker, LiveProducerConfig};

fn main() {
    let channel = 23;
    let port = 47_123;
    let clip = Duration::from_secs(3);
    // Both ends share one journal; every event carries a wall-clock
    // stamp — the same instrumented paths as the simulator, other
    // time domain.
    let journal = Journal::new();

    println!("starting a speaker thread on channel {channel} (udp port {port})...");
    let j2 = journal.clone();
    let spk1 = std::thread::spawn(move || {
        run_live_speaker(channel, port, clip + Duration::from_millis(800), Some(j2))
    });
    std::thread::sleep(Duration::from_millis(200));

    let mut cfg = LiveProducerConfig::new(channel, port);
    cfg.journal = Some(journal.clone());
    cfg.tx.fec_group = Some(4);
    let (codec, quality) = cfg.tx.policy.select(&cfg.config);
    println!(
        "streaming {clip:?} of CD audio, {codec:?} quality {quality} (paper's max), FEC 4+1 ..."
    );
    let mut signal = MultiTone::music(44_100);
    let produced = match run_live_producer(&cfg, &mut signal, clip) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("multicast unavailable in this environment ({e}); nothing to do.");
            return;
        }
    };
    let sent = produced.stats;
    println!(
        "producer: {} data + {} control + {} parity packets, {} KiB payload, elapsed {:.2?} (clip {:?} + playout — the 5-minute-song property)",
        sent.data_packets,
        sent.control_packets,
        produced.datagrams - sent.data_packets - sent.control_packets,
        sent.payload_bytes_out / 1024,
        produced.elapsed,
        clip
    );

    // Wall-time telemetry: the same Telemetry trait and registry as
    // the simulator path.
    let mut reg = Registry::new();
    reg.set_instance("live");
    produced.record(&mut reg);

    for (i, h) in [spk1].into_iter().enumerate() {
        match h.join().expect("speaker thread") {
            Ok(heard) => {
                heard.stats.record(&mut reg);
                let secs = heard
                    .config
                    .map(|c| {
                        heard.samples.len() as f64 / (c.sample_rate as f64 * c.channels as f64)
                    })
                    .unwrap_or(0.0);
                let st = heard.stats;
                println!(
                    "speaker {i}: {} control, {} data packets, {:.1}s decoded, {} bad",
                    st.control_packets, st.data_packets, secs, st.bad_packets
                );
                println!(
                    "          {} duplicates dropped, {} recovered by FEC, {} dropped late, {} before control",
                    st.dropped_duplicate, st.fec_recovered, st.dropped_late, st.dropped_waiting_control
                );
                if i == 0 && !heard.samples.is_empty() {
                    let cfg = heard.config.expect("decoded implies config");
                    es_audio::wav::write_wav(
                        "real_udp.wav",
                        cfg.sample_rate,
                        cfg.channels,
                        &heard.samples,
                    )
                    .expect("write real_udp.wav");
                    println!("          wrote real_udp.wav");
                }
                if st.datagrams == 0 {
                    println!(
                        "          (no multicast loopback delivery here — common in sandboxes)"
                    );
                }
            }
            Err(e) => println!("speaker {i}: could not join multicast ({e})"),
        }
    }

    println!("\ntelemetry snapshot (JSON lines):");
    print!("{}", reg.snapshot().to_json_lines());
    println!("journal ({} wall-clock events):", journal.len());
    for ev in journal.events() {
        println!("  {}", ev.to_json_line());
    }
}
