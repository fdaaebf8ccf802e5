//! Quickstart: one music channel, three synchronized Ethernet Speakers.
//!
//! Builds the paper's Figure 1 in the simulator — an application
//! playing into the VAD, the rebroadcaster multicasting compressed
//! audio, three speakers — runs ten virtual seconds, verifies everyone
//! heard the same audio at the same time, and writes what the first
//! speaker played to `quickstart.wav` so you can listen to it.
//!
//! Two of the speakers use the control plane (DESIGN.md §9): they
//! discover the channel on the announce group, negotiate a codec and
//! playout delay against their advertised capabilities, and join the
//! data group the broker grants. The third is statically wired to the
//! multicast group — the paper's original stateless mode, still the
//! compat path — and powers on mid-stream, §3.2's hard case: it must
//! wait for a control packet, then fall in step with the others.
//!
//! Run: `cargo run --example quickstart`

use es_core::prelude::*;

fn main() {
    let group = McastGroup(1);
    let announce = McastGroup(0);
    let channel = ChannelSpec::new(1, group, "campus-radio")
        .source(Source::Music)
        .duration(SimDuration::from_secs(12));

    let mut sys = SystemBuilder::new(42)
        .channel(channel)
        .sessions(SessionSpec::new(announce))
        // `capture_output` keeps what each DAC played, for the offset
        // measurement and the WAV below; by default a speaker keeps
        // only counts, so its memory does not grow with the stream.
        .speaker(SpeakerSpec::negotiated("lobby", "campus-radio").capture_output())
        .speaker(SpeakerSpec::negotiated("cafeteria", "campus-radio").capture_output())
        .speaker(
            // Statically tuned, powered on mid-stream: the original
            // stateless mode, no handshake, just the control-packet gate.
            SpeakerSpec::new("hallway", group)
                .starting_at(SimDuration::from_secs(4))
                .capture_output(),
        )
        .build();

    println!("running 10 virtual seconds of the Ethernet Speaker system...");
    sys.run_until(SimTime::from_secs(10));

    println!("\nproducer:");
    let rb = sys.rebroadcaster(0).stats();
    println!(
        "  {} data packets, {} control packets, {} KiB audio in -> {} KiB on the wire",
        rb.data_packets,
        rb.control_packets,
        rb.audio_bytes_in / 1024,
        rb.payload_bytes_out / 1024
    );
    if let Some(broker) = sys.broker() {
        let bs = broker.stats();
        println!(
            "  broker: {} discovers heard, {} sessions granted, {} active now",
            bs.discovers,
            bs.acks,
            broker.sessions_active()
        );
    }

    println!("\nspeakers:");
    for i in 0..sys.speaker_count() {
        let spk = sys.speaker(i).expect("all speakers powered by now");
        let st = spk.stats();
        let secs = st.samples_played as f64 / (44_100.0 * 2.0);
        let mode = match sys.session(i) {
            Some(session) => format!(
                "session {} ({:?})",
                session.session_id().unwrap_or(0),
                session.phase()
            ),
            None => "static".into(),
        };
        println!(
            "  speaker {i} [{mode}]: {:.1}s played, {} control pkts, {} late drops, offset {:+} us",
            secs,
            st.control_packets,
            st.dropped_late,
            spk.clock_offset_us().unwrap_or(0),
        );
    }

    for other in 1..sys.speaker_count() {
        if let Some(off) = sys.playback_offset(
            0,
            other,
            SimTime::from_secs(7),
            SimDuration::from_millis(200),
        ) {
            println!("  playback offset speaker0 vs speaker{other}: {off}");
        }
    }

    // The unified telemetry view: one snapshot across every component.
    let metrics = sys.metrics();
    println!("\ntelemetry ({} metrics):", metrics.len());
    for path in [
        "net/lan0/frames_delivered",
        "rebroadcast/ch0/rate_sleeps",
        "session/broker/acks",
        "speaker/lobby/samples_played",
    ] {
        if let Some(v) = metrics.counter(path) {
            println!("  {path} = {v}");
        }
    }
    let journal = sys.journal();
    println!(
        "journal: {} events (virtual-time stamps); last entries:",
        journal.len()
    );
    for ev in journal.events().iter().rev().take(3).rev() {
        println!("  {}", ev.to_json_line());
    }

    let spk = sys.speaker(0).expect("speaker 0");
    let samples = spk.tap().borrow().samples();
    let samples = samples.expect("SpeakerSpec::capture_output()");
    es_audio::wav::write_wav("quickstart.wav", 44_100, 2, &samples).expect("write quickstart.wav");
    println!(
        "\nwrote quickstart.wav ({:.1}s of what the lobby speaker played)",
        samples.len() as f64 / (44_100.0 * 2.0)
    );
}
