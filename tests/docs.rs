//! Docs ⇔ code: every `--test paper <name>` the prose tells a reader
//! to run names a test in `tests/paper/`, every experiment section of
//! EXPERIMENTS.md has one and documents every module there, nothing
//! points at the removed bench harness, and no row of the
//! `no_doc_mentions!` table names what was deleted (the perf
//! baselines, the relay's re-stamping and its hold, the FEC ladder
//! and the recoverer's own loss tally,
//! the stream monitor, the mixer, the codecs and cost model that went,
//! a link's second and third loss rules)
//! or describes the live speaker as the collector it was, DESIGN.md §8
//! lists exactly the bans `clippy.toml`
//! and the lints `[workspace.lints]` configure, §10 exactly the counters
//! the healing plane exports, and §6 exactly the keys a speaker records.
//! The counts and scans of the verify notes read each source file up to
//! its first `#[cfg(test)]`, so no production item may come after one.

use std::collections::BTreeSet;
use std::path::Path;

use es_telemetry::Telemetry;

/// Every file that hands a reader a command to run.
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "scripts/check.sh",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The test fns of each module in `tests/paper/`, by file name.
fn paper_modules() -> Vec<(String, BTreeSet<String>)> {
    let mut files = Vec::new();
    rust_files(&root().join("tests/paper"), &mut files);
    files
        .iter()
        .filter(|path| !path.ends_with("main.rs"))
        .map(|path| {
            let file = path
                .file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned();
            (file, fns_in(path))
        })
        .collect()
}

/// The name of every `fn` in the source file at `path`.
fn fns_in(path: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).expect("readable source");
    text.lines()
        .filter_map(|line| {
            line.trim_start()
                .strip_prefix("fn ")
                .and_then(|r| r.split_once('('))
                .map(|(name, _)| name.to_string())
        })
        .collect()
}

/// The name of every `fn` in `tests/paper/`.
fn paper_fns() -> BTreeSet<String> {
    paper_modules()
        .into_iter()
        .flat_map(|(_, fns)| fns)
        .collect()
}

/// The test name after each `--test paper` in `text`, stripped of
/// punctuation; a command that runs the whole file names none.
fn paper_tests_mentioned(text: &str) -> BTreeSet<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    words
        .windows(3)
        .filter(|w| w[0].ends_with("--test") && w[1] == "paper" && !w[2].starts_with(['-', '#']))
        .map(|w| {
            w[2].trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
                .to_string()
        })
        .collect()
}

// The paper's figure benches are the tests in `tests/paper/`; a bench
// target is one of its tests, and its file is the module holding it.

#[test]
fn every_bench_the_docs_mention_is_a_target_with_a_file() {
    let fns = paper_fns();
    assert!(
        fns.len() > 20,
        "only {} fns found in tests/paper/",
        fns.len()
    );
    for doc in DOCS {
        for name in paper_tests_mentioned(&read(doc)) {
            assert!(
                fns.contains(&name),
                "{doc} says `--test paper {name}`, which is no fn in tests/paper/"
            );
        }
    }
    // Spelled in halves so a search of the repository for the removed
    // harness's names does not find this file.
    for doc in DOCS {
        let text = read(doc);
        for needle in [
            concat!("cargo ", "bench"),
            concat!("es-", "bench"),
            concat!("ES_", "BENCH_"),
        ] {
            assert!(!text.contains(needle), "{doc} still mentions {needle}");
        }
    }
}

#[test]
fn every_bench_target_is_documented_in_experiments_md() {
    let experiments = read("EXPERIMENTS.md");
    let (figures, _) = experiments
        .split_once("\n## Chaos conformance suite")
        .expect("EXPERIMENTS.md has a Chaos conformance suite section");
    for section in figures.split("\n## ").skip(1) {
        let title = section.lines().next().unwrap_or("");
        assert!(
            !paper_tests_mentioned(section).is_empty(),
            "EXPERIMENTS.md `## {title}` has no `--test paper` command"
        );
    }
    let documented = paper_tests_mentioned(&experiments);
    let modules = paper_modules();
    assert!(
        modules.len() > 10,
        "only {} modules in tests/paper/",
        modules.len()
    );
    for (file, fns) in modules {
        assert!(
            fns.iter().any(|name| documented.contains(name))
                || experiments.contains(&format!("tests/paper/{file}")),
            "EXPERIMENTS.md neither runs a test of tests/paper/{file} nor names the file"
        );
    }
}

/// The docs that describe the design and how to build and check it.
const DESIGN_DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// Fails naming the first of `docs` that still mentions one of
/// `needles`, and why none may.
fn assert_no_doc_mentions(docs: &[&str], needles: &[&str], why: &str) {
    for doc in docs {
        let text = read(doc);
        for needle in needles {
            assert!(
                !text.contains(needle),
                "{doc} still mentions {needle}: {why}"
            );
        }
    }
}

/// One test per row of `name: docs, [needles], why;`: none of the docs
/// may mention any of the needles, each a name or phrase of something
/// deleted. Most needles are spelled in halves, like the ones above,
/// so a search of the repository for a deleted name does not find
/// this file.
macro_rules! no_doc_mentions {
    ($($name:ident: $docs:expr, [$($needle:expr),+ $(,)?], $why:literal;)+) => {$(
        #[test]
        fn $name() {
            assert_no_doc_mentions(&$docs, &[$($needle),+], $why);
        }
    )+};
}

no_doc_mentions! {
    no_doc_points_at_the_deleted_perf_baselines: DOCS,
        ["BENCH_PR", concat!("ES_", "BENCH_BASELINE")],
        "the perf ledger replaced the per-PR baselines";
    no_doc_describes_the_deleted_relay_restamping: DOCS,
        ["DEADLINE_WINDOW", "parity_stale", "re-stamping contract"],
        "a segment relay forwards the datagram it heard; the deadline \
         ledger, stale-parity count and timeline rewrite are gone";
    no_doc_describes_the_relay_hold: DESIGN_DOCS,
        [
            concat!("relay_hold_", "preserves_downstream_sync"),
            concat!("`HOLD` of ", "2 ms"),
            concat!("one hold ", "behind"),
        ],
        "a segment relay forwards in the delivery that heard it, so a \
         hop costs one wire transit and no hold";
    no_doc_describes_the_deleted_segment_labels: DESIGN_DOCS,
        ["set_segment", "current_segment", "schedule_at_segment"],
        "events carry no segment label; a relay's fleet is named by \
         its downstream group alone";
    no_doc_describes_the_deleted_session_wrapper: DESIGN_DOCS,
        ["NegotiatedSpeaker", "set_session_handler", "Powered::"],
        "there is one speaker type: a negotiated speaker is an \
         `EthernetSpeaker` whose `SpeakerConfig::session` is set";
    no_doc_describes_the_live_speaker_as_a_collector: DOCS,
        [
            concat!("treats early ", "as on time"),
            concat!("never ", "conceals"),
            concat!("decodes ", "on arrival"),
        ],
        "the live speaker is an adapter of the one `SpeakerNode`: it \
         sleeps, plays or discards each block by §3.2 and conceals when \
         configured to";
    no_doc_describes_the_deleted_in_band_ovl_repeats: DOCS,
        [concat!("BitWriter::", "repeat"), concat!("skip_", "repeat")],
        "a twin channel is one bit of the OVL header's mask: no window \
         bits are written again for it, and none are skipped on decode";
    no_doc_describes_the_deleted_adpcm_codec: DOCS,
        [
            concat!("adpcm_", "decode_into"),
            concat!("adpcm_", "encode"),
            concat!("CodecId::", "Adpcm"),
            concat!("IMA ", "ADPCM"),
        ],
        "the codecs are the two forms §2.2 uses: PCM or µ-law \
         uncompressed, OVL lossy; wire codec id 2 is unknown";
    no_doc_describes_the_retired_cost_model: DOCS,
        [
            concat!("Cost", "Model"),
            concat!("with_cost", "_model"),
            concat!("fft_cost_model_is_far", "_cheaper_than_direct"),
            concat!("uses", "_fft"),
            concat!("0.21 ", "cycles"),
        ],
        "codec work is billed one way, as the transform that runs, at \
         one rate per work unit";
    no_doc_describes_the_deleted_fec_ladder: DOCS,
        [
            concat!("fec_", "ladder"),
            concat!("Raise", "Fec"),
            concat!("param_", "fec"),
            concat!("update_", "fec"),
            "fec level announced",
        ],
        "parity is a channel's static `fec_group`; nothing moves it, \
         and no session packet carries an FEC level";
    no_doc_describes_the_deleted_session_fields: DOCS,
        [
            concat!("Device", "Class"),
            concat!("device ", "class"),
            concat!("Announce", "Packet"),
            concat!("TYPE_", "ANNOUNCE"),
            concat!("encode_", "announce"),
            concat!("auto_", "rejoin"),
            concat!("Stream", "Ended"),
            concat!("volume and ", "metadata"),
        ],
        "the catalog sends OFFERs, a DISCOVER carries a name, caps \
         carry codecs and rates, no session packet carries metadata, \
         and a client always re-discovers";
    no_doc_describes_the_deleted_stream_monitor: DOCS,
        [
            concat!("Stream", "Monitor"),
            concat!("Quality", "Report"),
            concat!("quality_", "duplicates"),
            concat!("quality_", "loss_fraction"),
            concat!("es-proto::", "monitor"),
        ],
        "reception quality is counted by `SpeakerNode`; the separate \
         monitor, its report type and its two restating keys are gone";
    no_doc_describes_the_speaker_event_layer: DESIGN_DOCS,
        [
            concat!("Rx", "Event"),
            concat!("SpeakerRx::", "on_packet"),
            concat!("SpeakerRx::", "poll"),
            concat!("SpeakerRx::", "admit"),
            concat!("node.rx.", "stats"),
        ],
        "the speaker node steps the receive protocol itself; no event \
         enum sits between the two, and the node owns the counters";
    no_doc_describes_the_deleted_mixer_or_journal_sinks: DESIGN_DOCS,
        [
            concat!("Ag", "c"),
            concat!("Journal", "Sink"),
            concat!("add_", "sink"),
            concat!("Content", "Kind"),
            concat!("mixer, ", "AGC"),
        ],
        "es-audio keeps dB gain only, the journal keeps its ring and \
         nothing fans events out, and auto-volume has one preset per \
         content kind";
    no_doc_describes_the_deleted_link_loss_rules: DESIGN_DOCS,
        [
            concat!("partitioned_", "until"),
            concat!("degrade_", "loss"),
            concat!("per-datagram loss ", "probability"),
        ],
        "a link has one impairment, read through the one chain";
    no_doc_describes_the_deleted_volume_packet: DESIGN_DOCS,
        [
            concat!("update_", "params"),
            concat!("Set", "Volume"),
            concat!("`PARAM` applies", " the volume"),
        ],
        "the session plane carries no volume; a speaker's gain is its \
         `SpeakerSpec::volume` and auto-volume";
    no_doc_describes_the_deleted_interrupt_design: DESIGN_DOCS,
        [
            concat!("Master", "Driven"),
            concat!("master-", "driven"),
            concat!("reader-", "driven"),
            concat!("wants_block_", "ready_calls"),
        ],
        "the VAD fakes the missing interrupt one way, with its kernel \
         thread, and the high level announces every block after the \
         trigger to any low-level driver";
    no_doc_describes_fec_giving_up_on_groups: DOCS,
        [
            concat!("give", "_up"),
            concat!("unrecoverable", "()"),
            concat!("given up ", "on"),
            concat!("given up ", "at the end"),
        ],
        "the recoverer only rebuilds; the hole table counts a group in \
         `fec_unrecoverable` when one of its blocks comes due missing";
    no_doc_describes_packets_that_decode_alone: DOCS,
        [
            concat!("ease_into", "_frame"),
            concat!("independently ", "decodable"),
            concat!("decodable on ", "its own"),
        ],
        "OVL laps each packet onto the one before it: a packet's head \
         needs its predecessor's tail, and the padding that framed each \
         packet alone is gone";
}

/// What a caller of a shim kept only so the frozen `benches/ledger`
/// builds writes.
const LEDGER_SHIM_CALLS: [&str; 11] = [
    ".fleet_threads(",
    ".sim_shards(",
    "::with_shards(",
    ".merge_scans(",
    "parity_stale",
    ".segment(",
    "ShardRouter",
    ".cross_segment_posts(",
    "::cross_segment_posts(",
    ".fec_raises",
    ".fec_lowers",
];

/// How a shim's own definition opens (after indentation).
const LEDGER_SHIM_DEFINITIONS: [&str; 4] = [
    "pub struct ShardRouter",
    "impl ShardRouter",
    "pub use engine::ShardRouter",
    "pub parity_stale:",
];

/// Every `.rs` file under `dir`, build output aside.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_ledger_shims_have_no_callers_outside_the_ledger() {
    // The next `benchmark` PR deletes these together with the frozen
    // ledger's calls; a new caller here would block it.
    let this_file = root().join(file!());
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 100, "only {} .rs files found", files.len());
    let mut callers = Vec::new();
    for path in files.iter().filter(|p| **p != this_file) {
        let text = std::fs::read_to_string(path).expect("readable source");
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("").trim_start();
            if LEDGER_SHIM_DEFINITIONS.iter().any(|d| code.starts_with(d)) {
                continue;
            }
            if let Some(call) = LEDGER_SHIM_CALLS.iter().find(|c| code.contains(*c)) {
                let rel = path.strip_prefix(root()).unwrap_or(path);
                callers.push(format!("{}:{}: {call}", rel.display(), n + 1));
            }
        }
    }
    assert!(
        callers.is_empty(),
        "ledger-only shims called outside benches/ledger:\n{}",
        callers.join("\n")
    );
}

/// Every `path = "…"` entry of `clippy.toml`.
fn clippy_toml_paths() -> BTreeSet<String> {
    read("clippy.toml")
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split_once('"'))
        .map(|(path, _)| path.to_string())
        .collect()
}

/// Every lint the root `Cargo.toml` sets under `[workspace.lints.*]`.
fn workspace_lints() -> BTreeSet<String> {
    let manifest = read("Cargo.toml");
    let mut lints = BTreeSet::new();
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line.starts_with("[workspace.lints.");
        } else if let Some((name, _)) = line.split_once('=').filter(|_| in_lints) {
            lints.insert(name.trim().to_string());
        }
    }
    lints
}

#[test]
fn design_md_lists_exactly_the_bans_and_lints_configured() {
    // §8's table: | invariant | enforced by | what fails |. In the
    // middle column a backticked `a::b` outside the workspace's own
    // crates is a clippy.toml path, a bare backticked identifier a
    // `[workspace.lints]` entry, and anything with a `/` a file.
    let design = read("DESIGN.md");
    let section = design
        .split_once("\n## 8. ")
        .and_then(|(_, rest)| rest.split_once("\n## 9. "))
        .expect("DESIGN.md has a section 8 followed by a section 9")
        .0;
    let enforced_by: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| invariant"))
        .filter_map(|l| l.split('|').nth(2))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect();
    assert!(enforced_by.len() > 10, "DESIGN.md §8 has no table");
    let paths: BTreeSet<String> = enforced_by
        .iter()
        .filter(|w| w.contains("::") && !w.starts_with("es_"))
        .map(|w| w.to_string())
        .collect();
    let lints: BTreeSet<String> = enforced_by
        .iter()
        .filter(|w| w.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        .map(|w| w.to_string())
        .collect();
    assert_eq!(paths, clippy_toml_paths(), "DESIGN.md §8 vs clippy.toml");
    assert_eq!(
        lints,
        workspace_lints(),
        "DESIGN.md §8 vs [workspace.lints]"
    );
    for file in enforced_by.iter().filter(|w| w.contains('/')) {
        assert!(
            root().join(file).is_file(),
            "DESIGN.md §8 names {file}, which is no file"
        );
    }
    // The lexical analyzer, its call-graph passes and its cache are
    // gone; no doc may still send a reader to them. Spelled in halves,
    // like the needles above.
    for doc in DOCS {
        let text = read(doc);
        for needle in [
            "panic-path",
            "hot-path-transitive",
            "--cache",
            "analyze-cache",
            concat!("es-", "analyze"),
            concat!("es-", "allow"),
            concat!("es-", "hot-path"),
            concat!("analyze", ".json"),
        ] {
            assert!(!text.contains(needle), "{doc} still mentions {needle}");
        }
    }
}

#[test]
fn design_md_lists_exactly_the_counters_heal_stats_records() {
    // §10 "Journal contract": "… export under `heal/heal0/*`: `a`,
    // `b`, … `z`." — the backticked words up to the full stop.
    let design = read("DESIGN.md");
    let list = design
        .split_once("\n### Journal contract")
        .and_then(|(_, rest)| rest.split_once("`heal/heal0/*`:"))
        .and_then(|(_, rest)| rest.split_once('.'))
        .expect("DESIGN.md §10 Journal contract lists the `heal/heal0/*` counters")
        .0;
    let documented: BTreeSet<&str> = list.split('`').skip(1).step_by(2).collect();
    let mut reg = es_telemetry::Registry::new();
    es_heal::HealStats::default().record(&mut reg);
    let snap = reg.snapshot();
    assert!(snap.iter().all(|m| m.key.component == "heal"));
    let recorded: BTreeSet<&str> = snap.iter().map(|m| m.key.name.as_str()).collect();
    assert_eq!(documented, recorded, "DESIGN.md §10 vs HealStats::record");
}

#[test]
fn design_md_lists_exactly_the_keys_a_speaker_records() {
    // §6 "Reception quality": "… under `speaker/<name>/*`: `a`, `b`,
    // … `z`." — the backticked words up to the full stop.
    let design = read("DESIGN.md");
    let list = design
        .split_once("`speaker/<name>/*`:")
        .and_then(|(_, rest)| rest.split_once('.'))
        .expect("DESIGN.md §6 lists the `speaker/<name>/*` keys")
        .0;
    let documented: BTreeSet<&str> = list.split('`').skip(1).step_by(2).collect();
    // A speaker that has sent a NACK, lost a block of an FEC group and
    // faded a head, so the keys listed once non-zero are there too.
    let mut sim = es_sim::Sim::new(1);
    let lan = es_net::Lan::new(es_net::LanConfig::default());
    let group = es_net::McastGroup(1);
    let spk = es_speaker::EthernetSpeaker::start(
        &mut sim,
        &lan,
        es_speaker::SpeakerConfig::new("es0", group),
    );
    let mut reg = es_telemetry::Registry::new();
    spk.record_telemetry(&mut reg);
    es_speaker::SpeakerStats {
        nacks_sent: 1,
        fec_unrecoverable: 1,
        faded_heads: 1,
        ..Default::default()
    }
    .record(&mut reg);
    let snap = reg.snapshot();
    assert!(snap.iter().all(|m| m.key.component == "speaker"));
    let recorded: BTreeSet<&str> = snap.iter().map(|m| m.key.name.as_str()).collect();
    assert_eq!(
        documented, recorded,
        "DESIGN.md §6 vs what a speaker records"
    );
}

/// The lines of `text` that a scan reading only up to the first
/// `#[cfg(test)]` would miss although they are not test code: a
/// top-level item without `#[cfg(test)]` after one with it, or a
/// `#[cfg(test)]` inside an item.
fn production_after_cfg_test(text: &str) -> Vec<usize> {
    let (mut gated_seen, mut gated_next) = (false, false);
    let mut missed = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            if line.starts_with("#[cfg(test)]") {
                gated_next = true;
            } else {
                missed.push(n + 1);
            }
            continue;
        }
        let continues = line.is_empty()
            || line.starts_with(char::is_whitespace)
            || line.starts_with(['}', ')', ']', '#'])
            || line.starts_with("//")
            || line.starts_with("where");
        if continues {
            continue;
        }
        if gated_next {
            gated_seen = true;
        } else if gated_seen {
            missed.push(n + 1);
        }
        gated_next = false;
    }
    missed
}

#[test]
fn no_production_item_follows_a_cfg_test_item() {
    // The verify notes' code-line count and dead-item scans read each
    // `crates/*/src/*.rs` only up to its first `#[cfg(test)]`.
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let src = krate.expect("readable directory entry").path().join("src");
        for entry in std::fs::read_dir(&src).unwrap_or_else(|e| panic!("{}: {e}", src.display())) {
            let path = entry.expect("readable directory entry").path();
            if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() > 50, "only {} source files found", files.len());
    let mut missed = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let rel = path.strip_prefix(root()).unwrap_or(path);
        for n in production_after_cfg_test(&text) {
            missed.push(format!("{}:{n}", rel.display()));
        }
    }
    assert!(
        missed.is_empty(),
        "production code after a `#[cfg(test)]` item, unseen by the counts:\n{}",
        missed.join("\n")
    );
}
