#!/bin/sh
# The full local gate: formatting, lints (warnings are errors), the
# tier-1 verify line (see ROADMAP.md), the other workspace members'
# tests, the codec's deep differential run, one perf step (the
# ledger's unit tests and --quick smoke), the
# cross-process determinism diffs and a healing seed sweep. Writes
# nothing tracked outside results/.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# Static determinism-and-invariant lint: nine lexical rules (wall-clock
# reads, unseeded RNG, hash-ordered iteration, malformed telemetry
# keys, unaudited unsafe, spec-builder naming, heal journal fields,
# allocation inside // es-hot-path regions, pragma hygiene) plus the
# one workspace pass (one kind per telemetry key) — see DESIGN.md §8.
# Runs before the test suite because it is cheap (tests/analyze.rs
# holds it to a 5 s budget; a run is well under one) and refuses bugs
# the chaos fingerprints would only catch after the fact. The JSON
# report — including every pragma-suppressed finding and its reason —
# and the telemetry key inventory are archived per run.
echo "== es-analyze (determinism & invariant lint)"
mkdir -p results
cargo run -q -p es-analyze -- --workspace --json \
    --telemetry-keys results/telemetry-keys.json > results/analyze.json

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Doc comments are API: a broken or private intra-doc link is an error.
echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The root package is the tier-1 line above; do not run chaos and
# healing a second time.
echo "== workspace tests (every member but the root package)"
cargo test --workspace --exclude ethernet-speaker -q

# The codec's deep differential run: every hostile OVL input decoded
# by the table-driven decoder and by the oracle decoder it replaced,
# every batch kernel against its scalar oracle, and the FFT, MDCT,
# framed analysis/synthesis and one-pass deinterleave against the
# multi-pass forms they replaced, bit for bit, at 2000 cases per
# property instead of 64 (≈ 10 s release).
echo "== codec differential oracles (PROPTEST_CASES=2000)"
PROPTEST_CASES=2000 cargo test -q --release -p es-codec --test hostile_bytes --test dsp_kernels_prop --test fft_mdct_prop

# The one perf step: the ledger (benches/ledger, the BENCHMARK.json
# harness) is the only wall-clock perf harness. Its own unit tests,
# then the --quick smoke — five workloads, two runs each, exit non-zero
# if a run fails its correctness gate or two runs of a workload
# disagree on any virtual-clock metric or layer count. It is a package
# of its own, so neither line above reaches it. The crates/bench
# targets reproduce the paper's figures and are not part of the gate
# beyond clippy and their unit tests.
echo "== perf ledger (unit tests + --quick smoke)"
cargo test -q --release --offline --manifest-path benches/ledger/Cargo.toml
cargo run -q --release --offline --manifest-path benches/ledger/Cargo.toml -- --quick

# Chaos determinism gate: the conformance suite already runs every
# scenario twice in-process; here the whole suite runs twice in
# separate processes with a pinned seed, and the telemetry fingerprints
# each run writes must be byte-identical (see EXPERIMENTS.md).
echo "== chaos determinism (ES_CHAOS_SEED pinned)"
rm -rf target/chaos-a target/chaos-b
ES_CHAOS_SEED=7 ES_CHAOS_FP_DIR=target/chaos-a cargo test -q --test chaos
ES_CHAOS_SEED=7 ES_CHAOS_FP_DIR=target/chaos-b cargo test -q --test chaos
diff -r target/chaos-a target/chaos-b || {
    echo "chaos suite is nondeterministic: fingerprints differ between identical runs" >&2
    exit 1
}

# Healing determinism gate: the self-healing tier (FEC ladder, NACK
# refill, producer failover, flap damping) runs twice per seed in
# separate processes over a 3-seed matrix; fingerprints must match
# byte for byte. One run also archives every scenario's event journal
# under results/healing-journal/ — the heal/ events in there are what
# the es-analyze heal-event-fields rule audits for action/target.
echo "== healing determinism (3-seed matrix, cross-process)"
rm -rf results/healing-journal
for seed in 61 62 63; do
    rm -rf target/heal-a target/heal-b
    ES_CHAOS_SEED=$seed ES_CHAOS_FP_DIR=target/heal-a \
        ES_CHAOS_JOURNAL_DIR=results/healing-journal \
        cargo test -q --test healing
    ES_CHAOS_SEED=$seed ES_CHAOS_FP_DIR=target/heal-b cargo test -q --test healing
    diff -r target/heal-a target/heal-b || {
        echo "healing plane is nondeterministic at seed $seed: fingerprints differ between identical runs" >&2
        exit 1
    }
done

# Healing seed sweep: the matrix above pins 61-63, and both misses of
# ROADMAP 5(e) sat at other seeds and were found only by sweeping by
# hand. The two detector scenarios whose invariants hinge on where a
# loss burst falls against the epoch grid run once per seed, 1-10.
echo "== healing seed sweep (detector scenarios, seeds 1-10)"
for seed in 1 2 3 4 5 6 7 8 9 10; do
    ES_CHAOS_SEED=$seed cargo test -q --test healing -- \
        flapping_receiver_damped sick_receiver_fec_upshift
done

# The repair fleets hold NACK repair to the deadline under bursty
# loss; like the detector scenarios, whether they pass depends on
# where the bursts fall, and each run is one seed (≈ 2 s for all five).
echo "== healing seed sweep (repair fleets, seeds 1-5)"
for seed in 1 2 3 4 5; do
    ES_CHAOS_SEED=$seed cargo test -q --test healing -- \
        static_fleet_repairs_over_the_wire negotiated_fleet_repairs_over_the_wire \
        repair_survives_failover
done

# Live-UDP smokes, skips surfaced: the session handshake and the live
# producer→speaker roundtrip over real loopback multicast. Sandboxes
# without it print a `SKIPPED:` marker per skipped test instead of
# passing silently; the count is part of the gate's output so a CI
# environment that never exercises the UDP path is visible. What
# cannot skip is the socket-free half of each: the broker's protocol
# (es-proto's `server` unit tests — session_udp only drives it over
# sockets) and the live producer's (one_send_path: rate limiter, FEC,
# auth under a fake clock), so both run here too.
echo "== live-udp smokes (skips surfaced)"
udp_out=$({
    cargo test -q --test session_udp -- --nocapture &&
        cargo test -q -p es-proto server -- --nocapture &&
        cargo test -q -p es-core live_ -- --nocapture &&
        cargo test -q -p es-core --test one_send_path -- --nocapture
} 2>&1) || {
    printf '%s\n' "$udp_out" >&2
    exit 1
}
printf '%s\n' "$udp_out"
udp_skips=$(printf '%s\n' "$udp_out" | grep -c '^SKIPPED:' || true)
echo "live-udp skipped tests: $udp_skips"

# Session-mode determinism gate: the negotiated-session scenarios
# (discover → setup → stream → flush → teardown, plus the mid-handshake
# partition) run twice in separate processes and their fingerprints
# must match byte for byte — the control plane handshake, timeout
# sweeps, and re-discovery backoff are all on the deterministic clock.
echo "== session determinism (negotiated scenarios, cross-process)"
rm -rf target/session-a target/session-b
ES_CHAOS_SEED=11 ES_CHAOS_FP_DIR=target/session-a cargo test -q --test chaos session_
ES_CHAOS_SEED=11 ES_CHAOS_FP_DIR=target/session-b cargo test -q --test chaos session_
diff -r target/session-a target/session-b || {
    echo "session control plane is nondeterministic: fingerprints differ between identical runs" >&2
    exit 1
}

echo "ok"
