#!/bin/sh
# Writes the determinism fingerprints of the source tree <tree> under
# <out>, one file per scenario, each suite in a process of its own:
#
#   chaos7/     the chaos suite at ES_CHAOS_SEED=7
#   heal61/ heal62/ heal63/
#               the healing tier at seeds 61, 62 and 63
#   session11/  the negotiated-session scenarios at seed 11
#   segments23/ the relayed topologies of tests/segments.rs (seed 23):
#               one relay, and a chain of three
#
# With [journal-dir], every healing run also writes each scenario's
# event journal there, so the last seed's (63) stays.
#
#   scripts/fingerprints.sh <tree> <out> [journal-dir]
#
# Two runs of one tree must come out `diff -r`-identical, which is how
# scripts/check.sh gates determinism. So must a change and its parent
# when the change is meant to move no behaviour: run the script on a
# `git archive` copy of the parent and on the change, then `diff -r`
# the two <out> directories.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <tree> <out> [journal-dir]" >&2
    exit 2
fi
# Absolute paths: the suites run from inside <tree>.
abs() { mkdir -p "$1" && (cd "$1" && pwd); }
out=$(abs "$2")
journal=${3:+$(abs "$3")}
cd "$1"

for d in chaos7 heal61 heal62 heal63 session11 segments23; do
    rm -rf "${out:?}/$d"
done
ES_CHAOS_SEED=7 ES_CHAOS_FP_DIR="$out/chaos7" cargo test -q --offline --test chaos
for seed in 61 62 63; do
    env ES_CHAOS_SEED=$seed ES_CHAOS_FP_DIR="$out/heal$seed" \
        ${journal:+"ES_CHAOS_JOURNAL_DIR=$journal"} \
        cargo test -q --offline --test healing
done
ES_CHAOS_SEED=11 ES_CHAOS_FP_DIR="$out/session11" cargo test -q --offline --test chaos session_
ES_CHAOS_FP_DIR="$out/segments23" cargo test -q --offline --test segments
