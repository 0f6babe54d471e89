#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 verification.
#
# Everything runs offline — dependencies are vendored under vendor/ and
# resolved by path, so no step touches a registry or the network.
#
# Usage: ./ci.sh

set -euo pipefail
cd "$(dirname "$0")"

if [ "$#" -gt 0 ]; then
    echo "unknown argument: $1" >&2
    exit 2
fi

step() {
    echo
    echo "==> $*"
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The generational arena is the dispatch hot path's foundation; lint it
# explicitly so a slab regression can't hide behind an allow() elsewhere.
step "cargo clippy (nt-io dispatch arena, warnings are errors)"
cargo clippy -p nt-io --offline -- -D warnings

step "cargo build --release (tier-1)"
cargo build --release --offline

step "cargo build --examples"
cargo build --examples --offline

step "cargo test (tier-1)"
cargo test -q --offline

step "golden claims (streaming summary, §5 content report and the full batch report, byte for byte)"
cargo test -q --offline --test golden_claims

step "conservation audit (machine, shard and fleet ledgers reconcile on every run)"
cargo test -q --offline --test audit

step "telemetry non-perturbation (obs suite: fact tables identical on/off)"
cargo test -q --offline --test obs

step "driver stack (FastIO fallback equivalence + conservation under veto)"
cargo test -q --offline --test filter_stack

step "FSD records (every emit site's record pinned field by field, with and without the FastIO veto)"
cargo test -q --offline --test fsd_records

step "directory enumeration (a full enumeration allocates nothing; the count is read live)"
cargo test -q --offline --test dir_enumeration

step "streaming sketches (dense buckets print and answer exactly as the BTreeMap model; merges order-free)"
cargo test -q --offline -p nt-analysis sketch

step "sharded scale-up (a shard's head-count is the sum of its machines' collector-handle totals, its budget their summed peaks; shard/worker bit-identity, summaries compared whole)"
cargo test -q --offline --release --test shard_scale

step "trace warehouse (golden segment, import, export parity; one segment writer per machine task, a full disk is a typed fault; one per-segment reader shared by re-ingest and what-if replay: both doors give the same typed fault, first in file-name order, duplicate machines refused, bit identity)"
cargo test -q --offline --test warehouse
cargo test -q --offline --release --test determinism warehouse_reimport

step "warehouse round trip determinism (parallel re-ingest: two runs, identical stdout)"
roundtrip_a=$(mktemp)
roundtrip_b=$(mktemp)
cargo run --release --offline -q --example warehouse_roundtrip >"$roundtrip_a" 2>/dev/null
cargo run --release --offline -q --example warehouse_roundtrip >"$roundtrip_b" 2>/dev/null
diff "$roundtrip_a" "$roundtrip_b"
rm -f "$roundtrip_a" "$roundtrip_b"

step "causal shipment tracing (faulted sharded smoke: Chrome trace validates, dump reconciles with LossLedger)"
cargo test -q --offline --test shipment_trace

step "what-if replay (stored traces read through the re-ingest's per-segment reader: bit-identity across workers/sources, the first bad file's typed error from both doors, variant audit, golden deltas)"
cargo test -q --offline --test whatif

step "warehouse tour determinism (parallel extraction from both sources: two runs, identical stdout)"
tour_a=$(mktemp)
tour_b=$(mktemp)
cargo run --release --offline -q --example warehouse_tour >"$tour_a" 2>/dev/null
cargo run --release --offline -q --example warehouse_tour >"$tour_b" 2>/dev/null
diff "$tour_a" "$tour_b"
rm -f "$tour_a" "$tour_b"

step "cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

# The root package's tests ran in the tier-1 step above; this step adds
# every other workspace member's.
step "cargo test --workspace (every member but the root package)"
cargo test -q --workspace --exclude nt-repro --offline

# The benchmark package sits outside the workspace (own [workspace] and
# lock), so no step above builds it against a changed study API.
step "benchmark package (adapter builds against the crates; quick-suite contract)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# A dependency dropped from a workspace crate leaves stale entries in the
# benchmark's frozen lock file: `--locked` does not refuse them, and a
# plain build prunes them silently. Fail instead.
step "benchmark lock file unchanged"
git diff --exit-code -- benchmark/Cargo.lock

step "bench regression gate (every *_min_ns in BENCH_streaming.json + 3 ratio gates)"
NT_BENCH_ITERS=1 NT_BENCH_GATE=1 cargo bench -q --offline -p nt-bench --bench streaming

echo
echo "CI green."
