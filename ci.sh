#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 verification.
#
# Everything runs offline — dependencies are vendored under vendor/ and
# resolved by path, so no step touches a registry or the network.
#
# Usage: ./ci.sh [--quick]
#   --quick   skip the release build (lints + tests only)

set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

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

if [ "$QUICK" -eq 0 ]; then
    step "cargo build --release (tier-1)"
    cargo build --release --offline
fi

step "cargo build --examples"
cargo build --examples --offline

step "cargo test (tier-1)"
cargo test -q --offline

step "conservation audit (machine, shard and fleet ledgers reconcile on every run)"
cargo test -q --offline --test audit

step "telemetry non-perturbation (obs suite: fact tables identical on/off)"
cargo test -q --offline --test obs

step "driver stack (FastIO fallback equivalence + conservation under veto)"
cargo test -q --offline --test filter_stack

step "sharded scale-up (a shard's budget is its machines' summed peaks + shard/worker bit-identity, summaries compared whole)"
cargo test -q --offline --release --test shard_scale

step "trace warehouse (golden segment, import, export parity; one segment writer per machine task, a full disk is a typed fault; parallel re-ingest: typed faults in file-name order, duplicate machines, bit identity)"
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

step "what-if replay (parallel per-machine extraction: bit-identity across workers/sources, first bad machine's typed error, variant audit, golden deltas)"
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

step "cargo test --workspace"
cargo test -q --workspace --offline

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
