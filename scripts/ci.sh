#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting. Run locally before
# pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --release

echo "=== cargo test -q (tier-1: root package) ==="
# Debug builds arm the vendored locks' rank check on every acquisition.
cargo test -q

echo "=== cargo test --workspace -q ==="
# Debug builds arm the vendored locks' rank check on every acquisition.
cargo test --workspace -q

echo "=== cargo test --workspace --features trace -q (obs rings compiled in) ==="
# The trace feature swaps the no-op macros for real per-thread event
# rings; the whole suite must stay green with them armed. The golden
# traced smoke is cp_units::traced_cp_lands_in_the_rings: a real CP's
# phase spans, GET/PUT/refill events, and the Chrome exporter's one X
# event per CP phase. Debug builds arm the vendored locks' rank check on
# every acquisition.
cargo test --workspace --features trace -q

echo "=== e2e: the benchmark's own tests ==="
# e2e/ is its own workspace, so the workspace runs above do not reach
# it. Its smoke test is the only check that BENCHMARK.json and the
# harness agree (workloads, metric names, units, directions), and it
# drives every workload at 1/16 geometry through the correctness gate.
cargo test --release --offline --manifest-path e2e/Cargo.toml

echo "=== bucket-cache stress under debug assertions ==="
# Arm the debug_assert!s of the allocator, buckets and tetris while the
# stress suite hammers GETs, batched GETs, requeues and concurrent
# collective inserts, and the property test checks the queue order.
RUSTFLAGS="-C debug-assertions=on" \
  cargo test --release -q -p alligator --test cache_stress

echo "=== ward: concurrency analyzer (pairing, orderings) ==="
# Detection power first (every check must catch its seeded fixture),
# then the real scan: Release/Acquire pairs-with labels, ordering
# justifications. --check also emits the machine-readable report,
# which must validate against the wafl.ward.v1 schema. See DESIGN.md
# §15 for the annotation contract.
# `unsafe` confinement and SAFETY comments are rustc's and clippy's
# (`[workspace.lints]`), checked by the build and clippy steps.
cargo run --release -q -p ward -- --self-test
cargo run --release -q -p ward -- --check
cargo run --release -q -p ward -- --validate results/ward.json

echo "=== cargo clippy --all-targets -- -D warnings ==="
# With [workspace.lints], an unsafe block or impl without a `// SAFETY:`
# comment fails here (clippy::undocumented_unsafe_blocks).
cargo clippy --all-targets -- -D warnings

echo "=== cargo clippy (workspace minus vendor) ==="
cargo clippy --workspace --all-targets \
  --exclude crossbeam --exclude parking_lot \
  --exclude proptest --exclude rand --exclude rand_chacha \
  --exclude serde --exclude serde_derive --exclude serde_json \
  -- -D warnings

echo "=== cargo fmt --check ==="
cargo fmt --check

# Scratch dir for the O_DIRECT probe and the file-backend re-run.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "=== file-backend tests on a real tmpdir (O_DIRECT probe) ==="
# The aio file backend prefers O_DIRECT and quietly falls back to
# buffered I/O where the filesystem refuses it (tmpfs, some overlays).
# Probe the scratch dir first: with O_DIRECT available, re-run the
# file-backend suites pointed there so CI exercises the aligned-buffer
# path; otherwise skip with a notice (the buffered fallback is already
# covered by the workspace suite above).
if dd if=/dev/zero of="$SMOKE_DIR/.direct-probe" bs=4096 count=1 \
     oflag=direct conv=fsync status=none 2>/dev/null; then
  rm -f "$SMOKE_DIR/.direct-probe"
  TMPDIR="$SMOKE_DIR" cargo test --release -q -p wafl-blockdev --lib file_backend
  TMPDIR="$SMOKE_DIR" cargo test --release -q -p wafl \
    --test crash_recovery_prop file_backend_torn_stripe_remount
else
  echo "NOTICE: O_DIRECT unavailable under $SMOKE_DIR; skipping the \
file-backend re-run (buffered-fallback coverage still ran in the \
workspace suite)"
fi

echo "CI green."
