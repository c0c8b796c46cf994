#!/usr/bin/env bash
# Tier-1 verification, fully offline. Every dependency is a workspace
# path dependency (see DESIGN.md "Vendored test harness"), so
# this script must pass on a machine with no crates.io access at all.
#
# The product contract (bitwise equality across backend, thread count,
# estimator, batching, cache state, faults and chaos) is asserted by the
# tier-1 tests. Past them, this script holds only what needs a built
# binary, a release build or a separate package: DESIGN.md "Where each
# gate lives" maps every property to its home.
#
# The exhaustive per-dataset sweeps are #[ignore]d to keep this fast;
# run them with:
#   cargo test --offline --test cross_algorithm -- --ignored
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt ==" >&2
cargo fmt --check

echo "== clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== build (release, offline) ==" >&2
cargo build --release --offline

echo "== tier-1 tests (offline; default members cover every crate) ==" >&2
cargo test -q --offline

echo "== engine tests in release (hostile structures need debug_assertions off) ==" >&2
# `Csr::from_parts_unchecked` validates the whole structure in debug
# builds, so only a release build can plant a flawed matrix and run the
# hostile-structure arm of the engine's trust-boundary property.
cargo test -q --offline --release -p engine

echo "== repository benchmark (its tests, then a smoke run of each workload) ==" >&2
# benchmark/ is a package of its own on the library's public API, so a
# deleted item it calls fails here instead of in the next benchmark
# run. Its build directory and outputs are ignored: the tree stays clean.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in paper-sim host-square serve-reuse serve-pressure; do
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --smoke --trace 0 > /dev/null
done

echo "== trace smoke (telemetry exports valid + deterministic) ==" >&2
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
for i in 1 2; do
  cargo run -q --release --offline -p bench --bin spgemm -- \
    trace --dataset QCD --tiny --check \
    --jsonl "$smoke/run$i.jsonl" --chrome-trace "$smoke/run$i.json" \
    > "$smoke/stdout$i" 2>/dev/null
done
grep -q "^check jsonl: ok$" "$smoke/stdout1"
grep -q "^check chrome-trace: ok$" "$smoke/stdout1"
cmp "$smoke/run1.jsonl" "$smoke/run2.jsonl"
cmp "$smoke/run1.json" "$smoke/run2.json"

echo "== perf observatory (baseline holds, slowdown canary trips) ==" >&2
# The committed baseline must pass against a fresh sim-backend run, and
# a check against a copy of it with every median halved (so the fresh
# run reads as a 2x slowdown) must fail exit 1 — proving the regression
# gate actually rejects.
cargo run -q --release --offline -p bench --bin spgemm -- \
  bench --check-regression > "$smoke/bench.out"
grep -q "^regression  : none" "$smoke/bench.out"
awk '{
  if (match($0, /"median_s":[-+.0-9eE]+/)) {
    v = substr($0, RSTART + 11, RLENGTH - 11)
    printf "%s\"median_s\":%.17g%s\n", substr($0, 1, RSTART - 1), v / 2, substr($0, RSTART + RLENGTH)
  } else print
}' results/baseline.json > "$smoke/baseline-halved.json"
if cargo run -q --release --offline -p bench --bin spgemm -- \
  bench --check-regression --baseline "$smoke/baseline-halved.json" \
  > "$smoke/bench-slow.out"; then
  echo "regression gate failed to trip on a 2x slowdown" >&2
  exit 1
fi
grep -q "REGRESSED" "$smoke/bench-slow.out"

echo "== repro regenerates the committed data (table1, fig5) ==" >&2
# repro is the one writer of every figure CSV; two of them are rebuilt
# from source and must equal the committed files byte for byte.
cargo run -q --release --offline -p bench --bin repro -- table1 fig5 > /dev/null
git diff --exit-code -- results/table1.csv results/fig5.csv

echo "ci/check.sh: all checks passed" >&2
