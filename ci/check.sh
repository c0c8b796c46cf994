#!/usr/bin/env bash
# Tier-1 verification, fully offline. Every dependency is a workspace
# path dependency (see DESIGN.md "Vendored test harness"), so
# this script must pass on a machine with no crates.io access at all.
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

echo "== backend determinism (host output thread-count invariant) ==" >&2
# The host backend must produce byte-identical Matrix Market output
# regardless of worker thread count (DESIGN.md §12).
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset Economics --tiny --backend host:1 --output "$smoke/host1.mtx" \
  >/dev/null 2>&1
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset Economics --tiny --backend host:3 --output "$smoke/host3.mtx" \
  >/dev/null 2>&1
cmp "$smoke/host1.mtx" "$smoke/host3.mtx"

echo "== backend equivalence (sim vs host on three matrix classes) ==" >&2
# A Table-3-class graph, plus Protein (compression ratio ~25) and
# Economics (~1.1) in f64. The host's ESC path for B wider than
# DENSE_MAX_COLS, which no --tiny dataset reaches, is held to the same
# bits by tests/backends.rs.
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset wb-edu --tiny --backend sim --output "$smoke/sim.mtx" \
  >/dev/null 2>&1
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset wb-edu --tiny --backend host:2 --output "$smoke/host.mtx" \
  >/dev/null 2>&1
cmp "$smoke/sim.mtx" "$smoke/host.mtx"
for ds in Protein Economics; do
  for backend in sim host:2; do
    cargo run -q --release --offline -p bench --bin spgemm -- \
      --dataset "$ds" --tiny --precision f64 --backend "$backend" \
      --output "$smoke/equiv-$ds-${backend/:/_}.mtx" >/dev/null 2>&1
  done
  cmp "$smoke/equiv-$ds-sim.mtx" "$smoke/equiv-$ds-host_2.mtx"
done

echo "== batched fallback (0.25x capacity, byte-identical output) ==" >&2
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset cit-Patents --tiny --precision f64 --output "$smoke/full.mtx" \
  >/dev/null 2>&1
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset cit-Patents --tiny --precision f64 --max-device-mem 0.25x \
  --output "$smoke/batched.mtx" > "$smoke/batched.out" 2>/dev/null
cmp "$smoke/full.mtx" "$smoke/batched.mtx"
grep -q "^leak check  : ok (0 B live)$" "$smoke/batched.out"

echo "== fault injection (injected OOM recovers, device fully drained) ==" >&2
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset QCD --tiny --precision f64 --faults "seed=7;malloc-oom=3" \
  --output "$smoke/faulted.mtx" > "$smoke/faulted.out" 2>/dev/null
grep -q "(1 injected)" "$smoke/faulted.out"
grep -q "^leak check  : ok (0 B live)$" "$smoke/faulted.out"
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset QCD --tiny --precision f64 --output "$smoke/clean.mtx" \
  >/dev/null 2>&1
cmp "$smoke/clean.mtx" "$smoke/faulted.mtx"

echo "== serve mode (engine outputs worker-count invariant + verified) ==" >&2
# The job engine must produce byte-identical outputs at any worker
# count, with every job verified bitwise against standalone multiply
# in-process (--verify is the driver default). Two seeds x {1,4} workers.
for seed in 11 29; do
  for workers in 1 4; do
    cargo run -q --release --offline -p bench --bin spgemm -- \
      serve --jobs 12 --seed "$seed" --workers "$workers" --dim 160 \
      --out-dir "$smoke/serve-$seed-$workers" > "$smoke/serve-$seed-$workers.out"
    grep -q "^verify      : ok" "$smoke/serve-$seed-$workers.out"
    grep -q "^leak check  : ok (budget drained)$" "$smoke/serve-$seed-$workers.out"
  done
  for f in "$smoke/serve-$seed-1"/*.mtx; do
    cmp "$f" "$smoke/serve-$seed-4/$(basename "$f")"
  done
done

echo "== serve mode, host cache hits (host:1 outputs equal the sim's) ==" >&2
# A host plan-cache hit fills values into the column structure its
# symbolic phase recorded (DESIGN.md §14). Every job's output must still
# equal the sim backend's byte for byte, and the mix must hit the cache.
for seed in 11 29; do
  cargo run -q --release --offline -p bench --bin spgemm -- \
    serve --jobs 24 --seed "$seed" --workers 1 --dim 160 --backend sim \
    --out-dir "$smoke/hits-sim-$seed" > "$smoke/hits-sim-$seed.out"
  for workers in 1 4; do
    out="$smoke/hits-host-$seed-$workers"
    cargo run -q --release --offline -p bench --bin spgemm -- \
      serve --jobs 24 --seed "$seed" --workers "$workers" --dim 160 \
      --backend host:1 --out-dir "$out" > "$out.out"
    grep -q "^verify      : ok" "$out.out"
    grep -Eq "^plan cache  : [1-9][0-9]* hits" "$out.out"
    # Plan-cache bytes are backend-independent: every entry holds C's
    # structure whichever backend built it. One worker serves the jobs
    # in order, so its whole line equals the sim run's; four workers can
    # race misses on one pattern, so only their cached entries and bytes
    # are compared.
    if [ "$workers" = 1 ]; then
      cmp <(grep "^plan cache  :" "$smoke/hits-sim-$seed.out") <(grep "^plan cache  :" "$out.out")
    fi
    cmp <(grep -o "([0-9]* cached, [0-9]* B, cap [0-9]*)" "$smoke/hits-sim-$seed.out") \
      <(grep -o "([0-9]* cached, [0-9]* B, cap [0-9]*)" "$out.out")
    for f in "$smoke/hits-sim-$seed"/*.mtx; do
      cmp "$f" "$out/$(basename "$f")"
    done
  done
done

echo "== serve mode (fault-injected job mix, shared budget drains) ==" >&2
# Injected device OOM must route jobs through the batched fallback and
# still release every budget reservation (the no-leak contract at the
# admission level, DESIGN.md §14).
cargo run -q --release --offline -p bench --bin spgemm -- \
  serve --jobs 15 --seed 7 --workers 3 --dim 160 --faults \
  > "$smoke/serve-faults.out"
grep -q "^verify      : ok" "$smoke/serve-faults.out"
# At least one injected fault must have taken the fallback route.
! grep -q " 0 oom-fallback" "$smoke/serve-faults.out"
grep -q "^leak check  : ok (budget drained)$" "$smoke/serve-faults.out"

echo "== job tracing (flight dumps byte-deterministic, retry visible) ==" >&2
# DESIGN.md §15: traces use logical + simulated clocks only, so two
# identical seeded fault-injected runs must dump byte-identical JSONL,
# and the faulted job's tree must show the budget-halving batch retry.
for i in 1 2; do
  cargo run -q --release --offline -p bench --bin spgemm -- \
    serve --jobs 10 --seed 7 --workers 1 --dim 128 --faults --no-verify \
    --trace-jobs "$smoke/flight$i.jsonl" > /dev/null
done
cmp "$smoke/flight1.jsonl" "$smoke/flight2.jsonl"
cmp "$smoke/flight1.jsonl.chrome.json" "$smoke/flight2.jsonl.chrome.json"
grep -q '"kind":"batch_retry"' "$smoke/flight1.jsonl"
grep -q '"status":"complete"' "$smoke/flight1.jsonl"

echo "== host job tracing (host telemetry hand-off byte-deterministic) ==" >&2
# The same gate on the host backend, whose executor carries the job's
# telemetry session on both routes: under a 64 KiB budget the mix runs
# 3 jobs direct and 7 batched.
for i in 1 2; do
  cargo run -q --release --offline -p bench --bin spgemm -- \
    serve --jobs 10 --seed 7 --workers 1 --dim 128 --backend host:2 \
    --budget 64K --no-verify --trace-jobs "$smoke/host-flight$i.jsonl" > /dev/null
done
cmp "$smoke/host-flight1.jsonl" "$smoke/host-flight2.jsonl"
cmp "$smoke/host-flight1.jsonl.chrome.json" "$smoke/host-flight2.jsonl.chrome.json"
grep -q '"kind":"stitch"' "$smoke/host-flight1.jsonl"
grep -q '"outcome":"miss"' "$smoke/host-flight1.jsonl"

echo "== chaos soak (hostile load drains clean at any worker count) ==" >&2
# DESIGN.md §17: a seeded hostile job mix — recoverable OOMs, transient
# and persistent kernel faults, expired deadlines, self-cancelling jobs,
# queue-overflow shedding — must conserve every outcome, drain the
# shared budget, and verify each survivor bitwise against standalone
# multiply. Stdout is byte-identical across repeated runs, and across
# worker counts once the "N workers" header line is stripped.
for seed in 5 23; do
  for workers in 1 4; do
    cargo run -q --release --offline -p bench --bin spgemm -- \
      chaos --seed "$seed" --jobs 1000 --workers "$workers" --dim 64 \
      --queue-depth 32 --shed-jobs 8 --retry-budget 2 \
      > "$smoke/chaos-$seed-$workers.out"
    grep -q "^conservation: ok$" "$smoke/chaos-$seed-$workers.out"
    grep -q "^leak check  : ok (budget drained)$" "$smoke/chaos-$seed-$workers.out"
    grep -q "^invariants  : ok (0 violations)$" "$smoke/chaos-$seed-$workers.out"
  done
  cargo run -q --release --offline -p bench --bin spgemm -- \
    chaos --seed "$seed" --jobs 1000 --workers 4 --dim 64 \
    --queue-depth 32 --shed-jobs 8 --retry-budget 2 \
    > "$smoke/chaos-$seed-rerun.out"
  cmp "$smoke/chaos-$seed-4.out" "$smoke/chaos-$seed-rerun.out"
  cmp <(tail -n +2 "$smoke/chaos-$seed-1.out") \
      <(tail -n +2 "$smoke/chaos-$seed-4.out")
done

echo "== chaos on the host backend (no device, host absorbs everything) ==" >&2
# The host backend has no device: the soak attaches no device faults
# (0 failed), the host's zero simulated time satisfies even
# already-expired deadlines (0 deadline-exceeded), and each product
# still verifies bitwise against the standalone sim-backend multiply.
# Stdout past the header is the same at 1 and 3 workers.
for workers in 1 3; do
  cargo run -q --release --offline -p bench --bin spgemm -- \
    chaos --seed 5 --jobs 60 --workers "$workers" --dim 96 --backend host:2 \
    > "$smoke/chaos-host-$workers.out"
  grep -q "^backend     : host:2$" "$smoke/chaos-host-$workers.out"
  grep -q ", 0 failed, " "$smoke/chaos-host-$workers.out"
  grep -q ", 0 deadline-exceeded$" "$smoke/chaos-host-$workers.out"
  grep -q "^invariants  : ok (0 violations)$" "$smoke/chaos-host-$workers.out"
done
cmp <(tail -n +2 "$smoke/chaos-host-1.out") \
    <(tail -n +2 "$smoke/chaos-host-3.out")

echo "== chaos panic canary (worker panic contained, pool survives) ==" >&2
# A panic injected into one job must be caught at the worker boundary:
# the job fails, its reservation is released, the pool keeps draining,
# and every invariant still holds. (The flight-recorder dump for the
# panic is asserted in tests/engine.rs.)
cargo run -q --release --offline -p bench --bin spgemm -- \
  chaos --seed 7 --jobs 40 --workers 4 --dim 96 --panic-at 5 \
  > "$smoke/chaos-panic.out" 2>/dev/null
grep -q "^hostility   : 1 panics contained, " "$smoke/chaos-panic.out"
grep -q "^leak check  : ok (budget drained)$" "$smoke/chaos-panic.out"
grep -q "^invariants  : ok (0 violations)$" "$smoke/chaos-panic.out"

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

echo "== estimator invariant (exact vs sampled bitwise, both backends) ==" >&2
# DESIGN.md §16: the estimator may only change planning cost and table
# sizes — never a byte of the product. Two datasets x both backends.
for ds in QCD Economics; do
  for backend in sim host:2; do
    tag="${backend/:/_}"
    cargo run -q --release --offline -p bench --bin spgemm -- \
      --dataset "$ds" --tiny --backend "$backend" --estimator exact \
      --output "$smoke/est-$ds-$tag-exact.mtx" >/dev/null 2>&1
    cargo run -q --release --offline -p bench --bin spgemm -- \
      --dataset "$ds" --tiny --backend "$backend" --estimator sampled:64 \
      --output "$smoke/est-$ds-$tag-sampled.mtx" >/dev/null 2>&1
    cmp "$smoke/est-$ds-$tag-exact.mtx" "$smoke/est-$ds-$tag-sampled.mtx"
  done
done

echo "== estimator replan path (forced under-estimate, visible in trace) ==" >&2
# sampled:1 on a skewed matrix must under-size some tables; the replan
# funnel corrects them (replan events in the trace) and the output must
# still match the exact-estimator run byte for byte.
cargo run -q --release --offline -p bench --bin spgemm -- \
  trace --dataset Circuit --tiny --estimator sampled:1 \
  --jsonl "$smoke/replan.jsonl" > "$smoke/replan.out" 2>/dev/null
grep -q '"kind":"replan"' "$smoke/replan.jsonl"
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset Circuit --tiny --estimator sampled:1 \
  --output "$smoke/circuit-sampled.mtx" >/dev/null 2>&1
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset Circuit --tiny --estimator exact \
  --output "$smoke/circuit-exact.mtx" >/dev/null 2>&1
cmp "$smoke/circuit-exact.mtx" "$smoke/circuit-sampled.mtx"
# The same forced under-estimate on the host backend, whose walk finishes
# every under-sized row and counts it as a replan (DESIGN.md §12).
cargo run -q --release --offline -p bench --bin spgemm -- \
  --dataset Circuit --tiny --backend host:2 --estimator sampled:1 \
  --output "$smoke/circuit-host-sampled.mtx" > "$smoke/circuit-host.out" 2>/dev/null
grep -Eq "\([1-9][0-9]* replanned rows\)" "$smoke/circuit-host.out"
cmp "$smoke/circuit-exact.mtx" "$smoke/circuit-host-sampled.mtx"

echo "== repro regenerates the committed data (table1, fig5) ==" >&2
# repro is the one writer of every figure CSV; two of them are rebuilt
# from source and must equal the committed files byte for byte.
cargo run -q --release --offline -p bench --bin repro -- table1 fig5 > /dev/null
git diff --exit-code -- results/table1.csv results/fig5.csv

echo "== sanitized chaos soak (clean, byte-identical to unsanitized) ==" >&2
# DESIGN.md §18: the device-memory sanitizer shadows every sim-backend
# allocation during the hostile soak. The core pipeline must produce
# zero reports at every seed and worker count, and because sanitizer
# paths never advance simulated time, the sanitized stdout minus its
# sanitizer line must be byte-identical to the unsanitized run. The
# JSONL activity dump is gated at --workers 1, where the engine is
# fully sequential and the dump is deterministic to the byte (at
# higher worker counts, concurrent same-fingerprint jobs racing the
# plan cache can legitimately plan cold twice, varying the shadowed
# work — only the zero-report invariant holds there).
for seed in 5 23; do
  for workers in 1 4; do
    cargo run -q --release --offline -p bench --bin spgemm -- \
      chaos --seed "$seed" --jobs 200 --workers "$workers" --dim 64 \
      --queue-depth 32 --shed-jobs 4 --retry-budget 2 --sanitize \
      > "$smoke/chaos-san-$seed-$workers.out"
    grep -q "^sanitizer   : ok (0 reports)$" "$smoke/chaos-san-$seed-$workers.out"
    grep -q "^invariants  : ok (0 violations)$" "$smoke/chaos-san-$seed-$workers.out"
    cargo run -q --release --offline -p bench --bin spgemm -- \
      chaos --seed "$seed" --jobs 200 --workers "$workers" --dim 64 \
      --queue-depth 32 --shed-jobs 4 --retry-budget 2 \
      > "$smoke/chaos-plain-$seed-$workers.out"
    cmp <(grep -v "^sanitizer   : " "$smoke/chaos-san-$seed-$workers.out") \
        "$smoke/chaos-plain-$seed-$workers.out"
  done
  # Sanitized stdout is worker-count invariant modulo the header line,
  # exactly like the unsanitized soak gate above.
  cmp <(tail -n +2 "$smoke/chaos-san-$seed-1.out") \
      <(tail -n +2 "$smoke/chaos-san-$seed-4.out")
  # Same-flags rerun at one worker: the JSONL dump must be
  # byte-identical across two runs.
  for i in 1 2; do
    cargo run -q --release --offline -p bench --bin spgemm -- \
      chaos --seed "$seed" --jobs 200 --workers 1 --dim 64 \
      --queue-depth 32 --shed-jobs 4 --retry-budget 2 \
      --sanitize --san-jsonl "$smoke/san-$seed-run$i.jsonl" > /dev/null
  done
  cmp "$smoke/san-$seed-run1.jsonl" "$smoke/san-$seed-run2.jsonl"
done

echo "== sanitizer canary (injected corruption must fail the soak) ==" >&2
# Trust-but-verify for the gate itself: --san-canary injects the named
# corruption into the device after the real workload, and the soak
# must exit non-zero with the corruption classified by kind.
for canary in leak uaf; do
  if cargo run -q --release --offline -p bench --bin spgemm -- \
    chaos --seed 5 --jobs 20 --workers 2 --dim 64 --sanitize \
    --san-canary "$canary" > "$smoke/chaos-canary-$canary.out"; then
    echo "sanitizer gate failed to trip on injected $canary" >&2
    exit 1
  fi
  grep -q "^sanitizer   : FAILED" "$smoke/chaos-canary-$canary.out"
done

echo "ci/check.sh: all checks passed" >&2
