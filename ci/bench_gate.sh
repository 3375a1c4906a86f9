#!/usr/bin/env bash
# Bench gate: run every scenario in short mode, compare against the
# committed BENCH_*.json baselines at the repo root, and fail on
# regressions past tolerance.
#
# Tolerance policy (see DESIGN.md "Performance trajectory"): timing and
# throughput metrics get wide tolerances because baseline and fresh runs
# come from different machines — the gate only catches order-of-magnitude
# collapses there. Allocation metrics (allocs/op, B/op and their
# per-event forms) are machine-independent for identical builds and gate
# at the default 10%, which is where real regressions (a new allocation
# on the hot path) show up first.
#
# The script also fabricates a 2x ns_per_op regression from the fresh
# ingest run and asserts the gate trips on it: a gate that cannot fail
# is worse than none.
set -euo pipefail

TIMING_TOL="ns_per_op=3.0,ns/event=3.0,ns/report=3.0,events/s=0.75,Mbps=0.75,delivered/s=0.75"

out=out/bench
rm -rf "$out"
mkdir -p "$out"

go build -o "$out/gretel-bench" ./cmd/gretel-bench

"$out/gretel-bench" run -scenario all -short -iterations 3 -report json -out-dir "$out"

echo
echo "=== regression gate (vs committed baselines) ==="
"$out/gretel-bench" compare -baseline . -fresh "$out" -tol "$TIMING_TOL"

echo
echo "=== gate self-test: synthetic 2x regression must fail ==="
selftest=$(mktemp -d)
trap 'rm -rf "$selftest"' EXIT
go run ./ci/benchmut "$out/BENCH_ingest.json" 2.0 "$selftest/BENCH_ingest.json"
if "$out/gretel-bench" compare -scenario ingest -baseline "$out" -fresh "$selftest" -quiet; then
  echo "FAIL: compare accepted a synthetic 2x ns_per_op regression" >&2
  exit 1
fi
echo "gate self-test OK: synthetic regression rejected"
