#!/usr/bin/env bash
# Bench gate: run the gated benchmarks (ci/bench_run.sh), compare against
# the committed BENCH.txt at the repo root, and fail on regressions past
# tolerance, on a baseline benchmark the fresh run lacks, and on a gated
# metric a baseline benchmark carries that its fresh line lacks.
#
# Tolerance policy (see DESIGN.md "Performance trajectory"): timing and
# throughput metrics get wide tolerances because baseline and fresh runs
# come from different machines — the gate only catches order-of-magnitude
# collapses there. Allocation metrics (allocs/op, B/op and their
# per-event / per-report forms) are machine-independent for identical
# builds and gate at the default 10%, which is where real regressions (a
# new allocation on the hot path) show up first.
#
# The script also fabricates three known failures from the fresh run — a
# 2x ns/op, a removed benchmark line, a removed gated metric — and
# asserts the comparator exits 1 on each: a gate that cannot fail is
# worse than none.
set -euo pipefail

TIMING_TOL="ns/op=3.0,ns/event=3.0,ns/report=3.0,events/s=0.75,Mbps=0.75,delivered/s=0.75"

out=out/bench
rm -rf "$out"
mkdir -p "$out"

bash ci/bench_run.sh | tee "$out/BENCH.txt"
go build -o "$out/benchcmp" ./ci/benchcmp

echo
echo "=== regression gate (vs committed BENCH.txt) ==="
"$out/benchcmp" -tol "$TIMING_TOL" BENCH.txt "$out/BENCH.txt"

echo
echo "=== gate self-test: each fabricated failure must be rejected ==="
must_reject() { # name, awk program applied to the BenchmarkIngest line
  echo "-- $1"
  awk "$2" "$out/BENCH.txt" > "$out/selftest.txt"
  rc=0
  "$out/benchcmp" -quiet "$out/BENCH.txt" "$out/selftest.txt" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: comparator exited $rc on $1 (want 1)" >&2
    exit 1
  fi
}
must_reject "a synthetic 2x ns/op" \
  '/^BenchmarkIngest\// { for (i = 3; i < NF; i += 2) if ($(i+1) == "ns/op") $i *= 2 } { print }'
must_reject "a removed benchmark line" \
  '!/^BenchmarkIngest\//'
must_reject "a removed gated metric (events/op, and with it every per-event gate)" \
  '/^BenchmarkIngest\// { line = $1 " " $2; for (i = 3; i < NF; i += 2) if ($(i+1) != "events/op") line = line " " $i " " $(i+1); print line; next } { print }'
rm -f "$out/selftest.txt"
echo "gate self-test OK: all three fabricated failures rejected"
