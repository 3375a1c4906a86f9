#!/usr/bin/env bash
# Runs the gated benchmarks — the fourteen pipeline scenarios of the root
# package (scenario_bench_test.go, soak_bench_test.go) in short mode,
# three passes per case — and prints Go's benchmark text format on
# stdout: what ci/bench_gate.sh compares and what `make bench-baseline`
# commits as BENCH.txt. The test binary is built once and run directly,
# so the pipelines' log lines stay on stderr instead of tearing a result
# line. The six scenarios where goroutines contend or overlap run at
# GOMAXPROCS 1, 2 and 4 (Go suffixes the name: BenchmarkChaosSoak/soak-4):
# Ingest among them, whose latency stage folds beside the receiver, and
# Transport, whose sender and draining goroutine overlap. On a
# two-core host the -4 lines oversubscribe the processors: they are a
# contention check, not a scaling point. The rest are single-goroutine
# work and run at 1. The root package's other
# benchmarks (paper figures, ablations, telemetry overhead) are not
# gated: three iterations of a 20 ns operation time the clock, not the
# operation. CI smokes them at -benchtime 1x instead.
set -euo pipefail

MULTI='^Benchmark(Ingest|Fig8cParallel|ChaosSoak|ClusterSoak|WALReplay|Transport)$'
SINGLE='^Benchmark(ExplainOverhead|Table1Learning|Detector|WALAppend|Opdetect|Monitor|Codec|RCA)$'

bin=out/bench/gretel.test
mkdir -p out/bench
go test -c -o "$bin" .

run() {
  "$bin" -test.run '^$' -test.short -test.benchtime 3x -test.benchmem -test.timeout 20m "$@"
}
run -test.bench "$SINGLE" -test.cpu 1
run -test.bench "$MULTI" -test.cpu 1,2,4
