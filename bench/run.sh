#!/usr/bin/env bash
# The benchmark's one command: builds gretel-e2e from source into the
# checkout's .bench_build and runs it. Everything it writes — the Go build
# cache, the binary, WAL scratch files, traces — stays inside the checkout.
#
#   bash bench/run.sh --workload wire-steady --seed 1 --seconds 6 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/gretel-e2e" ./cmd/gretel-e2e)
exec "$build/gretel-e2e" -spec "$root/BENCHMARK.json" -workdir "$build/work" -out "$here/out" "$@"
