#!/usr/bin/env bash
# Export smoke: end-to-end soak of the telemetry export pipeline against
# a real gretel tsdb. Two phases:
#
#   1. Healthy path — run a replay with -telemetry-export, then assert
#      the exporter's closed ledger balances (delivered + shed ==
#      sampled, nothing shed) and that the TSDB answers /query with
#      per-interval history for a core pipeline series.
#
#   2. Receiver outage — kill -9 the TSDB mid-run, restart it on the
#      same port and data directory, and assert the restarted store
#      recovers its segments, the exporter's retry loop drains the
#      spooled points into it, and any loss is counted in the ledger —
#      never silent.
set -euo pipefail

port=6201
out=$(mktemp -d)
tsdb_pid=
trap 'kill "$tsdb_pid" 2>/dev/null || true; rm -rf "$out"' EXIT

go build -o "$out/gretel" ./cmd/gretel

start_tsdb() {
  "$out/gretel" tsdb -listen "127.0.0.1:$port" -dir "$out/tsdb-data" \
    >>"$out/tsdb.log" 2>&1 &
  tsdb_pid=$!
  for _ in $(seq 1 100); do
    if curl -fs "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: gretel tsdb not ready on port $port" >&2
  cat "$out/tsdb.log" >&2
  exit 1
}

# ledger <run.log> prints "sampled delivered shed" from the summary and
# asserts delivered + shed == sampled with at least one delivery.
check_ledger() {
  local line
  line=$(grep '^export:' "$1" || true)
  if [ -z "$line" ]; then
    echo "FAIL: no export ledger in summary" >&2
    cat "$1" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  set -- $line # export: sampled N delivered N shed N
  local sampled=$3 delivered=$5 shed=$7
  if [ $((delivered + shed)) -ne "$sampled" ] || [ "$delivered" -eq 0 ]; then
    echo "FAIL: unbalanced export ledger: $line" >&2
    exit 1
  fi
  echo "$sampled $delivered $shed"
}

start_tsdb

# --- Phase 1: healthy receiver ---
"$out/gretel" analyze -replay 40000 -fault-every 500 -quiet \
  -telemetry-export "http://127.0.0.1:$port" \
  -export-interval 200ms -replay-pace 25ms >"$out/run1.log" 2>&1

read -r sampled delivered shed <<<"$(check_ledger "$out/run1.log")"
echo "phase 1: sampled $sampled delivered $delivered shed $shed"
if [ "$shed" -ne 0 ]; then
  echo "FAIL: points shed against a healthy receiver" >&2
  exit 1
fi

# The soak history must be queryable: find the core.events_ingested
# series key (it carries host/proc/rev tags) and pull its points.
curl -fs "http://127.0.0.1:$port/series" -o "$out/series1.json"
key=$(grep -o '"series":"core\.events_ingested[^"]*"' "$out/series1.json" \
  | head -1 | sed 's/^"series":"//; s/"$//')
if [ -z "$key" ]; then
  echo "FAIL: core.events_ingested series missing from /series" >&2
  head -c 2000 "$out/series1.json" >&2
  exit 1
fi
curl -fsG --data-urlencode "series=$key" "http://127.0.0.1:$port/query" \
  -o "$out/query1.json"
count=$(grep -o '"count":[0-9]*' "$out/query1.json" | cut -d: -f2)
if [ -z "$count" ] || [ "$count" -lt 2 ]; then
  echo "FAIL: /query returned $count intervals for $key; want per-interval history" >&2
  head -c 2000 "$out/query1.json" >&2
  exit 1
fi
echo "phase 1: $count intervals queryable for $key"

# --- Phase 2: kill the receiver mid-run, restart, retry must drain ---
"$out/gretel" analyze -replay 40000 -fault-every 500 -quiet \
  -telemetry-export "http://127.0.0.1:$port" \
  -export-interval 200ms -replay-pace 100ms >"$out/run2.log" 2>&1 &
gpid=$!

sleep 1
kill -9 "$tsdb_pid" 2>/dev/null || true
wait "$tsdb_pid" 2>/dev/null || true
echo "phase 2: TSDB killed mid-run"
sleep 1
start_tsdb
echo "phase 2: TSDB restarted"
if ! grep -q 'recovered .* points' "$out/tsdb.log"; then
  echo "FAIL: restarted TSDB did not recover its segments" >&2
  cat "$out/tsdb.log" >&2
  exit 1
fi

wait "$gpid"
read -r sampled delivered shed <<<"$(check_ledger "$out/run2.log")"
echo "phase 2: sampled $sampled delivered $delivered shed $shed (loss counted, not silent)"

# The retry loop must have landed post-restart points on top of what
# segment recovery restored.
stats=$(curl -fs "http://127.0.0.1:$port/stats")
points=$(echo "$stats" | grep -o '"points":[0-9]*' | cut -d: -f2)
recovered=$(echo "$stats" | grep -o '"recovered":[0-9]*' | cut -d: -f2)
if [ -z "$points" ] || [ -z "$recovered" ] || [ "$points" -le "$recovered" ]; then
  echo "FAIL: no points delivered after the restart (points=$points recovered=$recovered)" >&2
  echo "$stats" >&2
  exit 1
fi
echo "export smoke OK: $points points stored ($recovered via recovery), ledger balanced through the outage"
