#!/usr/bin/env bash
# Explain-mode smoke: run a short faulty replay with evidence tracing
# on, then hit the /traces endpoints while the analyzer lingers and
# assert that at least one trace was recorded with a non-empty
# candidate-rejection list, and that the Chrome-trace export emits
# Perfetto-loadable events.
set -euo pipefail

port=6199
out=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$out"' EXIT

go build -o "$out/gretel" ./cmd/gretel
"$out/gretel" analyze -replay 40000 -fault-every 500 -quiet -explain \
  -telemetry "127.0.0.1:$port" -linger 60s >"$out/run.log" 2>&1 &
pid=$!

# Wait for the replay to finish and the trace store to fill.
for _ in $(seq 1 60); do
  if curl -fs "http://127.0.0.1:$port/traces?format=ndjson" -o "$out/traces.ndjson" \
      && [ -s "$out/traces.ndjson" ]; then
    break
  fi
  sleep 1
done

if ! [ -s "$out/traces.ndjson" ]; then
  echo "FAIL: /traces served no evidence traces" >&2
  cat "$out/run.log" >&2
  exit 1
fi
traces=$(wc -l <"$out/traces.ndjson")
echo "got $traces evidence traces"

if ! grep -q '"reason":"' "$out/traces.ndjson"; then
  echo "FAIL: no trace carries a candidate rejection reason" >&2
  exit 1
fi
rejections=$(grep -c '"reason":"' "$out/traces.ndjson" || true)
echo "rejection reasons recorded: $rejections"

# The index and one full trace render as text.
curl -fs "http://127.0.0.1:$port/traces" -o "$out/index.txt"
head -3 "$out/index.txt"
curl -fs "http://127.0.0.1:$port/traces/1" >/dev/null

# The Chrome export holds complete-span events Perfetto can load.
curl -fs "http://127.0.0.1:$port/traces/1?format=chrome" -o "$out/chrome.json"
if ! grep -q '"ph":"X"' "$out/chrome.json"; then
  echo "FAIL: chrome export has no complete events" >&2
  exit 1
fi
go run ./ci/jsoncheck "$out/chrome.json"
echo "explain smoke OK"
