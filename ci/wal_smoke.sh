#!/usr/bin/env bash
# WAL crash smoke, two phases.
#
# Phase 1: kill -9 a WAL-enabled replay mid-burst, restart it, and
# require the restarted process's report stream to match an
# uninterrupted no-WAL run byte-for-byte. This is the end-to-end form
# of the package's loss bound: everything the analyzer acked before
# the kill survives in the log, boot recovery replays it, and the
# resumed run produces exactly the reports the uninterrupted run does.
# -replay-pace stretches the burst so the kill reliably lands while
# events are still being appended; the restart check asserts the kill
# actually interrupted the run (a kill that lands after completion
# would make the byte-identity test vacuous).
#
# Phase 2, the failover: a live agent streams to an analyzer with -wal;
# kill -9 the analyzer mid-burst and restart it on the same -listen and
# -wal. The agent's spool must replay into the restarted process: the
# agent exits 0 and the SIGTERM ledger counts nothing missing.
set -euo pipefail

out=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$out"
}
trap cleanup EXIT

go build -o "$out/gretel" ./cmd/gretel

wait_http() { # url
  for _ in $(seq 1 100); do
    if curl -fs "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

EVENTS=40000
FAULT_EVERY=500

# Baseline: uninterrupted, no WAL.
"$out/gretel" analyze -replay "$EVENTS" -fault-every "$FAULT_EVERY" -json \
  2>"$out/log.base" | grep '^{' >"$out/reports.base" || true
n=$(wc -l <"$out/reports.base")
echo "baseline: $n reports"
if [ "$n" -eq 0 ]; then
  echo "FAIL: baseline produced no reports" >&2
  cat "$out/log.base" >&2
  exit 1
fi

# WAL run, killed mid-burst. Pace the replay (~2ms per 1000 events)
# so the process is still appending when the kill fires.
wal="$out/wal"
"$out/gretel" analyze -replay "$EVENTS" -fault-every "$FAULT_EVERY" -json \
  -wal "$wal" -wal-fsync none -replay-pace 2ms \
  2>"$out/log.kill" | grep '^{' >"$out/reports.kill" &
pid=$!

# Wait for the log to show real progress, then kill without warning.
for _ in $(seq 1 200); do
  if [ -d "$wal" ] && [ "$(du -sb "$wal" 2>/dev/null | cut -f1)" -gt 100000 ]; then
    break
  fi
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

written=$(wc -l <"$out/reports.kill")
echo "killed run: $written reports before SIGKILL"
if [ "$written" -ge "$n" ]; then
  echo "FAIL: kill landed after the run completed ($written reports); smoke is vacuous" >&2
  exit 1
fi

# Restart the same command: boot recovery replays the WAL (reprinting
# every report, since -replay self-test mode ignores the cursor), then
# the synthesized stream resumes where the log ends.
"$out/gretel" analyze -replay "$EVENTS" -fault-every "$FAULT_EVERY" -json \
  -wal "$wal" -wal-fsync none \
  2>"$out/log.restart" | grep '^{' >"$out/reports.restart" || true

if ! grep -q 'wal: recovered' "$out/log.restart"; then
  echo "FAIL: restart did not recover from the WAL" >&2
  cat "$out/log.restart" >&2
  exit 1
fi
if ! grep -q 'resuming after' "$out/log.restart"; then
  echo "FAIL: restart did not resume the synthesized stream mid-burst" >&2
  cat "$out/log.restart" >&2
  exit 1
fi

if ! diff -u "$out/reports.base" "$out/reports.restart" >"$out/diff"; then
  echo "FAIL: restarted run's reports differ from the uninterrupted baseline" >&2
  head -40 "$out/diff" >&2
  exit 1
fi

echo "phase 1: PASS — kill -9 mid-burst, restart reports byte-identical to uninterrupted run"
echo "  ($(grep -o 'wal: recovered [0-9]* events[^)]*)' "$out/log.restart" | head -1))"

# ---- Phase 2: a live agent across a kill -9 and restart ----

analyze() { # stdout stderr
  "$out/gretel" analyze -listen 127.0.0.1:16166 -telemetry 127.0.0.1:16167 \
    -wal "$out/wal2" -quiet >"$1" 2>"$2" &
  analyzer_pid=$!
  pids+=("$analyzer_pid")
  wait_http "http://127.0.0.1:16167/healthz" || {
    echo "FAIL: analyzer never became healthy" >&2
    cat "$2" >&2
    exit 1
  }
}
analyze "$out/first.out" "$out/first.log"

# Spool sized to retain the whole stream so the restart replays everything.
"$out/gretel" agent -analyzer 127.0.0.1:16166 \
  -parallel 50 -faults 4 -duration 2m -spool 262144 \
  -heartbeat 100ms -drain-timeout 60s \
  >"$out/agent.log" 2>&1 &
agent_pid=$!
pids+=("$agent_pid")

killed=0
for _ in $(seq 1 300); do
  seq_now=$(curl -fs "http://127.0.0.1:16167/agents" 2>/dev/null |
    grep -o '"LastSeq":[0-9]*' | head -1 | cut -d: -f2 || true)
  if [ -n "${seq_now:-}" ] && [ "$seq_now" -gt 100 ]; then
    if ! kill -0 "$agent_pid" 2>/dev/null; then
      echo "FAIL: agent finished before the kill; the phase is vacuous" >&2
      exit 1
    fi
    kill -9 "$analyzer_pid"
    wait "$analyzer_pid" 2>/dev/null || true
    killed=1
    echo "phase 2: killed the analyzer at last_seq=$seq_now with the agent mid-burst"
    break
  fi
  sleep 0.05
done
if [ "$killed" -ne 1 ]; then
  echo "FAIL: the analyzer never admitted agent traffic" >&2
  cat "$out/agent.log" >&2
  exit 1
fi

analyze "$out/restart.out" "$out/restart.log"

# The agent must finish cleanly: redial the restarted process, replay
# the spool, drain. A non-zero exit means frames were lost.
if ! wait "$agent_pid"; then
  echo "FAIL: agent did not drain cleanly across the restart" >&2
  cat "$out/agent.log" >&2
  exit 1
fi

# SIGTERM drains the analyzer the way Ctrl-C does, summary ledger included.
kill -TERM "$analyzer_pid"
wait "$analyzer_pid" 2>/dev/null || true
ledger=$(grep '^agent: ' "$out/restart.out" || true)
echo "phase 2: restarted analyzer's ledger: ${ledger:-<none>}"
if ! printf '%s\n' "$ledger" | grep -q 'missing=0 '; then
  echo "FAIL: ledger shows loss across the restart" >&2
  cat "$out/restart.out" >&2
  exit 1
fi
echo "phase 2: PASS — the agent's spool replayed into the restarted analyzer with nothing missing"
echo "wal smoke: PASS"
