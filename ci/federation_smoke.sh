#!/usr/bin/env bash
# Federation smoke, two phases.
#
# Phase 1 — parity: a federation of ONE member must be byte-identical
# to a bare analyzer. Run the same deterministic replay twice — once
# bare, once as a single-member fleet pulled by gretel coord — and
# diff the coordinator's merged /reports NDJSON against the bare run's
# report lines.
#
# Phase 2 — failover: two live analyzers behind a coordinator, one
# agent resolving its assignment via -coord. kill -9 the assigned
# analyzer mid-burst; the coordinator must declare it dead, bump the
# epoch, and reassign, and the agent's spool ring must replay the
# retained stream into the survivor so its final per-agent ledger
# shows zero missing frames and zero duplicates.
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

wait_http() { # url attempts
  for _ in $(seq 1 "${2:-100}"); do
    if curl -fs "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

EVENTS=40000
FAULT_EVERY=500

# ---- Phase 1: one-member federation parity ----

"$out/gretel" analyze -replay "$EVENTS" -fault-every "$FAULT_EVERY" -json \
  2>"$out/log.base" | grep '^{' >"$out/reports.base" || true
n=$(wc -l <"$out/reports.base")
echo "phase 1: baseline produced $n reports"
if [ "$n" -eq 0 ]; then
  echo "FAIL: bare baseline produced no reports" >&2
  cat "$out/log.base" >&2
  exit 1
fi

"$out/gretel" analyze -replay "$EVENTS" -fault-every "$FAULT_EVERY" -json \
  -telemetry 127.0.0.1:16267 -linger 60s \
  >"$out/reports.solo" 2>"$out/log.solo" &
pids+=($!)
wait_http "http://127.0.0.1:16267/healthz" || {
  echo "FAIL: single-member analyzer never became healthy" >&2
  cat "$out/log.solo" >&2
  exit 1
}

# EventAddr is only handed to agents; the replay member never uses it.
"$out/gretel" coord -listen 127.0.0.1:16270 \
  -member solo,127.0.0.1:1,http://127.0.0.1:16267 \
  -probe-interval 100ms -pull-interval 50ms \
  >"$out/coord1.out" 2>"$out/coord1.log" &
pids+=($!)
wait_http "http://127.0.0.1:16270/cluster" || {
  echo "FAIL: coordinator API never came up" >&2
  cat "$out/coord1.log" >&2
  exit 1
}

# Wait for the coordinator to pull the member's full report history.
for _ in $(seq 1 200); do
  curl -fs "http://127.0.0.1:16270/reports" -o "$out/reports.merged" 2>/dev/null || true
  if [ -s "$out/reports.merged" ] && [ "$(wc -l <"$out/reports.merged")" -ge "$n" ]; then
    break
  fi
  sleep 0.1
done
merged=$(wc -l <"$out/reports.merged")
echo "phase 1: coordinator merged $merged reports"

if ! diff -u "$out/reports.base" "$out/reports.merged" >"$out/parity.diff"; then
  echo "FAIL: one-member federation output differs from the bare analyzer" >&2
  head -40 "$out/parity.diff" >&2
  exit 1
fi
echo "phase 1: PASS — merged /reports byte-identical to the bare analyzer"

for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done
pids=()

# ---- Phase 2: failover mid-burst ----

"$out/gretel" analyze -listen 127.0.0.1:16166 -telemetry 127.0.0.1:16167 \
  -member alpha -quiet >"$out/alpha.out" 2>"$out/alpha.log" &
alpha_pid=$!
pids+=("$alpha_pid")
"$out/gretel" analyze -listen 127.0.0.1:16266 -telemetry 127.0.0.1:16268 \
  -member beta -quiet >"$out/beta.out" 2>"$out/beta.log" &
beta_pid=$!
pids+=("$beta_pid")
wait_http "http://127.0.0.1:16167/healthz" && wait_http "http://127.0.0.1:16268/healthz" || {
  echo "FAIL: analyzers never became healthy" >&2
  exit 1
}

"$out/gretel" coord -listen 127.0.0.1:16170 \
  -member alpha,127.0.0.1:16166,http://127.0.0.1:16167 \
  -member beta,127.0.0.1:16266,http://127.0.0.1:16268 \
  -probe-interval 100ms -down-fails 2 -pull-interval 50ms \
  >"$out/coord2.out" 2>"$out/coord2.log" &
coord_pid=$!
pids+=("$coord_pid")
# /healthz is 200 only once every member probes alive.
wait_http "http://127.0.0.1:16170/healthz" || {
  echo "FAIL: coordinator never saw both members alive" >&2
  cat "$out/coord2.log" >&2
  exit 1
}

victim=$(curl -fs "http://127.0.0.1:16170/assign?agent=smoke" |
  grep -o '"member":"[^"]*"' | cut -d'"' -f4 || true)
case "$victim" in
alpha) victim_pid=$alpha_pid victim_tel=16167 survivor=beta survivor_pid=$beta_pid ;;
beta) victim_pid=$beta_pid victim_tel=16268 survivor=alpha survivor_pid=$alpha_pid ;;
*)
  echo "FAIL: could not resolve assignment for key 'smoke' (got '$victim')" >&2
  exit 1
  ;;
esac
echo "phase 2: key 'smoke' assigned to $victim; survivor is $survivor"

# Spool sized to retain the whole stream so failover replays everything.
"$out/gretel" agent -coord http://127.0.0.1:16170 -name smoke \
  -parallel 50 -faults 4 -duration 2m -spool 262144 \
  -heartbeat 100ms -drain-timeout 60s \
  >"$out/agent.log" 2>&1 &
agent_pid=$!
pids+=("$agent_pid")

# Kill without warning once the victim has admitted real traffic.
killed=0
for _ in $(seq 1 300); do
  seq_now=$(curl -fs "http://127.0.0.1:$victim_tel/agents" 2>/dev/null |
    grep -o '"LastSeq":[0-9]*' | head -1 | cut -d: -f2 || true)
  if [ -n "${seq_now:-}" ] && [ "$seq_now" -gt 100 ]; then
    if ! kill -0 "$agent_pid" 2>/dev/null; then
      echo "FAIL: agent finished before the kill; failover smoke is vacuous" >&2
      exit 1
    fi
    kill -9 "$victim_pid"
    wait "$victim_pid" 2>/dev/null || true
    killed=1
    echo "phase 2: killed $victim at last_seq=$seq_now with the agent mid-burst"
    break
  fi
  sleep 0.05
done
if [ "$killed" -ne 1 ]; then
  echo "FAIL: victim $victim never admitted agent traffic" >&2
  cat "$out/agent.log" >&2
  exit 1
fi

# The agent must finish cleanly: resolve the replacement on redial,
# replay the spool, drain. A non-zero exit means frames were lost.
if ! wait "$agent_pid"; then
  echo "FAIL: agent did not drain cleanly after failover" >&2
  cat "$out/agent.log" >&2
  exit 1
fi
grep -q '^.*done: ' "$out/agent.log" || {
  echo "FAIL: agent log has no completion line" >&2
  cat "$out/agent.log" >&2
  exit 1
}

cluster=$(curl -fs "http://127.0.0.1:16170/cluster")
epoch=$(printf '%s' "$cluster" | grep -o '"epoch":[0-9]*' | head -1 | cut -d: -f2 || true)
if [ -z "$epoch" ] || [ "$epoch" -lt 2 ]; then
  echo "FAIL: coordinator never bumped the epoch after the kill (epoch=$epoch)" >&2
  printf '%s\n' "$cluster" >&2
  exit 1
fi
reassigned=$(curl -fs "http://127.0.0.1:16170/assign?agent=smoke" |
  grep -o '"member":"[^"]*"' | cut -d'"' -f4 || true)
if [ "$reassigned" != "$survivor" ]; then
  echo "FAIL: key 'smoke' not reassigned to survivor (got '$reassigned')" >&2
  exit 1
fi
echo "phase 2: epoch $epoch, key 'smoke' reassigned to $survivor"

# Merged reports must flow from the survivor (the agent injected 4 faults).
got_reports=0
for _ in $(seq 1 100); do
  mr=$(curl -fs "http://127.0.0.1:16170/cluster" | grep -o '"merged":[0-9]*' | cut -d: -f2 || true)
  if [ -n "${mr:-}" ] && [ "$mr" -gt 0 ]; then
    got_reports=1
    echo "phase 2: coordinator merged $mr reports fleet-wide"
    break
  fi
  sleep 0.1
done
if [ "$got_reports" -ne 1 ]; then
  echo "FAIL: coordinator merged no reports" >&2
  cat "$out/coord2.log" >&2
  exit 1
fi

# Survivor ledger: the replayed stream must close with zero loss. SIGTERM
# drains the analyzer the way Ctrl-C does, summary ledger included.
kill -TERM "$survivor_pid"
wait "$survivor_pid" 2>/dev/null || true
ledger=$(grep '^agent: ' "$out/$survivor.out" || true)
echo "phase 2: survivor ledger: ${ledger:-<none>}"
if ! printf '%s\n' "$ledger" | grep -q 'missing=0 dups=0'; then
  echo "FAIL: survivor ledger shows loss or duplicates after failover" >&2
  cat "$out/$survivor.out" >&2
  exit 1
fi
echo "phase 2: PASS — failover replayed the stream with zero loss"

# SIGTERM drains the coordinator too: final pull, merge flush, tally.
kill -TERM "$coord_pid"
wait "$coord_pid" 2>/dev/null || true
if ! grep -q 'done: [0-9]* reports merged' "$out/coord2.log"; then
  echo "FAIL: coordinator did not drain on SIGTERM" >&2
  cat "$out/coord2.log" >&2
  exit 1
fi
echo "phase 2: coordinator $(grep -o 'done: .*' "$out/coord2.log")"
echo "federation smoke: PASS"
