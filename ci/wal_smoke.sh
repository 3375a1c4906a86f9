#!/usr/bin/env bash
# WAL crash smoke: kill -9 a WAL-enabled replay mid-burst, restart it,
# and require the restarted process's report stream to match an
# uninterrupted no-WAL run byte-for-byte. This is the end-to-end form
# of the package's loss bound: everything the analyzer acked before
# the kill survives in the log, boot recovery replays it, and the
# resumed run produces exactly the reports the uninterrupted run does.
#
# -replay-pace stretches the burst so the kill reliably lands while
# events are still being appended; the restart check asserts the kill
# actually interrupted the run (a kill that lands after completion
# would make the byte-identity test vacuous).
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go build -o "$out/gretel" ./cmd/gretel

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

echo "wal smoke OK: kill -9 mid-burst, restart reports byte-identical to uninterrupted run"
echo "  ($(grep -o 'wal: recovered [0-9]* events[^)]*)' "$out/log.restart" | head -1))"
