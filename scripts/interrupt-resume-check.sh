#!/bin/sh
# interrupt-resume-check.sh — CI gate for the campaign interrupt/resume
# contract: SIGINT a running sweep mid-campaign, re-run it with the same
# cache dir, and assert that (a) no trial that finished before the signal
# re-executed, and (b) the resumed artifacts are byte-identical to a run
# that was never interrupted.
#
# Usage: scripts/interrupt-resume-check.sh [SPEC] [WORKDIR]
set -eu

SPEC=${1:-specs/ci-sweep.json}
WORK=${2:-/tmp/mkos-interrupt-check}
GO=${GO:-go}

rm -rf "$WORK"
mkdir -p "$WORK"

# Build once so process start-up is instant and the binary (not "go run"'s
# wrapper) receives the signal.
$GO build -o "$WORK/sweep" ./cmd/sweep

executed() { sed -n 's/.*: \([0-9][0-9]*\) executed,.*/\1/p' "$1" | tail -n 1; }

# Reference: the same campaign, never interrupted, serial.
"$WORK/sweep" -spec "$SPEC" -j 1 -outdir "$WORK/clean" | tee "$WORK/clean.txt"
TOTAL=$(executed "$WORK/clean.txt")

# Interrupted run: serial so the campaign is provably still in flight when
# the signal lands, then SIGINT once — the first signal cancels and flushes.
# The signal goes out as soon as the first trial is journaled rather than
# after a fixed delay, so the gate does not depend on how fast trials run.
"$WORK/sweep" -spec "$SPEC" -j 1 -cache-dir "$WORK/cache" -outdir "$WORK/partial" \
  > "$WORK/interrupted.txt" 2>&1 &
PID=$!
for i in $(seq 1 1000); do
  JOURNAL=$(ls "$WORK"/cache/*.journal 2>/dev/null | head -n 1) || true
  if [ -n "$JOURNAL" ] && [ "$(wc -l < "$JOURNAL")" -ge 1 ]; then break; fi
  sleep 0.01
done
kill -INT "$PID"
STATUS=0
wait "$PID" || STATUS=$?
cat "$WORK/interrupted.txt"
if [ "$STATUS" -ne 130 ]; then
  echo "FAIL: interrupted sweep exited $STATUS, want 130 (did it finish before the signal?)" >&2
  exit 1
fi
grep -q '"partial": true' "$WORK/partial/results.json" || {
  echo "FAIL: partial results.json is missing the partial marker" >&2
  exit 1
}
FIRST=$(executed "$WORK/interrupted.txt")

# Resume: the journal restores every finished trial; only the remainder runs.
"$WORK/sweep" -spec "$SPEC" -j 1 -cache-dir "$WORK/cache" -outdir "$WORK/resumed" \
  | tee "$WORK/resumed.txt"
SECOND=$(executed "$WORK/resumed.txt")

# Zero re-execution: every trial ran exactly once across both invocations.
if [ "$((FIRST + SECOND))" -ne "$TOTAL" ]; then
  echo "FAIL: $FIRST + $SECOND trials executed across interrupt+resume, want $TOTAL (re-execution or loss)" >&2
  exit 1
fi

# Byte-identity: the resumed campaign merges the same artifacts as the
# uninterrupted run.
cmp "$WORK/resumed/results.json" "$WORK/clean/results.json"
cmp "$WORK/resumed/metrics.txt" "$WORK/clean/metrics.txt"

echo "interrupt/resume OK: $FIRST trials before SIGINT + $SECOND after resume = $TOTAL, artifacts byte-identical"
