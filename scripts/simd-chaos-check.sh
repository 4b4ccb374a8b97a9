#!/bin/sh
# simd-chaos-check.sh — CI gate for the campaign daemon's crash-tolerance
# contract: SIGKILL the daemon mid-campaign, restart it on the same store,
# and assert that (a) the campaign is resumed with zero re-executed trials,
# (b) its artifacts are byte-identical to a never-crashed cmd/sweep run of
# the same spec, and (c) a SIGTERM afterwards drains cleanly (exit 0).
# Along the way both incarnations' /v1/metrics expositions are scraped and
# validated: the text parses, and the trial counters cohere with the journal
# (executed-before-kill lines reappear as cached after the restart).
#
# Usage: scripts/simd-chaos-check.sh [SPEC] [WORKDIR] [PORT]
set -eu

SPEC=${1:-specs/ci-sweep.json}
WORK=${2:-/tmp/mkos-simd-chaos}
PORT=${3:-18311}
ADDR=http://127.0.0.1:$PORT
GO=${GO:-go}

rm -rf "$WORK"
mkdir -p "$WORK"

$GO build -o "$WORK/simd" ./cmd/simd
$GO build -o "$WORK/simctl" ./cmd/simctl
$GO build -o "$WORK/sweep" ./cmd/sweep

executed() { sed -n 's/.*: \([0-9][0-9]*\) executed,.*/\1/p' "$1" | tail -n 1; }
field() { sed -n "s/.*$2=\\([a-z0-9]*\\).*/\\1/p" "$1" | tail -n 1; }

# metric NAME FILE — extract one sample's value from a scraped exposition.
metric() { awk -v n="$1" '$1 == n { print $2 }' "$2" | tail -n 1; }

# check_exposition FILE — every non-comment line must be `name value`, and
# at least one TYPE header must be present (i.e. the scrape was real).
check_exposition() {
  awk '/^#/ { next } NF != 2 { bad = 1; print "bad exposition line: " $0 > "/dev/stderr" }
       END { exit bad }' "$1" || {
    echo "FAIL: $1 is not valid Prometheus text exposition" >&2
    exit 1
  }
  grep -q '^# TYPE ' "$1" || {
    echo "FAIL: $1 has no TYPE headers — empty or broken scrape" >&2
    exit 1
  }
}

# Reference: the same campaign through the CLI, never interrupted, serial.
"$WORK/sweep" -spec "$SPEC" -j 1 -outdir "$WORK/clean" | tee "$WORK/clean.txt"
TOTAL=$(executed "$WORK/clean.txt")

# Incarnation 1: serial daemon (-j 1) so the campaign is provably still in
# flight when the SIGKILL lands.
"$WORK/simd" -store "$WORK/store" -addr "127.0.0.1:$PORT" -j 1 \
  > "$WORK/simd1.log" 2>&1 &
PID=$!
# A failed check must not leave a daemon on the port: $PID is expanded when
# the trap fires, so this covers whichever incarnation is running.
trap 'kill "$PID" 2>/dev/null || true' EXIT
"$WORK/simctl" -addr "$ADDR" -timeout 10s wait-up
"$WORK/simctl" -addr "$ADDR" submit "$SPEC" | tee "$WORK/submit.txt"
ID=$(field "$WORK/submit.txt" id)

# Wait until some trials have landed in the campaign journal, then kill -9.
# Journal appends are whole synced lines, so the line count is exactly the
# number of trials incarnation 1 completed.
JOURNAL=
for i in $(seq 1 100); do
  JOURNAL=$(ls "$WORK"/store/cache/*.journal 2>/dev/null | head -n 1) || true
  if [ -n "$JOURNAL" ] && [ "$(wc -l < "$JOURNAL")" -ge 5 ]; then break; fi
  sleep 0.2
done
# Scrape the first incarnation's exposition before the kill: it must parse,
# and the daemon must be mid-campaign from the metrics' point of view too.
"$WORK/simctl" -addr "$ADDR" metrics > "$WORK/metrics1.txt"
check_exposition "$WORK/metrics1.txt"
if [ "$(metric simd_admitted_total "$WORK/metrics1.txt")" != "1" ]; then
  echo "FAIL: pre-kill exposition does not show the admitted campaign" >&2
  exit 1
fi
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
# The kernel SIGKILLs the worker when the daemon dies (Pdeathsig), but a
# journal append already in flight still lands: count the journal only once
# the worker has exited (a zombie has).
WPID=$(grep 'worker spawned' "$WORK/simd1.log" | sed -n 's/.*"pid":\([0-9][0-9]*\).*/\1/p' | tail -n 1)
for i in $(seq 1 100); do
  if [ -z "$WPID" ] || ! kill -0 "$WPID" 2>/dev/null || grep -q ') Z ' "/proc/$WPID/stat" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
FIRST=$(wc -l < "$JOURNAL")
if [ "$FIRST" -lt 1 ] || [ "$FIRST" -ge "$TOTAL" ]; then
  echo "FAIL: $FIRST of $TOTAL trials journaled at kill time — SIGKILL missed the campaign window" >&2
  exit 1
fi
echo "killed daemon (pid $PID) with $FIRST of $TOTAL trials journaled"

# Incarnation 2 on the same store must resume the campaign and finish only
# the balance.
"$WORK/simd" -store "$WORK/store" -addr "127.0.0.1:$PORT" -j 1 \
  > "$WORK/simd2.log" 2>&1 &
PID=$!
"$WORK/simctl" -addr "$ADDR" -timeout 10s wait-up
grep -q "resumed campaign $ID" "$WORK/simd2.log" || {
  echo "FAIL: successor daemon did not resume campaign $ID" >&2
  exit 1
}
"$WORK/simctl" -addr "$ADDR" -timeout 120s await "$ID" | tee "$WORK/await.txt"
SECOND=$(field "$WORK/await.txt" executed)
RESTORED=$(field "$WORK/await.txt" cached)

# Zero re-execution: every trial ran exactly once across both incarnations,
# and the resumed run restored exactly the journaled prefix.
if [ "$((FIRST + SECOND))" -ne "$TOTAL" ]; then
  echo "FAIL: $FIRST journaled + $SECOND re-run trials, want $TOTAL (re-execution or loss)" >&2
  exit 1
fi
if [ "$RESTORED" -ne "$FIRST" ]; then
  echo "FAIL: resumed campaign restored $RESTORED trials, want the $FIRST journaled ones" >&2
  exit 1
fi

# The successor's exposition must parse and cohere with the journal math:
# counters reset on restart, so executed + cached in incarnation 2 covers
# the whole campaign, with exactly the journaled prefix arriving as cached.
"$WORK/simctl" -addr "$ADDR" metrics > "$WORK/metrics2.txt"
check_exposition "$WORK/metrics2.txt"
M_EXEC=$(metric simd_trials_executed_total "$WORK/metrics2.txt")
M_CACHED=$(metric simd_trials_cached_total "$WORK/metrics2.txt")
if [ "$((M_EXEC + M_CACHED))" -ne "$TOTAL" ] || [ "$M_CACHED" -ne "$FIRST" ]; then
  echo "FAIL: post-restart metrics executed=$M_EXEC cached=$M_CACHED, want $((TOTAL - FIRST))/$FIRST" >&2
  exit 1
fi

# Byte-identity: the daemon's artifacts for the crashed-and-resumed campaign
# match the never-crashed CLI run exactly.
"$WORK/simctl" -addr "$ADDR" results "$ID" > "$WORK/resumed-results.json"
cmp "$WORK/resumed-results.json" "$WORK/clean/results.json"
cmp "$WORK/store/campaigns/$ID/results.json" "$WORK/clean/results.json"
cmp "$WORK/store/campaigns/$ID/metrics.txt" "$WORK/clean/metrics.txt"

# Graceful half of the contract: SIGTERM drains and exits 0.
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
  echo "FAIL: draining daemon exited $STATUS, want 0" >&2
  exit 1
fi
grep -q "drained:" "$WORK/simd2.log" || {
  echo "FAIL: daemon log is missing the drain line" >&2
  exit 1
}

echo "simd chaos OK: $FIRST trials before SIGKILL + $SECOND after restart = $TOTAL, zero re-executed, artifacts byte-identical, metrics coherent, SIGTERM drained cleanly"
