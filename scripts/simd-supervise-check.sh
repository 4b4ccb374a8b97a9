#!/bin/sh
# simd-supervise-check.sh — CI gate for the daemon's worker-supervision
# contract, the out-of-process half of the crash-tolerance story that
# simd-chaos-check.sh tells for the daemon itself:
#
#   1. SIGKILL the supervised worker process twice mid-campaign (the daemon
#      stays up) and assert the campaign still completes with zero
#      re-executed trials — the journal carries every landed trial across
#      worker incarnations — and artifacts byte-identical to a never-killed
#      cmd/sweep run of the same spec.
#   2. Feed the daemon a poison campaign whose worker is killed on every
#      spawn before any trial can land, and assert the per-campaign
#      crash-loop circuit breaker opens after K consecutive no-progress
#      deaths (terminal state crash_loop, breaker=open) while a concurrent
#      healthy campaign is untouched by the breaker and completes.
#   3. SIGTERM afterwards drains cleanly (exit 0).
#
# The worker chaos is the daemon's own -worker-chaos-* flags (a seeded
# chaos.WorkerKiller on the spawn hook), so a failure replays exactly.
#
# Usage: scripts/simd-supervise-check.sh [SPEC] [WORKDIR] [PORT]
set -eu

SPEC=${1:-specs/simd-supervise.json}
WORK=${2:-/tmp/mkos-simd-supervise}
PORT=${3:-18312}
ADDR=http://127.0.0.1:$PORT
GO=${GO:-go}

rm -rf "$WORK"
mkdir -p "$WORK"

$GO build -o "$WORK/simd" ./cmd/simd
$GO build -o "$WORK/simctl" ./cmd/simctl
$GO build -o "$WORK/sweep" ./cmd/sweep

executed() { sed -n 's/.*: \([0-9][0-9]*\) executed,.*/\1/p' "$1" | tail -n 1; }
field() { sed -n "s/.*$2=\\([a-z0-9_]*\\).*/\\1/p" "$1" | tail -n 1; }

# metric NAME FILE — extract one sample's value from a scraped exposition.
metric() { awk -v n="$1" '$1 == n { print $2 }' "$2" | tail -n 1; }

# --- Reference: the same campaign through the CLI, never harassed. --------
# Timed: phase 1 sizes its kill window from this run's per-trial time.
START=$(date +%s%N)
"$WORK/sweep" -spec "$SPEC" -j 1 -outdir "$WORK/clean" | tee "$WORK/clean.txt"
REF_MS=$(( ($(date +%s%N) - START) / 1000000 ))
TOTAL=$(executed "$WORK/clean.txt")
if [ "${TOTAL:-0}" -lt 3 ]; then
  echo "FAIL: reference run executed ${TOTAL:-0} trials; phase 1 needs at least 3" >&2
  exit 1
fi
TRIAL_MS=$(( REF_MS / TOTAL ))

# --- Phase 1: SIGKILL the worker twice mid-campaign. ----------------------
# Each spawn's kill lands one to one and a half serial trials after it
# (TRIAL_MS, measured above on this host, at its load and GOMAXPROCS).
# The first incarnation is then killed with at most one trial journaled,
# usually exactly one, which exercises the cached-restore resume across
# incarnations; the second still has at least TOTAL-2 trials to run when
# its kill lands. Budget 2 means the third incarnation runs undisturbed
# to completion.
CHAOS_MIN_MS=$TRIAL_MS
CHAOS_MAX_MS=$(( TRIAL_MS * 3 / 2 ))
echo "reference: $TOTAL trials in ${REF_MS}ms; worker kills ${CHAOS_MIN_MS}-${CHAOS_MAX_MS}ms after spawn"
"$WORK/simd" -store "$WORK/store" -addr "127.0.0.1:$PORT" -j 1 \
  -worker-chaos-kills 2 -worker-chaos-seed 7 \
  -worker-chaos-min "${CHAOS_MIN_MS}ms" -worker-chaos-max "${CHAOS_MAX_MS}ms" \
  > "$WORK/simd1.log" 2>&1 &
PID=$!
# A failed check must not leave a daemon on the port: $PID is expanded when
# the trap fires, so this covers whichever daemon is running.
trap 'kill "$PID" 2>/dev/null || true' EXIT
"$WORK/simctl" -addr "$ADDR" -timeout 10s wait-up
"$WORK/simctl" -addr "$ADDR" submit "$SPEC" | tee "$WORK/submit.txt"
ID=$(field "$WORK/submit.txt" id)

"$WORK/simctl" -addr "$ADDR" -timeout 180s await "$ID" | tee "$WORK/await.txt"
STATE=$(field "$WORK/await.txt" state)
RESTARTS=$(field "$WORK/await.txt" restarts)
if [ "$STATE" != "done" ]; then
  echo "FAIL: harassed campaign ended $STATE, want done" >&2
  exit 1
fi
if [ "${RESTARTS:-0}" -ne 2 ]; then
  echo "FAIL: campaign survived ${RESTARTS:-0} worker deaths, want 2 (chaos kills missed the window)" >&2
  exit 1
fi
grep -q "worker died" "$WORK/simd1.log" || {
  echo "FAIL: daemon log is missing the worker-death lines" >&2
  exit 1
}

# Zero re-execution: the shared journal holds exactly one line per trial.
JOURNAL=$(ls "$WORK"/store/cache/*.journal | head -n 1)
LINES=$(wc -l < "$JOURNAL")
if [ "$LINES" -ne "$TOTAL" ]; then
  echo "FAIL: journal holds $LINES lines for $TOTAL trials — a trial re-executed or was lost" >&2
  exit 1
fi

# Byte-identity: three worker incarnations produced the same artifacts as
# the never-killed CLI run.
"$WORK/simctl" -addr "$ADDR" results "$ID" > "$WORK/harassed-results.json"
cmp "$WORK/harassed-results.json" "$WORK/clean/results.json"
cmp "$WORK/store/campaigns/$ID/results.json" "$WORK/clean/results.json"
cmp "$WORK/store/campaigns/$ID/metrics.txt" "$WORK/clean/metrics.txt"

# The sidecar checksums the worker wrote must satisfy the daemon's scrubber
# (a fresh scrub pass over this store quarantines nothing — asserted
# implicitly by the reads above, which verify digests).
"$WORK/simctl" -addr "$ADDR" metrics > "$WORK/metrics1.txt"
DEATHS=$(metric simd_worker_deaths_total "$WORK/metrics1.txt")
if [ "$DEATHS" != "2" ]; then
  echo "FAIL: exposition reports $DEATHS worker deaths, want 2" >&2
  exit 1
fi
echo "phase 1 OK: campaign done after 2 worker SIGKILLs, $LINES/$TOTAL journal lines, artifacts byte-identical"

kill -TERM "$PID"
wait "$PID" || { echo "FAIL: phase-1 daemon did not drain cleanly" >&2; exit 1; }

# --- Phase 2: crash-loop breaker isolates a poison campaign. --------------
# Every worker of the poison campaign (name contains "poison") is killed
# 100-300ms after spawn — before its first trial (TRIAL_MS) can journal —
# so each death is a no-progress death and the breaker must open after K=3.
# The healthy campaign's workers are never touched and must complete.
sed 's/"supervise"/"poison-supervise"/' "$SPEC" > "$WORK/poison.json"
"$WORK/simd" -store "$WORK/store2" -addr "127.0.0.1:$PORT" -j 1 \
  -concurrency 2 -crash-loop-k 3 \
  -worker-chaos-kills -1 -worker-chaos-seed 7 -worker-chaos-match poison \
  -worker-chaos-min 100ms -worker-chaos-max 300ms \
  > "$WORK/simd2.log" 2>&1 &
PID=$!
"$WORK/simctl" -addr "$ADDR" -timeout 10s wait-up
"$WORK/simctl" -addr "$ADDR" submit "$WORK/poison.json" | tee "$WORK/poison-submit.txt"
POISON=$(field "$WORK/poison-submit.txt" id)
"$WORK/simctl" -addr "$ADDR" submit "$SPEC" | tee "$WORK/good-submit.txt"
GOOD=$(field "$WORK/good-submit.txt" id)

# await exits non-zero for any terminal state but done; the poison campaign
# is SUPPOSED to end crash_loop, so tolerate the exit status and check state.
"$WORK/simctl" -addr "$ADDR" -timeout 60s await "$POISON" > "$WORK/poison-await.txt" || true
cat "$WORK/poison-await.txt"
P_STATE=$(field "$WORK/poison-await.txt" state)
P_RESTARTS=$(field "$WORK/poison-await.txt" restarts)
P_BREAKER=$(field "$WORK/poison-await.txt" breaker)
if [ "$P_STATE" != "crash_loop" ] || [ "${P_RESTARTS:-0}" -ne 3 ] || [ "$P_BREAKER" != "open" ]; then
  echo "FAIL: poison campaign state=$P_STATE restarts=${P_RESTARTS:-0} breaker=$P_BREAKER, want crash_loop/3/open" >&2
  exit 1
fi
grep -q 'last_exit="signal: killed"' "$WORK/poison-await.txt" || {
  echo "FAIL: poison campaign's last exit cause is not the SIGKILL" >&2
  exit 1
}

"$WORK/simctl" -addr "$ADDR" -timeout 180s await "$GOOD" | tee "$WORK/good-await.txt"
G_STATE=$(field "$WORK/good-await.txt" state)
G_RESTARTS=$(field "$WORK/good-await.txt" restarts)
if [ "$G_STATE" != "done" ] || [ "${G_RESTARTS:-0}" -ne 0 ]; then
  echo "FAIL: healthy campaign state=$G_STATE restarts=${G_RESTARTS:-0}, want done with 0 restarts" >&2
  exit 1
fi
cmp "$WORK/store2/campaigns/$GOOD/results.json" "$WORK/clean/results.json"

"$WORK/simctl" -addr "$ADDR" stats | tee "$WORK/stats.txt"
if [ "$(field "$WORK/stats.txt" campaigns_crash_loop)" != "1" ] ||
   [ "$(field "$WORK/stats.txt" campaigns_done)" != "1" ]; then
  echo "FAIL: stats do not show 1 crash_loop + 1 done campaign" >&2
  exit 1
fi
echo "phase 2 OK: breaker open after ${P_RESTARTS} no-progress deaths, healthy campaign done beside it"

# --- Graceful half of the contract: SIGTERM drains and exits 0. -----------
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

echo "simd supervise OK: 2 worker SIGKILLs survived with zero re-executed trials and byte-identical artifacts, crash-loop breaker opened after 3 no-progress deaths while a healthy campaign completed, SIGTERM drained cleanly"
