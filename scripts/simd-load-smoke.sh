#!/bin/sh
# simd-load-smoke.sh — CI load smoke for the campaign daemon: N concurrent
# clients (default 200) submit the same tiny campaign, which must collapse
# onto ONE admitted campaign and ONE trial execution; a second flood of
# distinct campaigns against a deliberately tiny queue must produce typed
# admission rejections that the daemon's telemetry accounts for. Emits a
# benchmark artifact (cache hit-rate, submit-to-result latency quantiles)
# to results/BENCH_simd.json.
#
# Usage: scripts/simd-load-smoke.sh [SPEC] [WORKDIR] [PORT]
#   N=200        concurrent identical-spec clients
#   DISTINCT=60  concurrent distinct-spec clients against the tiny queue
#   OUT=results/BENCH_simd.json
set -eu

SPEC=${1:-specs/simd-smoke.json}
WORK=${2:-/tmp/mkos-simd-load}
PORT=${3:-18312}
ADDR=http://127.0.0.1:$PORT
GO=${GO:-go}
N=${N:-200}
DISTINCT=${DISTINCT:-60}
OUT=${OUT:-results/BENCH_simd.json}

rm -rf "$WORK"
mkdir -p "$WORK"

$GO build -o "$WORK/simd" ./cmd/simd
$GO build -o "$WORK/simctl" ./cmd/simctl

field() { sed -n "s/.*$2=\\([a-z0-9.]*\\).*/\\1/p" "$1" | tail -n 1; }

# A tiny queue makes the backpressure phase deterministic: the distinct
# flood must overflow it.
"$WORK/simd" -store "$WORK/store" -addr "127.0.0.1:$PORT" \
  -max-queue 4 -max-per-client 2 > "$WORK/simd.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
"$WORK/simctl" -addr "$ADDR" -timeout 10s wait-up

# Phase 1: N clients, one spec. Content-addressed identity must fold every
# submission onto one campaign — no rejection, no duplicate execution.
"$WORK/simctl" -addr "$ADDR" flood -n "$N" "$SPEC" | tee "$WORK/flood1.txt"
OK1=$(field "$WORK/flood1.txt" flood_ok)
if [ "$OK1" -ne "$N" ]; then
  echo "FAIL: $OK1 of $N identical submissions succeeded (dedupe must absorb all)" >&2
  exit 1
fi
"$WORK/simctl" -addr "$ADDR" id "$SPEC" | tee "$WORK/id.txt"
ID=$(field "$WORK/id.txt" id)
"$WORK/simctl" -addr "$ADDR" -timeout 120s await "$ID" | tee "$WORK/await.txt"
"$WORK/simctl" -addr "$ADDR" stats | tee "$WORK/stats1.txt"
if [ "$(field "$WORK/stats1.txt" admitted)" -ne 1 ]; then
  echo "FAIL: $N identical submissions admitted more than one campaign" >&2
  exit 1
fi
if [ "$(field "$WORK/stats1.txt" trials_executed)" -ne 1 ]; then
  echo "FAIL: the deduped campaign executed its trial more than once" >&2
  exit 1
fi

# Phase 2: DISTINCT clients, distinct campaign names. Their single trials
# are content-identical to phase 1's (campaign name is not part of a trial's
# cache key), so accepted ones are pure cache hits; the tiny queue must
# refuse the overflow with typed, telemetry-accounted rejections.
"$WORK/simctl" -addr "$ADDR" flood -n "$DISTINCT" -distinct "$SPEC" | tee "$WORK/flood2.txt"
OK2=$(field "$WORK/flood2.txt" flood_ok)
FAILED2=$(field "$WORK/flood2.txt" flood_failed)

# Let the accepted backlog settle before reading the final books.
for i in $(seq 1 300); do
  "$WORK/simctl" -addr "$ADDR" stats > "$WORK/stats2.txt"
  if [ "$(field "$WORK/stats2.txt" queue_depth)" -eq 0 ] &&
     [ "$(field "$WORK/stats2.txt" campaigns_running)" -eq 0 ]; then break; fi
  sleep 0.2
done
cat "$WORK/stats2.txt"

REJECTED=$(field "$WORK/stats2.txt" rejected_total)
EXECUTED=$(field "$WORK/stats2.txt" trials_executed)
CACHED=$(field "$WORK/stats2.txt" trials_cached)
HITRATE=$(field "$WORK/stats2.txt" cache_hit_rate)
if [ "$FAILED2" -lt 1 ] || [ "$REJECTED" -lt 1 ]; then
  echo "FAIL: the distinct flood was never refused (failed=$FAILED2 rejected=$REJECTED) — backpressure untested" >&2
  exit 1
fi
if [ "$REJECTED" -ne "$FAILED2" ]; then
  echo "FAIL: clients saw $FAILED2 rejections but telemetry accounted $REJECTED" >&2
  exit 1
fi
if [ "$EXECUTED" -ne 1 ]; then
  echo "FAIL: $EXECUTED trials executed in total, want 1 (cache should serve every distinct campaign)" >&2
  exit 1
fi

# Graceful exit, then the benchmark artifact.
kill -TERM "$PID"
wait "$PID" || { echo "FAIL: daemon exited non-zero on SIGTERM" >&2; exit 1; }
trap - EXIT

mkdir -p "$(dirname "$OUT")"
cat > "$OUT" <<EOF
{
  "note": "cmd/simd load smoke: $N concurrent clients submit one identical tiny campaign (must collapse to 1 admission, 1 trial execution), then $DISTINCT clients submit distinct campaigns against a 4-deep queue (accepted ones are pure cache hits; the overflow must be refused with typed 429s that telemetry accounts). Latency is admitted-to-terminal per campaign, dominated by the single cold trial, then per cached campaign by its worker spawn and journal open. Regenerate with 'make simd-load'.",
  "recorded": "$(date -u +%F)",
  "host": {
    "goos": "$($GO env GOOS)",
    "goarch": "$($GO env GOARCH)",
    "cores": $(nproc 2>/dev/null || echo 1),
    "go": "$($GO env GOVERSION)"
  },
  "command": "scripts/simd-load-smoke.sh $SPEC",
  "identical_flood": {
    "clients": $N,
    "accepted": $OK1,
    "campaigns_admitted": $(field "$WORK/stats1.txt" admitted),
    "deduped": $(field "$WORK/stats1.txt" deduped)
  },
  "distinct_flood": {
    "clients": $DISTINCT,
    "accepted": $OK2,
    "rejected": $FAILED2,
    "rejected_queue_full": $(field "$WORK/stats2.txt" rejected_queue_full),
    "rejected_client_backlog": $(field "$WORK/stats2.txt" rejected_client_backlog)
  },
  "trials": {
    "executed": $EXECUTED,
    "cached": $CACHED,
    "cache_hit_rate": $HITRATE
  },
  "submit_to_result_ms": {
    "count": $(field "$WORK/stats2.txt" latency_count),
    "p50": $(field "$WORK/stats2.txt" latency_p50_ms),
    "p90": $(field "$WORK/stats2.txt" latency_p90_ms),
    "p99": $(field "$WORK/stats2.txt" latency_p99_ms),
    "max": $(field "$WORK/stats2.txt" latency_max_ms)
  }
}
EOF
echo "simd load smoke OK: $N identical submissions -> 1 execution, $FAILED2/$DISTINCT distinct submissions refused and accounted; bench in $OUT"
