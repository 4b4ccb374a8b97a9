#!/bin/sh
# simd-obs-check.sh — CI gate for the daemon's observability surfaces: one
# real campaign through simctl run must yield (a) structured JSON log lines
# carrying request and campaign ids, (b) a valid Prometheus exposition at
# /v1/metrics whose counters match the campaign, (c) a complete SSE replay
# via simctl tail (dense seqs, one trial event per trial, terminal state
# last), and (d) a Chrome ops trace at /v1/trace with the causal span chain
# campaign -> queue-wait -> run -> trial, and the run's worker spawn (exec
# to hello) and reap (done to exit collected) spans.
#
# Usage: scripts/simd-obs-check.sh [SPEC] [WORKDIR] [PORT]
set -eu

SPEC=${1:-specs/ci-sweep.json}
WORK=${2:-/tmp/mkos-simd-obs}
PORT=${3:-18317}
ADDR=http://127.0.0.1:$PORT
GO=${GO:-go}

rm -rf "$WORK"
mkdir -p "$WORK"

$GO build -o "$WORK/simd" ./cmd/simd
$GO build -o "$WORK/simctl" ./cmd/simctl

field() { sed -n "s/.*$2=\\([a-z0-9]*\\).*/\\1/p" "$1" | tail -n 1; }
metric() { awk -v n="$1" '$1 == n { print $2 }' "$2" | tail -n 1; }

"$WORK/simd" -store "$WORK/store" -addr "127.0.0.1:$PORT" -log-level debug \
  > "$WORK/simd.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
"$WORK/simctl" -addr "$ADDR" -timeout 10s wait-up

"$WORK/simctl" -addr "$ADDR" -timeout 120s run "$SPEC" | tee "$WORK/run.txt"
ID=$(field "$WORK/run.txt" id)
TOTAL=$(field "$WORK/run.txt" total)

# (a) Structured logs: every line is a JSON object, and the request/campaign
# ids the handlers stamp actually appear.
awk 'NF && $0 !~ /^\{/ { bad = 1; print "non-JSON log line: " $0 > "/dev/stderr" }
     END { exit bad }' "$WORK/simd.log" || {
  echo "FAIL: daemon log contains non-JSON lines" >&2
  exit 1
}
grep -q '"request_id":"r' "$WORK/simd.log" || {
  echo "FAIL: no request ids in the daemon log" >&2
  exit 1
}
grep -q "\"campaign\":\"$ID\"" "$WORK/simd.log" || {
  echo "FAIL: campaign $ID never appears as a structured log field" >&2
  exit 1
}

# (b) Metrics: exposition parses, and its counters agree with the campaign.
"$WORK/simctl" -addr "$ADDR" metrics > "$WORK/metrics.txt"
awk '/^#/ { next } NF != 2 { bad = 1; print "bad exposition line: " $0 > "/dev/stderr" }
     END { exit bad }' "$WORK/metrics.txt" || {
  echo "FAIL: /v1/metrics is not valid Prometheus text exposition" >&2
  exit 1
}
grep -q '^# TYPE simd_admitted_total counter$' "$WORK/metrics.txt" || {
  echo "FAIL: exposition is missing the simd_admitted_total TYPE header" >&2
  exit 1
}
if [ "$(metric simd_trials_executed_total "$WORK/metrics.txt")" -ne "$TOTAL" ]; then
  echo "FAIL: simd_trials_executed_total disagrees with the campaign's $TOTAL trials" >&2
  exit 1
fi
grep -q '^simd_submit_to_result_ms_count 1$' "$WORK/metrics.txt" || {
  echo "FAIL: latency histogram did not record the campaign" >&2
  exit 1
}

# (c) SSE replay: tail the finished campaign and check the stream's shape.
"$WORK/simctl" -addr "$ADDR" -timeout 30s tail "$ID" > "$WORK/tail.txt"
TRIALS=$(grep -c 'event=trial' "$WORK/tail.txt") || true
if [ "$TRIALS" -ne "$TOTAL" ]; then
  echo "FAIL: tail replayed $TRIALS trial events, want $TOTAL" >&2
  exit 1
fi
tail -n 1 "$WORK/tail.txt" | grep -q 'event=state state=done' || {
  echo "FAIL: tail did not end on the terminal state event" >&2
  exit 1
}
LAST_SEQ=$(sed -n 's/^seq=\([0-9]*\) .*/\1/p' "$WORK/tail.txt" | tail -n 1)
LINES=$(wc -l < "$WORK/tail.txt")
if [ "$LAST_SEQ" -ne "$LINES" ]; then
  echo "FAIL: final seq $LAST_SEQ != $LINES events — the stream has gaps" >&2
  exit 1
fi

# simctl top and list must answer against the same daemon.
"$WORK/simctl" -addr "$ADDR" top -n 1 -all > "$WORK/top.txt"
grep -q "id=$ID state=done" "$WORK/top.txt" || {
  echo "FAIL: simctl top does not show the finished campaign" >&2
  exit 1
}

# (d) Ops trace: valid JSON envelope with the causal span chain.
"$WORK/simctl" -addr "$ADDR" trace > "$WORK/trace.json"
for span in campaign queue-wait run trial spawn reap; do
  grep -q "\"name\":\"$span\"" "$WORK/trace.json" || {
    echo "FAIL: ops trace has no \"$span\" span" >&2
    exit 1
  }
done
grep -q '"traceEvents"' "$WORK/trace.json" || {
  echo "FAIL: ops trace is missing the traceEvents envelope" >&2
  exit 1
}

kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
trap - EXIT
if [ "$STATUS" -ne 0 ]; then
  echo "FAIL: draining daemon exited $STATUS, want 0" >&2
  exit 1
fi

echo "simd obs OK: structured logs, valid exposition, $TRIALS-event SSE replay, causal ops trace"
