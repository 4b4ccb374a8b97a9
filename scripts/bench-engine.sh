#!/bin/sh
# bench-engine.sh — records sim.Engine dispatch into results/BENCH_engine.json
# at the queue depths the commands see, each at a fixed -benchtime Nx so the
# numbers are comparable across hosts and commits:
#   - dispatch: schedule and fire one event per op at a steady depth of 4
#     (a trial's engine peaks at 4 pending events), 1e6 events; the Event
#     each op schedules is its one allocation;
#   - drain: fire from a queue of 1,536 events at one instant (a 1,536-node
#     full-machine FWQ campaign on one shard), 1,536,000 events; firing
#     must not allocate.
#
# Usage: scripts/bench-engine.sh
#   OUT=results/BENCH_engine.json
set -eu

GO=${GO:-go}
OUT=${OUT:-results/BENCH_engine.json}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# run BENCH N -> "ns_per_op bytes_per_op allocs_per_op"
run() {
  $GO test -run '^$' -bench "^$1\$" -benchtime "$2"x \
    ./internal/sim/ | tee -a "$TMP/raw.txt" \
    | awk '/^BenchmarkEngine/ {print $3, $5, $7}'
}

echo "benchmarking dispatch at depth 4, 1e6 events..."
D=$(run BenchmarkEngineDispatch 1000000)
echo "benchmarking a 1,536-deep same-instant drain, 1,536,000 events..."
S=$(run BenchmarkEngineDrainSameInstant 1536000)

set -- $D; NSD=$1; BD=$2; AD=$3
set -- $S; NSS=$1; BS=$2; AS=$3

eps() { awk "BEGIN { printf \"%.0f\", 1e9 / $1 }"; }
EVD=$(eps "$NSD")
EVS=$(eps "$NSS")

mkdir -p "$(dirname "$OUT")"
cat > "$OUT" <<JSON
{
  "note": "sim.Engine at the queue depths the commands see. dispatch: schedule and fire one event per op at a steady depth of 4 (1 alloc/op, the scheduled Event). drain: fire from a 1,536-deep same-instant queue, timing only the firing, which must not allocate (also a hard test gate: TestEngineDispatchNoObserverZeroAlloc). Regenerate with 'make bench-engine'.",
  "recorded": "$(date -u +%Y-%m-%d)",
  "host": {
    "goos": "$($GO env GOOS)",
    "goarch": "$($GO env GOARCH)",
    "cores": $(getconf _NPROCESSORS_ONLN),
    "go": "$($GO env GOVERSION)"
  },
  "command": "go test -run '^\$' -bench '^BenchmarkEngine(Dispatch|DrainSameInstant)\$' -benchtime Nx ./internal/sim/",
  "runs": [
    {"case": "dispatch_depth4", "events": 1000000, "ns_per_op": $NSD, "events_per_s": $EVD, "bytes_per_op": $BD, "allocs_per_op": $AD},
    {"case": "drain_same_instant_1536", "events": 1536000, "ns_per_op": $NSS, "events_per_s": $EVS, "bytes_per_op": $BS, "allocs_per_op": $AS}
  ]
}
JSON

[ "$AD" = "1" ] && [ "$AS" = "0" ] || {
  echo "engine allocated $AD allocs/op at depth 4 (expected 1, the Event) and $AS firing a same-instant queue (expected 0)" >&2
  exit 1
}
echo "wrote $OUT (depth 4: $EVD events/s, same-instant drain: $EVS events/s)"
