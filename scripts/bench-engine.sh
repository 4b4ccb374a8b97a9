#!/bin/sh
# bench-engine.sh — records raw sim.Engine dispatch throughput into
# results/BENCH_engine.json: the schedule+fire path at exactly
# 1e6 and 1e7 events (fixed -benchtime Nx so the numbers are comparable
# across hosts and commits), with B/op and allocs/op, which must stay 0.
#
# Usage: scripts/bench-engine.sh
#   OUT=results/BENCH_engine.json
set -eu

GO=${GO:-go}
OUT=${OUT:-results/BENCH_engine.json}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# run N -> "ns_per_op bytes_per_op allocs_per_op"
run() {
  $GO test -run '^$' -bench BenchmarkEngineDispatch -benchtime "$1"x \
    ./internal/sim/ | tee -a "$TMP/raw.txt" \
    | awk '/^BenchmarkEngine/ {print $3, $5, $7}'
}

echo "benchmarking engine dispatch at 1e6 events..."
M1=$(run 1000000)
echo "benchmarking engine dispatch at 1e7 events..."
M10=$(run 10000000)

set -- $M1;  NS1=$1;  B1=$2;  A1=$3
set -- $M10; NS10=$1; B10=$2; A10=$3

eps() { awk "BEGIN { printf \"%.0f\", 1e9 / $1 }"; }
EV1=$(eps "$NS1")
EV10=$(eps "$NS10")

mkdir -p "$(dirname "$OUT")"
cat > "$OUT" <<EOF
{
  "note": "sim.Engine dispatch (pop + fire one event) at fixed event counts. B/op and allocs/op must be 0: the zero-alloc property is also a hard test gate (TestEngineDispatchNoObserverZeroAlloc). Regenerate with 'make bench-engine'.",
  "recorded": "$(date -u +%Y-%m-%d)",
  "host": {
    "goos": "$($GO env GOOS)",
    "goarch": "$($GO env GOARCH)",
    "cores": $(getconf _NPROCESSORS_ONLN),
    "go": "$($GO env GOVERSION)"
  },
  "command": "go test -run '^\$' -bench BenchmarkEngineDispatch -benchtime Nx ./internal/sim/",
  "runs": [
    {"events": 1000000, "ns_per_op": $NS1, "events_per_s": $EV1, "bytes_per_op": $B1, "allocs_per_op": $A1},
    {"events": 10000000, "ns_per_op": $NS10, "events_per_s": $EV10, "bytes_per_op": $B10, "allocs_per_op": $A10}
  ]
}
EOF

[ "$A1" = "0" ] && [ "$A10" = "0" ] || {
  echo "engine dispatch allocated ($A1 / $A10 allocs/op); expected 0" >&2
  exit 1
}
echo "wrote $OUT (1e6: $EV1 events/s, 1e7: $EV10 events/s)"
