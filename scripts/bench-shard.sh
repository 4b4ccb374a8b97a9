#!/bin/sh
# bench-shard.sh — records the full-machine sharded FWQ campaign into
# results/BENCH_shard.json: a 158,976-node Fugaku run (every node a
# discrete event, digests reduced in situ, worst nodes re-run for their
# exact iteration distribution) at -shards 1, 2 and 8, with wall time,
# user+sys CPU time, speedups over -shards 1, and the 8-shard runner's
# overhead counters (windows, cross-shard messages, barrier wait), then the
# same campaign under McKernel at -shards 1, whose quiet nodes leave the
# per-node engine, exchange and walk bookkeeping as its cost. The three
# Linux runs' deterministic artifacts are byte-compared as a side effect.
#
# Usage: scripts/bench-shard.sh [WORKDIR]
#   NODES=158976 MINUTES=0.1 WORST=100 OUT=results/BENCH_shard.json
set -eu

WORK=${1:-/tmp/mkos-bench-shard}
GO=${GO:-go}
NODES=${NODES:-158976}
MINUTES=${MINUTES:-0.1}
WORST=${WORST:-100}
OUT=${OUT:-results/BENCH_shard.json}

rm -rf "$WORK"
mkdir -p "$WORK"
$GO build -o "$WORK/fwq" ./cmd/fwq

ops_val() { sed -n "s/^$2 \(.*\)$/\1/p" "$WORK/ops-s$1.txt"; }

# child_cpu prints the user+sys CPU seconds of all waited-for children from
# a file holding the output of the POSIX times builtin. times must run in
# the script's own shell, not in a pipeline or command substitution, whose
# subshell would report its own children.
child_cpu() {
  awk 'function s(t) { sub(/s$/, "", t); split(t, a, "m"); return a[1] * 60 + a[2] }
       NR == 2 { printf "%.2f", s($1) + s($2) }' "$1"
}

for s in 1 2 8; do
  echo "full-machine FWQ: $NODES nodes, $MINUTES min, -shards $s..."
  times > "$WORK/times0-s$s.txt"
  t0=$(date +%s.%N)
  "$WORK/fwq" -shards "$s" -nodes "$NODES" -minutes "$MINUTES" -worst "$WORST" \
    -out "$WORK/machine-s$s.json" -ops-metrics "$WORK/ops-s$s.txt" \
    > "$WORK/stdout-s$s.txt"
  t1=$(date +%s.%N)
  times > "$WORK/times1-s$s.txt"
  eval "WALL$s=\$(awk \"BEGIN { printf \\\"%.2f\\\", $t1 - $t0 }\")"
  eval "CPU$s=\$(awk \"BEGIN { printf \\\"%.2f\\\", $(child_cpu "$WORK/times1-s$s.txt") - $(child_cpu "$WORK/times0-s$s.txt") }\")"
done

echo "full-machine FWQ: $NODES nodes, $MINUTES min, -os mckernel -shards 1..."
times > "$WORK/times0-mck.txt"
t0=$(date +%s.%N)
"$WORK/fwq" -os mckernel -shards 1 -nodes "$NODES" -minutes "$MINUTES" -worst "$WORST" \
  -out "$WORK/machine-mck.json" > "$WORK/stdout-mck.txt"
t1=$(date +%s.%N)
times > "$WORK/times1-mck.txt"
WALLMCK=$(awk "BEGIN { printf \"%.2f\", $t1 - $t0 }")
CPUMCK=$(awk "BEGIN { printf \"%.2f\", $(child_cpu "$WORK/times1-mck.txt") - $(child_cpu "$WORK/times0-mck.txt") }")

cmp "$WORK/machine-s1.json" "$WORK/machine-s2.json"
cmp "$WORK/machine-s1.json" "$WORK/machine-s8.json"

WINDOWS=$(ops_val 8 shardops_windows_total)
CROSS=$(ops_val 8 shardops_cross_messages_total)
MSGS=$(ops_val 8 shardops_messages_total)
BARRIER_US=$(ops_val 8 shardops_barrier_wait_us_sum)
SPEEDUP2=$(awk "BEGIN { printf \"%.2f\", $WALL1 / $WALL2 }")
SPEEDUP8=$(awk "BEGIN { printf \"%.2f\", $WALL1 / $WALL8 }")
ITERS=$(sed -n 's/^ *"n": \([0-9]*\),$/\1/p' "$WORK/machine-s1.json" | head -n 1)

mkdir -p "$(dirname "$OUT")"
cat > "$OUT" <<EOF
{
  "note": "cmd/fwq sharded full-machine campaign on the Fugaku preset: one digest event per node, in-situ worst-$WORST selection at the collector, re-run of the selected nodes. cpu_s is the run's user+sys CPU time. 'runs' are Linux; 'mckernel' is the same campaign under McKernel at -shards 1. The Linux -shards 1, 2 and 8 artifacts are byte-compared by this script (and by 'make shard-determinism' / CI on every push). Each shard digests its nodes on max(1, cores/shards) goroutines, so -shards 1 already uses every core and more shards mainly add windows and cross-shard traffic. Regenerate with 'make bench-shard'.",
  "recorded": "$(date -u +%Y-%m-%d)",
  "host": {
    "goos": "$($GO env GOOS)",
    "goarch": "$($GO env GOARCH)",
    "cores": $(getconf _NPROCESSORS_ONLN),
    "go": "$($GO env GOVERSION)"
  },
  "config": {
    "platform": "fugaku",
    "nodes": $NODES,
    "fwq_minutes": $MINUTES,
    "work_us": 6500,
    "worst_rerun": $WORST,
    "total_iterations": $ITERS
  },
  "runs": [
    {"shards": 1, "wall_s": $WALL1, "cpu_s": $CPU1},
    {"shards": 2, "wall_s": $WALL2, "cpu_s": $CPU2},
    {"shards": 8, "wall_s": $WALL8, "cpu_s": $CPU8, "windows": $WINDOWS,
     "cross_messages": $CROSS, "messages": $MSGS,
     "barrier_wait_us_total": $BARRIER_US}
  ],
  "mckernel": {"shards": 1, "wall_s": $WALLMCK, "cpu_s": $CPUMCK},
  "speedup_s2_over_s1": $SPEEDUP2,
  "speedup_s8_over_s1": $SPEEDUP8,
  "determinism": "machine-s1.json byte-identical to machine-s2.json and machine-s8.json"
}
EOF
echo "wrote $OUT (s1 ${WALL1}s/${CPU1}s cpu, s2 ${WALL2}s, s8 ${WALL8}s; speedup s2 ${SPEEDUP2}x, s8 ${SPEEDUP8}x; mckernel s1 ${WALLMCK}s/${CPUMCK}s cpu)"
