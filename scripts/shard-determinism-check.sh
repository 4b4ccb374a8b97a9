#!/bin/sh
# shard-determinism-check.sh — the conservative-parallel runner's end-to-end
# byte-identity gate: one full-machine FWQ campaign (cmd/fwq sharded mode)
# run at -shards 1, 2 and 8 must write byte-identical result artifacts.
# Wall-clock numbers and the ops exposition are the only outputs allowed to
# differ — the deterministic artifact must not even carry the shard count.
# Each shard digests its nodes on max(1, GOMAXPROCS/shards) goroutines, so
# -shards 1 also runs under GOMAXPROCS=1 and 4 and must match.
#
# Usage: scripts/shard-determinism-check.sh [WORKDIR]
#   NODES=4096     simulated cluster size
#   MINUTES=0.05   FWQ duration in minutes
#   WORST=20       worst nodes re-run in full
set -eu

WORK=${1:-/tmp/mkos-shard-det}
GO=${GO:-go}
NODES=${NODES:-4096}
MINUTES=${MINUTES:-0.05}
WORST=${WORST:-20}

rm -rf "$WORK"
mkdir -p "$WORK"
$GO build -o "$WORK/fwq" ./cmd/fwq

for s in 1 2 8; do
  "$WORK/fwq" -shards "$s" -nodes "$NODES" -minutes "$MINUTES" -worst "$WORST" \
    -out "$WORK/machine-s$s.json" -ops-metrics "$WORK/ops-s$s.txt" \
    > "$WORK/stdout-s$s.txt"
done

for p in 1 4; do
  GOMAXPROCS=$p "$WORK/fwq" -shards 1 -nodes "$NODES" -minutes "$MINUTES" -worst "$WORST" \
    -out "$WORK/machine-s1-p$p.json" > "$WORK/stdout-s1-p$p.txt"
done

cmp "$WORK/machine-s1.json" "$WORK/machine-s2.json"
cmp "$WORK/machine-s1.json" "$WORK/machine-s8.json"
cmp "$WORK/machine-s1.json" "$WORK/machine-s1-p1.json"
cmp "$WORK/machine-s1.json" "$WORK/machine-s1-p4.json"

# The 8-shard run must actually have exercised the exchange: without
# cross-shard traffic the gate proves nothing.
cross=$(sed -n 's/^shardops_cross_messages_total \([0-9]*\)$/\1/p' "$WORK/ops-s8.txt")
[ -n "$cross" ] && [ "$cross" -gt 0 ] || {
  echo "8-shard run reported no cross-shard messages; gate is vacuous" >&2
  exit 1
}

echo "full-machine FWQ artifacts byte-identical at -shards 1, 2 and 8 and at -shards 1 under GOMAXPROCS=1 and 4 ($NODES nodes, $cross cross-shard messages at 8 shards)"
