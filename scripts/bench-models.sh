#!/bin/sh
# bench-models.sh — records the model-kernel benchmarks into
# results/BENCH_models.json: the buddy allocator (round trip and an
# OFP-node-sized fill-then-drain), the BSP per-step noise sampler, a BSP run,
# the Figure 7 points, one Fugaku node's noise timeline (Linux and McKernel),
# a 1,536-node full-machine FWQ campaign (Linux and McKernel) and one
# lognormal draw (go test -bench, 5 runs, median ns/op and allocs/op), plus
# `repro -quick` wall and CPU (user+sys) time at -j 1 and -j 2 and `go test
# ./internal/core` wall time (3 runs each, median).
#
# With BASE set to another checkout (for example the parent commit, made
# with `git archive`), the same measurements run there too and are
# recorded as "before", the speedups are computed, and the script fails
# unless both trees' `repro -quick -metrics` outdirs are byte-identical at
# -j 1 and at -j 2. The benchmarks must exist in BASE under the same names.
# The two trees take turns, round by round and in alternating order, so a
# change in the host's load over the run falls on both sides alike.
#
# Usage: scripts/bench-models.sh
#   OUT=results/BENCH_models.json BASE=/path/to/parent-checkout
set -eu

GO=${GO:-go}
OUT=${OUT:-results/BENCH_models.json}
BASE=${BASE:-}
COUNT=5
REPEAT=3
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# The benchmarks, one "<package> <-bench regexp>" line per package.
BENCHES='. ^Benchmark(BuddyAllocFree|BuddyFillDrain|BSPStep|Figure7)$
./internal/bsp ^BenchmarkStepNoise$
./internal/noise ^BenchmarkGeneratorNode$
./internal/apps ^BenchmarkFWQMachine$
./internal/sim ^BenchmarkLogNormal$'

now() { date +%s.%N; }
since() { awk "BEGIN { printf \"%.2f\", $(now) - $1 }"; }
# cpu_between A B: the user+sys seconds between two `times` dumps, the
# children's line of each (`times` must run in this shell, not in $(...),
# to see the children this shell waited for).
cpu_between() {
  awk 'FNR == 2 { split($1, u, /[ms]/); split($2, s, /[ms]/); t[FILENAME] = u[1] * 60 + u[2] + s[1] * 60 + s[2] }
    END { printf "%.2f", t[ARGV[2]] - t[ARGV[1]] }' "$1" "$2"
}
median() { printf '%s\n' "$@" | sort -g | awk '{ a[NR] = $1 } END {
  if (NR % 2) print a[(NR + 1) / 2]; else printf "%.2f\n", (a[NR / 2] + a[NR / 2 + 1]) / 2 }'; }

# binname PKG: the file name of PKG's test binary.
binname() { echo "$1" | tr ./ __; }

# build DIR LABEL: DIR's benchmark test binaries and repro binary, in $TMP.
build() {
  echo "[$2] building in $1..."
  echo "$BENCHES" | while read -r pkg re; do
    (cd "$1" && $GO test -c -o "$TMP/$2-$(binname "$pkg").test" "$pkg")
  done
  (cd "$1" && $GO build -o "$TMP/repro-$2" ./cmd/repro)
}

# bench_round DIR LABEL: one -count 1 pass of every benchmark, appended to
# $TMP/LABEL.bench.
bench_round() {
  echo "[$2] benchmarks in $1..."
  echo "$BENCHES" | while read -r pkg re; do
    (cd "$1/$pkg" && "$TMP/$2-$(binname "$pkg").test" -test.run '^$' -test.bench "$re" -test.benchmem -test.count 1)
  done >>"$TMP/$2.bench"
}

# times_round DIR LABEL: one timed repro -quick at -j 1 and at -j 2 (wall
# and CPU) and one go test ./internal/core, appended to $TMP/LABEL.times as
# "name seconds" lines; the repro outdirs are left in $TMP/LABEL-jN.
times_round() {
  for j in 1 2; do
    echo "[$2] repro -quick -j $j..."
    rm -rf "$TMP/$2-j$j"
    mkdir -p "$TMP/$2-j$j"
    t0=$(now)
    times >"$TMP/cpu0"
    "$TMP/repro-$2" -quick -j "$j" -outdir "$TMP/$2-j$j" -metrics "$TMP/$2-j$j/metrics.txt" >/dev/null 2>&1
    times >"$TMP/cpu1"
    echo "repro_j$j $(since "$t0")" >>"$TMP/$2.times"
    echo "repro_cpu_j$j $(cpu_between "$TMP/cpu0" "$TMP/cpu1")" >>"$TMP/$2.times"
  done
  echo "[$2] go test ./internal/core..."
  t0=$(now)
  (cd "$1" && $GO test -count=1 ./internal/core >/dev/null)
  echo "core_test $(since "$t0")" >>"$TMP/$2.times"
}

# rounds N STEP: N rounds of STEP over the trees, the order of the trees
# reversed every other round.
rounds() {
  i=0
  while [ "$i" -lt "$1" ]; do
    order=$LABELS
    if [ $((i % 2)) = 1 ]; then order=$(echo "$LABELS" | awk '{ for (k = NF; k > 0; k--) printf "%s ", $k }'); fi
    for label in $order; do
      "$2" "$(dir_of "$label")" "$label"
    done
    i=$((i + 1))
  done
}

# values LABEL NAME: the recorded samples of one benchmark (ns/op) or timing.
values() {
  case $2 in
  Benchmark*) awk -v n="$2" '{ sub(/-[0-9]+$/, "", $1) } $1 == n { print $3 }' "$TMP/$1.bench" ;;
  *) awk -v n="$2" '$1 == n { print $2 }' "$TMP/$1.times" ;;
  esac
}

# memstat LABEL NAME UNIT: median of the value reported with UNIT (B/op or
# allocs/op); benchmarks that report their own metrics shift the columns.
memstat() {
  median $(awk -v n="$2" -v u="$3" '{ sub(/-[0-9]+$/, "", $1) }
    $1 == n { for (i = 4; i <= NF; i++) if ($i == u) print $(i - 1) }' "$TMP/$1.bench")
}

names() {
  awk '/^Benchmark/ { sub(/-[0-9]+$/, "", $1); if (!seen[$1]++) print $1 }' "$TMP/$1.bench"
}

# emit LABEL: one JSON object with every benchmark's and timing's samples
# and median.
emit() {
  echo "    \"benchmarks_ns_per_op\": {"
  sep=""
  for n in $(names "$1"); do
    v=$(values "$1" "$n")
    printf '%s      "%s": {"median": %s, "bytes_per_op": %s, "allocs_per_op": %s, "runs": [%s]}' \
      "$sep" "$n" "$(median $v)" "$(memstat "$1" "$n" B/op)" "$(memstat "$1" "$n" allocs/op)" "$(echo $v | tr ' ' ',')"
    sep=",
"
  done
  printf '\n    },\n    "wall_s": {\n'
  timings "$1" repro_j1 repro_j2 core_test
  printf '\n    },\n    "cpu_s": {\n'
  timings "$1" repro_cpu_j1 repro_cpu_j2
  printf '\n    }'
}

# timings LABEL NAME...: each timing's samples and median, as JSON members.
timings() {
  label=$1
  shift
  sep=""
  for n in "$@"; do
    v=$(values "$label" "$n")
    printf '%s      "%s": {"median": %s, "runs": [%s]}' "$sep" "$n" "$(median $v)" "$(echo $v | tr ' ' ',')"
    sep=",
"
  done
}

# ratio NAME: before median / after median.
ratio() {
  awk "BEGIN { printf \"%.2f\", $(median $(values before "$1")) / $(median $(values after "$1")) }"
}

LABELS=after
if [ -n "$BASE" ]; then
  LABELS="before after"
fi
dir_of() { if [ "$1" = before ]; then echo "$BASE"; else echo .; fi; }
for label in $LABELS; do
  build "$(dir_of "$label")" "$label"
  : >"$TMP/$label.bench"
  : >"$TMP/$label.times"
done
rounds "$COUNT" bench_round
rounds "$REPEAT" times_round

if [ -n "$BASE" ]; then
  for j in 1 2; do
    diff -r "$TMP/before-j$j" "$TMP/after-j$j" >/dev/null || {
      echo "repro -quick -j $j outdirs differ between $BASE and this tree" >&2
      exit 1
    }
  done
  echo "repro -quick -metrics outdirs byte-identical to $BASE at -j 1 and -j 2"
fi

mkdir -p "$(dirname "$OUT")"
{
  echo "{"
  echo "  \"note\": \"Model-kernel benchmarks: go test -bench medians over $COUNT rounds of -count 1 (ns/op, B/op, allocs/op), wall-time medians over $REPEAT rounds of repro -quick at -j 1/-j 2 and of go test -count=1 ./internal/core, and CPU-time (user+sys) medians of the same repro runs; with a before side the two trees alternate round by round. Speedups are before/after medians. Regenerate with 'make bench-models' (BASE=<parent checkout> for the before side).\","
  echo "  \"recorded\": \"$(date -u +%Y-%m-%d)\","
  echo "  \"host\": {\"goos\": \"$($GO env GOOS)\", \"goarch\": \"$($GO env GOARCH)\", \"cores\": $(getconf _NPROCESSORS_ONLN), \"go\": \"$($GO env GOVERSION)\"},"
  if [ -n "$BASE" ]; then
    echo "  \"before\": {"
    echo "    \"tree\": \"$BASE\","
    emit before
    echo
    echo "  },"
  fi
  echo "  \"after\": {"
  emit after
  echo
  if [ -n "$BASE" ]; then
    echo "  },"
    echo "  \"speedup\": {"
    sep=""
    for n in $(names after) repro_j1 repro_j2 repro_cpu_j1 repro_cpu_j2 core_test; do
      if [ -n "$(values before "$n")" ]; then
        printf '%s    "%s": %s' "$sep" "$n" "$(ratio "$n")"
        sep=",
"
      fi
    done
    echo
  fi
  echo "  }"
  echo "}"
} >"$OUT"
echo "wrote $OUT"
