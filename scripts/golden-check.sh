#!/bin/sh
# golden-check.sh — the golden gate (make golden): regenerate every
# deterministic artifact and compare it with what results/ commits.
#
# At GOMAXPROCS=1 and at GOMAXPROCS=4 it runs, in WORKDIR/pN:
#   repro -j 2 -outdir repro               (paper scale, under ulimit -v 1048576)
#   repro -quick -j 2 -outdir repro-quick -metrics repro-quick/metrics.txt
#   sweep -spec specs/ci-sweep.json -j 2 -outdir ci-sweep
# and fails unless
#   - every committed results/*.txt cmps equal to the file of the same name
#     in repro/ (so paper-scale Table 2 fits in 1 GiB of address space, and
#     Figure 7 does not depend on GOMAXPROCS);
#   - every entry of results/golden.sha256 matches (sha256sum -c);
#   - repro/ and repro-quick/ hold no file that neither results/*.txt nor
#     the manifest names.
# On a failure it prints the digests of the run, for a change that moves an
# output on purpose to copy into the manifest in the same commit.
#
# Usage: scripts/golden-check.sh [WORKDIR]
set -eu

WORK=${1:-/tmp/mkos-golden}
GO=${GO:-go}
ROOT=$(pwd)
MANIFEST=$ROOT/results/golden.sha256

rm -rf "$WORK"
mkdir -p "$WORK/bin"
$GO build -o "$WORK/bin/repro" ./cmd/repro
$GO build -o "$WORK/bin/sweep" ./cmd/sweep

fail() {
  echo "FAIL: $*" >&2
  (cd "$WORK/p$p" && find repro repro-quick ci-sweep -type f ! -name ops.txt | sort | xargs sha256sum) >&2 || true
  exit 1
}

for p in 1 4; do
  d=$WORK/p$p
  mkdir -p "$d/repro-quick"
  echo "golden: GOMAXPROCS=$p paper-scale repro..."
  (ulimit -v 1048576 && GOMAXPROCS=$p "$WORK/bin/repro" -j 2 -outdir "$d/repro") >"$d/repro.stdout"
  echo "golden: GOMAXPROCS=$p repro -quick..."
  GOMAXPROCS=$p "$WORK/bin/repro" -quick -j 2 -outdir "$d/repro-quick" \
    -metrics "$d/repro-quick/metrics.txt" >"$d/repro-quick.stdout"
  echo "golden: GOMAXPROCS=$p ci-sweep..."
  GOMAXPROCS=$p "$WORK/bin/sweep" -spec specs/ci-sweep.json -j 2 -outdir "$d/ci-sweep" \
    >"$d/ci-sweep.stdout" 2>/dev/null

  for f in results/*.txt; do
    cmp "$f" "$d/repro/$(basename "$f")" || fail "GOMAXPROCS=$p: repro's $(basename "$f") differs from $f"
  done
  (cd "$d" && sha256sum -c --quiet "$MANIFEST") || fail "GOMAXPROCS=$p: results/golden.sha256 does not match"
  # The files each outdir may hold: the committed ones and the manifest's.
  { for f in results/*.txt; do echo "repro/$(basename "$f")"; done
    grep -v '^#' "$MANIFEST" | awk '{ print $2 }'; } | sort >"$d/allowed"
  (cd "$d" && find repro repro-quick -type f | sort) >"$d/present"
  extra=$(comm -13 "$d/allowed" "$d/present")
  [ -z "$extra" ] || fail "GOMAXPROCS=$p: files no manifest entry names: $extra"
done
echo "golden: results/*.txt and results/golden.sha256 match at GOMAXPROCS=1 and 4"
