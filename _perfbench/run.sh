#!/usr/bin/env bash
# Builds the benchmark and cmd/simd from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, daemon stores, traces) stays under .bench_build/ there.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f _perfbench/go.mod ]; then
	echo "perfbench: run from the root of a mkos checkout (go.mod, internal/ and _perfbench/ needed)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off GOWORK=off

(cd _perfbench && go build -o "$build/perfbench-bin" .)
go build -o "$build/simd" ./cmd/simd

exec "$build/perfbench-bin" -simd "$build/simd" "$@"
