GO ?= go
J ?= 0
SWEEP_SPEC ?= specs/ci-sweep.json

.PHONY: all build fmt vet lint lint-fix lint-fix-clean deadcode bench-roots test race check determinism golden sweep sweep-race sweep-determinism sweep-interrupt bench-sweep simd-race simd-chaos simd-supervise simd-load simd-obs shard-race shard-determinism bench-engine bench-shard bench-models

all: check

build:
	$(GO) build ./...

# fmt fails when any file is not gofmt-clean (CI gate).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs simlint, the bespoke determinism-and-invariant multichecker
# (forbidden, maporder, simtime, lockguard, ctxflow, opstaint — see
# internal/lint/README.md). Exits 1 on any finding;
# suppress a justified one with //simlint:allow <check> — <reason>,
# except a forbidden finding, whose exceptions are rows of its table.
lint:
	$(GO) run ./cmd/simlint ./...

# lint-fix applies every suggested fix (stale Now() captures, minted
# Background contexts), rewrites the files in place, then re-lints.
# Findings without a fix still exit 1 — whether one wants a sorted-key
# fold, an engine-clock read or a reasoned suppression is a judgment call
# the diagnostics inform but don't make.
lint-fix:
	$(GO) run ./cmd/simlint -fix ./...

# lint-fix-clean is the CI fixed-point gate: the committed tree must be
# unchanged under simlint -fix, so no finding in history is one autofix
# away from different code.
lint-fix-clean:
	$(GO) run ./cmd/simlint -fix ./... || true
	git diff --exit-code

# deadcode fails on any non-test function in internal/, cmd/ or examples/
# that no root links (every cmd/* and examples/* binary, _perfbench, and
# the root package's benchmarks) unless scripts/deadcode.allow lists it
# with the reason it is kept.
deadcode:
	sh scripts/deadcode.sh

# bench-roots runs each ablation, isolation and MPI benchmark in
# bench_test.go once, so the code only they reach executes under CI.
bench-roots:
	$(GO) test -run '^$$' -bench 'Ablation|IsolationColocation|MPICollectives' -benchtime 1x .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# sweep runs the declarative campaign in SWEEP_SPEC over J workers (0 = all
# cores), caching trial results in .sweepcache so re-runs execute only
# changed trials. Artifacts land in sweep-out/.
sweep:
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j $(J) -cache-dir .sweepcache -outdir sweep-out

# sweep-race runs the orchestrator's own tests under the race detector.
sweep-race:
	$(GO) test -race ./internal/sweep/...

# sweep-determinism asserts the subsystem's contract end to end: a parallel
# cached run, a serial uncached run and a warm-cache re-run must produce
# byte-identical results.json and metrics.txt, and the warm re-run must
# execute zero trials.
sweep-determinism:
	rm -rf /tmp/mkos-sweep-cache /tmp/mkos-sweep-j8 /tmp/mkos-sweep-j1 /tmp/mkos-sweep-warm
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j 8 -cache-dir /tmp/mkos-sweep-cache -outdir /tmp/mkos-sweep-j8
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j 1 -outdir /tmp/mkos-sweep-j1
	$(GO) run ./cmd/sweep -spec $(SWEEP_SPEC) -j 8 -cache-dir /tmp/mkos-sweep-cache -outdir /tmp/mkos-sweep-warm \
		| tee /tmp/mkos-sweep-warm-summary.txt
	grep -q ": 0 executed," /tmp/mkos-sweep-warm-summary.txt
	cmp /tmp/mkos-sweep-j8/results.json /tmp/mkos-sweep-j1/results.json
	cmp /tmp/mkos-sweep-j8/metrics.txt /tmp/mkos-sweep-j1/metrics.txt
	cmp /tmp/mkos-sweep-j8/results.json /tmp/mkos-sweep-warm/results.json
	cmp /tmp/mkos-sweep-j8/metrics.txt /tmp/mkos-sweep-warm/metrics.txt
	@echo "sweep artifacts byte-identical at -j 8, -j 1 and from warm cache (0 trials executed)"

# sweep-interrupt asserts the crash-safe resume contract end to end: SIGINT a
# running campaign, re-run it with the same cache dir, and require zero
# re-executed trials plus artifacts byte-identical to an uninterrupted run.
sweep-interrupt:
	sh scripts/interrupt-resume-check.sh $(SWEEP_SPEC) /tmp/mkos-interrupt-check

# bench-sweep records the orchestrator's scaling benchmarks (serial vs -j N).
bench-sweep:
	$(GO) test -run '^$$' -bench BenchmarkCampaign -benchtime 3x ./internal/sweep/

# simd-race runs the campaign daemon and chaos-injector tests under the race
# detector (also part of the full `race` target).
simd-race:
	$(GO) test -race ./internal/simd/... ./internal/fault/chaos/...

# simd-chaos is the daemon crash-tolerance gate: SIGKILL the daemon
# mid-campaign, restart it on the same store, and require a resume with zero
# re-executed trials, artifacts byte-identical to a never-crashed CLI run,
# and a clean SIGTERM drain afterwards.
simd-chaos:
	sh scripts/simd-chaos-check.sh $(SWEEP_SPEC) /tmp/mkos-simd-chaos

# simd-supervise is the worker-supervision gate: SIGKILL the supervised
# worker process twice mid-campaign (daemon stays up) and require
# completion with zero re-executed trials and byte-identical artifacts;
# then a poison campaign whose worker dies on every spawn must trip the
# crash-loop breaker while a concurrent healthy campaign completes.
simd-supervise:
	sh scripts/simd-supervise-check.sh specs/simd-supervise.json /tmp/mkos-simd-supervise

# simd-load floods the daemon — 200 clients submitting one identical tiny
# campaign (must collapse to one execution), then 60 distinct campaigns
# against a tiny queue (overflow must be refused and accounted) — and
# regenerates results/BENCH_simd.json.
simd-load:
	sh scripts/simd-load-smoke.sh specs/simd-smoke.json /tmp/mkos-simd-load

# simd-obs is the observability smoke: one campaign through simctl run must
# yield structured JSON logs with request/campaign ids, a valid Prometheus
# exposition whose counters match the campaign, a complete SSE replay via
# simctl tail, and a causally-parented ops trace at /v1/trace.
simd-obs:
	sh scripts/simd-obs-check.sh $(SWEEP_SPEC) /tmp/mkos-simd-obs

# shard-race runs the conservative-parallel runner and its clients under
# the race detector (also part of the full `race` target).
shard-race:
	$(GO) test -race ./internal/shard/... ./internal/apps/ ./internal/cluster/ ./internal/interconnect/

# shard-determinism is the sharded runner's end-to-end gate: a full-machine
# FWQ campaign at -shards 1, 2 and 8, and at -shards 1 under GOMAXPROCS=1
# and 4, must write byte-identical artifacts, and the 8-shard run must
# carry real cross-shard traffic.
shard-determinism:
	sh scripts/shard-determinism-check.sh /tmp/mkos-shard-det

# bench-engine records engine dispatch (events/s, B/op, allocs/op) at a
# steady depth of 4 and from a 1,536-deep same-instant queue into
# results/BENCH_engine.json.
bench-engine:
	sh scripts/bench-engine.sh

# bench-models records the model-kernel benchmarks (buddy allocator, BSP
# step noise, Figure 7 points, noise generator node, lognormal draw) with
# repro -quick wall and CPU times and internal/core wall
# times into results/BENCH_models.json. BASE=<parent checkout> adds the
# before side, the speedups and a byte-identity check of repro -quick.
bench-models:
	sh scripts/bench-models.sh

# bench-shard records the 158,976-node full-machine sharded FWQ run
# (wall and user+sys CPU time at -shards 1, 2 and 8, window/barrier/
# cross-shard overhead, and a McKernel run at -shards 1) into
# results/BENCH_shard.json.
bench-shard:
	sh scripts/bench-shard.sh

# determinism runs the fault-injection sweep twice with telemetry artifacts
# enabled and fails on any byte difference — the metrics dump and trace JSON
# must be identical for identical seeds.
determinism:
	$(GO) run ./cmd/faultexp -jobs 2 -nodes 4 -report=false \
		-trace /tmp/mkos-det-1.json -metrics /tmp/mkos-det-1.txt > /dev/null
	$(GO) run ./cmd/faultexp -jobs 2 -nodes 4 -report=false \
		-trace /tmp/mkos-det-2.json -metrics /tmp/mkos-det-2.txt > /dev/null
	cmp /tmp/mkos-det-1.json /tmp/mkos-det-2.json
	cmp /tmp/mkos-det-1.txt /tmp/mkos-det-2.txt
	@echo "telemetry artifacts byte-identical across runs"

# golden regenerates results/ and checks it, at GOMAXPROCS=1 and 4: the
# paper-scale repro (under a 1 GiB ulimit -v) must write every committed
# results/*.txt byte for byte, and the paper-scale fwq_machine.json, every
# file of the repro -quick -metrics outdir and the ci-sweep results.json
# and metrics.txt must match results/golden.sha256, with no file left over.
golden:
	sh scripts/golden-check.sh /tmp/mkos-golden

# check is what CI runs: formatting, vet, the simlint invariant gate, the
# reachability gate, build, one run of the benchmark roots, the full suite
# under the race detector, the determinism and golden gates, and the daemon
# chaos/load gates.
check: fmt vet lint deadcode build bench-roots race determinism golden sweep-determinism sweep-interrupt simd-chaos simd-supervise simd-load simd-obs shard-determinism
