// Command perfbench is the repository's outside-in benchmark. It imports the
// simulator's layers, generates every input from -seed, times calls into the
// layers from outside, checks every output, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash _perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// --trace 0 is the timed run and reports the end-to-end metrics; --trace 1
// is a separate traced run that reports the per-layer metrics and writes a
// Chrome trace. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the timed run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_p50_ms", "ms"},
	{"unit_tail_ms", "ms"},
}

// perLayer are the metrics of the traced run (--trace 1). Every workload
// reports all of them; a layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"cluster.machine_builds", "count"},
	{"cluster.machine_build_ms", "ms"},
	{"cluster.machinefwq_setup_ms", "ms"},
	{"bsp.runs", "count"},
	{"bsp.node_steps", "count"},
	{"bsp.run_ms", "ms"},
	{"bsp.self_ms", "ms"},
	{"noise.timelines", "count"},
	{"noise.timeline_ms", "ms"},
	{"noise.advance_ms", "ms"},
	{"apps.sim_iterations", "count"},
	{"apps.rerun_worst_ms", "ms"},
	{"apps.self_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"shard.windows", "count"},
	{"shard.run_ms", "ms"},
	{"sweep.trials", "count"},
	{"sweep.overhead_ms", "ms"},
	{"sweep.busy_frac", "frac"},
	{"sweep.self_ms", "ms"},
	{"simd.submit_ms", "ms"},
	{"simd.queue_ms", "ms"},
	{"simd.exec_ms", "ms"},
	{"simd.overhead_ms", "ms"},
	{"simd.results_ms", "ms"},
	{"simd.deduped", "count"},
	{"simd.executed", "count"},
	{"simd.restarts", "count"},
	{"simd.admitted", "count"},
	{"host.steal_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.cpu_overhead_frac", "frac"},
	{"trace.span_coverage", "frac"},
	{"process.peak_rss_mb", "MB"},
}

// setupReps is how many times the timed run sets up; setup_s is the median.
const setupReps = 5

// workload is one benchmark workload. Implementations generate their inputs
// in setUp from the seed they were built with.
type workload interface {
	// setUp generates the inputs, starts the system under test (replacing
	// any earlier one) and runs one untimed warm-up unit.
	setUp(ctx context.Context) error
	// units is the number of timed units.
	units() int
	// run executes unit i. tr is nil in the timed run; the traced run
	// passes a tracer and records spans around each layer call.
	run(ctx context.Context, i int, tr *tracer) error
	// check verifies the outputs of the last pass and returns the units
	// whose output is wrong. Given a tracer it also runs the traced-only
	// checks and fills layers with per-layer metrics.
	check(ctx context.Context, tr *tracer, layers map[string]float64) map[int]error
	// cpu returns the CPU time used so far by the system under test and,
	// when that is another process, by this benchmark as its client.
	cpu() (sut, client time.Duration, err error)
	// stop shuts the system under test down and returns its peak RSS.
	stop() (peakRSSMB float64, err error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stateDir holds everything the benchmark writes: stores, traces and the
// host-noise record. It lies inside the build directory the run script
// uses, so it is never committed.
const stateDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "", "workload: figures, fwq_machine or service")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "intended length of the timed phase; sets the amount of work")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	simdBin := flag.String("simd", "", "path to a built cmd/simd (service workload)")
	flag.Parse()

	w, err := newWorkload(*name, *seed, *seconds, *simdBin)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var res *result
	if *traced == 1 {
		res, err = tracedRun(ctx, w, *name, *seed)
	} else {
		res, err = timedRun(ctx, w, *name, *seed)
	}
	if err != nil {
		fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func newWorkload(name string, seed int64, seconds int, simdBin string) (workload, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	switch name {
	case "figures":
		return newFigures(seed, seconds), nil
	case "fwq_machine":
		return newFWQMachine(seed, seconds), nil
	case "service":
		if simdBin == "" {
			return nil, errors.New("service workload needs -simd (run.sh builds it)")
		}
		return newService(seed, seconds, simdBin), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, fwq_machine or service)", name)
}

// pass is one sweep over every unit.
type pass struct {
	wall    time.Duration
	sut     time.Duration // CPU of the system under test
	lat     []float64     // per-unit latency, ms
	errs    map[int]error
	noise   hostNoise
	stealOK bool
}

func runPass(ctx context.Context, w workload, tr *tracer) (pass, error) {
	p := pass{lat: make([]float64, w.units()), errs: map[int]error{}}
	if err := resetPeakRSS(); err != nil {
		return p, err
	}
	h0, herr := readHost()
	sut0, cl0, err := w.cpu()
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	for i := range p.lat {
		// Each unit starts from a collected heap, so the garbage one unit
		// leaves does not decide when the next one collects. The collection
		// stays inside wall_s and cpu_s, outside the unit's latency.
		runtime.GC()
		u0 := time.Now()
		if err := w.run(ctx, i, tr); err != nil {
			p.errs[i] = err
		}
		p.lat[i] = ms(time.Since(u0))
	}
	p.wall = time.Since(t0)
	sut1, cl1, err := w.cpu()
	if err != nil {
		return p, err
	}
	p.sut = sut1 - sut0
	if h1, err := readHost(); err == nil && herr == nil {
		p.noise, p.stealOK = noiseBetween(h0, h1, p.sut+cl1-cl0), true
	}
	return p, nil
}

// merge adds the check failures to the pass's run failures.
func (p *pass) merge(errs map[int]error) {
	for i, err := range errs {
		if _, dup := p.errs[i]; !dup {
			p.errs[i] = err
		}
	}
}

func timedRun(ctx context.Context, w workload, name string, seed int64) (*result, error) {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := w.setUp(ctx); err != nil {
			w.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p, err := runPass(ctx, w, nil)
	if err != nil {
		w.stop()
		return nil, err
	}
	p.merge(w.check(ctx, nil, nil))
	if _, err := w.stop(); err != nil {
		return nil, err
	}
	n := len(p.lat)
	tailV, _, _ := tail(p.lat)
	m := map[string]float64{
		"wall_s":       p.wall.Seconds(),
		"cpu_s":        p.sut.Seconds(),
		"setup_s":      median(setups),
		"units_per_s":  float64(n-len(p.errs)) / p.wall.Seconds(),
		"unit_p50_ms":  median(p.lat),
		"unit_tail_ms": tailV,
	}
	report(name, seed, false, p, m, endToEnd)
	return newResult(p, m, endToEnd), nil
}

func tracedRun(ctx context.Context, w workload, name string, seed int64) (*result, error) {
	if err := w.setUp(ctx); err != nil {
		w.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := runPass(ctx, w, nil)
	if err != nil {
		w.stop()
		return nil, err
	}
	if err := w.setUp(ctx); err != nil {
		w.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	p, err := runPass(ctx, w, tr)
	if err != nil {
		w.stop()
		return nil, err
	}
	p.merge(plain.errs)
	layers := map[string]float64{}
	p.merge(w.check(ctx, tr, layers))
	rss, err := w.stop()
	if err != nil {
		return nil, err
	}
	layers["process.peak_rss_mb"] = rss
	layers["host.steal_frac"] = p.noise.StealFrac
	layers["trace.overhead_frac"] = p.wall.Seconds()/plain.wall.Seconds() - 1
	layers["trace.cpu_overhead_frac"] = p.sut.Seconds()/plain.sut.Seconds() - 1
	path := filepath.Join(stateDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: chrome trace of %d spans in %s; traced pass %.2fs vs untraced %.2fs\n",
		len(tr.spans), path, p.wall.Seconds(), plain.wall.Seconds())
	report(name, seed, true, p, layers, perLayer)
	return newResult(p, layers, perLayer), nil
}

func newResult(p pass, values map[string]float64, defs []metricDef) *result {
	r := &result{
		Correct: len(p.errs) == 0, Attempted: len(p.lat), Failed: len(p.errs),
		Metrics: map[string]metric{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// report prints the human-readable summary and the failures to stderr and
// appends the run's host-noise record to the state directory.
func report(name string, seed int64, traced bool, p pass, values map[string]float64, defs []metricDef) {
	idx := make([]int, 0, len(p.errs))
	for i := range p.errs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fmt.Fprintf(os.Stderr, "perfbench: unit %d failed: %v\n", i, p.errs[i])
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d units, failed_frac %.4f, unit_tail_ms is the %s\n",
		name, seed, len(p.lat), float64(len(p.errs))/float64(max(1, len(p.lat))), tailLabel(p.lat))
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	rec := map[string]any{
		"workload": name, "seed": seed, "traced": traced,
		"wall_s": p.wall.Seconds(), "cpu_s": p.sut.Seconds(),
		"units": len(p.lat), "failed": len(p.errs),
	}
	if p.stealOK {
		rec["steal_frac"] = p.noise.StealFrac
		rec["other_tenant_cpu_s"] = p.noise.OtherTenantCPUS
	}
	blob, _ := json.Marshal(rec)
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", blob)
	if err := os.MkdirAll(stateDir, 0o755); err == nil {
		if f, err := os.OpenFile(filepath.Join(stateDir, "host-noise.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			fmt.Fprintf(f, "%s\n", blob)
			f.Close()
		}
	}
}
