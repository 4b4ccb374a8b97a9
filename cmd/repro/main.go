// Command repro regenerates the paper's entire evaluation in one run and
// prints a paper-vs-measured summary at the end. It writes under -outdir
// (default results/) table2.txt, figure3_baseline.txt, figure3_daemons.txt,
// figure4.txt, figure5.txt, figure6.txt and figure7.txt through the same
// printers as tablegen, noiseprofile -series -minutes 6, noiseprofile -cdf
// and mkexp -figure N, so at the default scale they are byte for byte the
// committed files (make golden checks it). It also writes fwq_machine.json,
// the full-machine FWQ stage's artifact.
//
// Usage:
//
//	repro              # paper scale, ~15 s and ~0.4 GB at -j 2
//	repro -quick       # reduced node counts and durations (~2 s)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"mkos/cmd/internal/report"
	"mkos/cmd/internal/runner"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/kernel"
	"mkos/internal/mckernel"
	"mkos/internal/sim"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

var (
	quick       = flag.Bool("quick", false, "reduced scales for a fast smoke run")
	outdir      = flag.String("outdir", "results", "directory for generated data files")
	workers     = flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir    = flag.String("cache-dir", "", "reuse cached trial results from this directory")
	tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	metricsPath = flag.String("metrics", "", "write the deterministic metrics dump to this file")
	opsTrace    = flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
	shards      = flag.Int("shards", 4, "shard count for the full-machine FWQ stage (result is shard-count invariant)")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "repro", sweep.CampaignStopping, run)
}

// run executes the stages in order. out is flushed as each stage starts, so
// a run whose report cannot get out stops there. An interrupt cancels the
// in-flight stage; its finished trials are already journaled, so a re-run
// resumes.
func run(ctx context.Context, out *bufio.Writer) error {
	// sink collects the whole run's telemetry: every stage's campaign
	// outcome is merged into it, and the engine-driven stages publish into
	// it directly.
	sink := telemetry.NewSink()
	if *tracePath != "" {
		sink.Recorder().Enable()
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	// The ops trace is flushed however the run ends.
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	defer func() {
		if err := flushOps(); err != nil {
			log.Print(err)
		}
	}()

	// runCampaign shards one stage's trials over the worker pool and folds
	// the merged telemetry into sink, so the -metrics and -trace artifacts
	// see every stage exactly as the serial path did.
	runCampaign := func(c *sweep.Campaign) (*sweep.Outcome, error) {
		o, err := sweep.RunContext(ctx, c, sweep.Options{
			Workers: *workers, CacheDir: *cacheDir,
			Trace: *tracePath != "", Progress: os.Stderr,
		})
		if errors.Is(err, sweep.ErrInterrupted) {
			return nil, fmt.Errorf("interrupted during campaign %s: %d trials unfinished; re-run with the same -cache-dir to resume", o.Name, o.Canceled)
		}
		if err != nil {
			return nil, err
		}
		if err := o.FirstErr(); err != nil {
			return nil, err
		}
		o.MergeTelemetry(sink)
		return o, nil
	}

	// --- Table 2 ---
	t2cfg := core.DefaultTable2Config()
	if *quick {
		t2cfg.Nodes, t2cfg.Duration = 4, time.Minute
	}
	if err := progress(out, "[1/6] Table 2 (%d nodes, %v FWQ)...\n", t2cfg.Nodes, t2cfg.Duration); err != nil {
		return err
	}
	t2out, err := runCampaign(campaigns.Table2(t2cfg, t2cfg.Seed))
	if err != nil {
		return err
	}
	rows, err := report.Table2Rows(t2out)
	if err != nil {
		return err
	}
	err = writeFile(*outdir, "table2.txt", func(w io.Writer) error {
		report.Table2(w, t2cfg, rows)
		return nil
	})
	if err != nil {
		return err
	}

	// --- Figure 3: one core of one node over the Table 2 run length ---
	if err := progress(out, "[2/6] Figure 3 noise series...\n"); err != nil {
		return err
	}
	for _, f := range []struct{ name, cm string }{
		{"figure3_baseline.txt", "none"},
		{"figure3_daemons.txt", "daemons"},
	} {
		err := writeFile(*outdir, f.name, func(w io.Writer) error {
			return report.Figure3(w, f.cm, t2cfg.Duration, core.NoiseSeed)
		})
		if err != nil {
			return err
		}
	}

	// --- Figure 4 ---
	f4cfg := core.DefaultFigure4Config()
	if *quick {
		f4cfg.OFPNodes, f4cfg.FugakuFullNodes, f4cfg.Fugaku24Racks = 32, 96, 12
		f4cfg.Duration = 30 * time.Second
	}
	if err := progress(out, "[3/6] Figure 4 CDFs (%d/%d/%d nodes)...\n",
		f4cfg.OFPNodes, f4cfg.FugakuFullNodes, f4cfg.Fugaku24Racks); err != nil {
		return err
	}
	f4out, err := runCampaign(campaigns.Figure4(f4cfg, 1, f4cfg.Seed))
	if err != nil {
		return err
	}
	curves, err := campaigns.MergeFigure4(f4out, f4cfg, 1)
	if err != nil {
		return err
	}
	err = writeFile(*outdir, "figure4.txt", func(w io.Writer) error {
		report.Figure4(w, curves, f4cfg.WorstNodes, 40)
		return nil
	})
	if err != nil {
		return err
	}

	// --- Figures 5, 6, 7: one campaign, one file per figure ---
	seeds := []int64{1, 2, 3}
	if *quick {
		seeds = []int64{1}
	}
	if err := progress(out, "[4/6] application figures...\n"); err != nil {
		return err
	}
	figures := [][]core.FigureSpec{core.Figure5Specs(), core.Figure6Specs(), core.Figure7Specs()}
	var specs []core.FigureSpec
	for _, fig := range figures {
		if *quick {
			for i := range fig {
				fig[i].Nodes = fig[i].Nodes[len(fig[i].Nodes)-1:] // top of sweep only
			}
		}
		specs = append(specs, fig...)
	}
	figCampaign, err := campaigns.FigurePoints("repro-figs", specs, seeds, 0, 1)
	if err != nil {
		return err
	}
	figOut, err := runCampaign(figCampaign)
	if err != nil {
		return err
	}
	for _, fig := range figures {
		err := writeFile(*outdir, "figure"+fig[0].Figure+".txt", func(w io.Writer) error {
			report.Figures(w, figOut, fig, false)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// --- Operational stage: engine-driven fault recovery + syscall offload ---
	// The figure stages above are closed-form; this stage drives the
	// discrete-event machinery (resilient batch system, syscall delegation)
	// so the telemetry artifacts carry live sim/cluster/fault/mckernel data.
	if err := progress(out, "[5/6] operational stage (fault recovery + syscall offload)...\n"); err != nil {
		return err
	}
	if err := runOpsStage(ctx, out, *quick, sink); err != nil {
		return err
	}

	// --- Full-machine sharded FWQ (Sec. 6.3 in-situ selection) ---
	if err := runMachineStage(ctx, out, sink); err != nil {
		return err
	}

	// --- Telemetry artifacts ---
	for _, w := range []struct {
		path string
		fn   func(string) error
		kind string
	}{
		{*metricsPath, sink.WriteMetricsFile, "metrics"},
		{*tracePath, sink.WriteTraceFile, "trace"},
	} {
		if w.path == "" {
			continue
		}
		if err := w.fn(w.path); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s to %s\n", w.kind, w.path)
	}

	// --- Summary ---
	fmt.Fprintf(out, "\n=== paper vs measured (top-of-sweep relative performance) ===\n")
	paper := map[string]string{
		"5/AMG2013/oakforest-pacs": "~1.18",
		"5/Milc/oakforest-pacs":    "~1.22",
		"5/Lulesh/oakforest-pacs":  "~2X",
		"6/LQCD/oakforest-pacs":    "~1.25",
		"6/GeoFEM/oakforest-pacs":  "~1.06",
		"6/GAMERA/oakforest-pacs":  ">1.25",
		"7/LQCD/fugaku":            "~1.00",
		"7/GeoFEM/fugaku":          "~1.03",
		"7/GAMERA/fugaku":          "~1.29",
	}
	for _, spec := range specs {
		var c core.Comparison
		n := spec.Nodes[len(spec.Nodes)-1]
		if err := figOut.Payload(campaigns.FigurePointKey(spec.Figure, string(spec.Platform), spec.App, n), &c); err != nil {
			return err
		}
		fmt.Fprintf(out, "fig %s  %-8s %-15s paper %-6s measured %.3f (at %d nodes)\n",
			spec.Figure, spec.App, spec.Platform, paper[spec.Figure+"/"+spec.App+"/"+string(spec.Platform)], c.Relative, c.Nodes)
	}
	fmt.Fprintf(out, "\ndone in %v; data in %s/\n", time.Since(start).Round(time.Second), *outdir)
	return nil
}

// progress writes a progress line to out and flushes it, returning the
// failed write's error: a run whose report cannot get out stops at the
// next stage instead of computing it.
func progress(out *bufio.Writer, format string, a ...any) error {
	fmt.Fprintf(out, format, a...)
	return out.Flush()
}

// runOpsStage exercises the event-driven subsystems the figure stages never
// touch: a small fault-injected batch on the resilient scheduler (cluster,
// fault and sim engine telemetry) and a syscall chain through the McKernel
// delegator (LWK-local vs offloaded calls, IKC traffic, proxy queueing).
// ctx (the process signal context) cancels the engine runs cooperatively;
// the report goes to out and the telemetry to sink.
func runOpsStage(ctx context.Context, out io.Writer, quick bool, sink *telemetry.Sink) error {
	const seed = 7
	p := cluster.OFP()
	p.Sink = sink

	// Fault-injected batch: rates high enough that a quarter-second job sees
	// panics, hangs and OOM kills, so detection and recovery machinery runs.
	rates := fault.Rates{
		NodeCrashPerHour: 500, LWKPanicPerHour: 2000, LWKHangPerHour: 1000,
		IHKReserveFailProb: 0.05, IKCTimeoutProb: 0.05, LWKOOMProb: 0.05,
	}
	rs, err := cluster.NewResilientScheduler(p, fault.NewInjector(rates, seed), cluster.DefaultRecoveryPolicy())
	if err != nil {
		return err
	}
	jobs := 6
	if quick {
		jobs = 3
	}
	w := bsp.Workload{
		Name: "ops-probe", Scaling: bsp.StrongScaling, RefNodes: 4,
		Steps: 40, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 16}
	for j := 0; j < jobs; j++ {
		// Terminal failures are part of the exercise, not an error.
		_, _ = rs.Submit(w, g, 4, cluster.McKernel, seed*1000+int64(j))
	}
	r := rs.Report
	fmt.Fprintf(out, "      batch: %d jobs, %d completed (%d fallback), %d failed, %d faults, %d retries\n",
		r.Jobs, r.Completed, r.Fallbacks, r.Failed, r.TotalInjected(), r.Retries)

	// Syscall delegation: one McKernel node, one thread, a mixed chain of
	// LWK-local and Linux-offloaded calls driven to completion on the engine.
	node, err := p.NewNodeAt(1, cluster.McKernel)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	eng.SetCancelHook(func() bool { return ctx.Err() != nil }, 0)
	d := mckernel.NewDelegator(node.LWK, eng)
	proc, err := node.LWK.Spawn("ops-probe", 1)
	if err != nil {
		return err
	}
	th, err := node.LWK.Scheduler.Dispatch(proc.Threads[0].Core)
	if err != nil {
		return err
	}
	chain := []kernel.Syscall{
		kernel.SysMmap, kernel.SysBrk, kernel.SysOpen, kernel.SysRead,
		kernel.SysFutex, kernel.SysWrite, kernel.SysClose, kernel.SysGetpid,
	}
	// issue runs in engine callbacks, so the first failure ends the chain
	// and is returned once the engine drains.
	var issueErr error
	var issue func(i int)
	issue = func(i int) {
		if i >= len(chain) {
			return
		}
		// A completed offload leaves the thread ready, not running: the LWK
		// round-robin must dispatch it again before it can issue.
		if th.State != mckernel.ThreadRunning {
			if _, issueErr = node.LWK.Scheduler.Dispatch(th.Core); issueErr != nil {
				return
			}
		}
		issueErr = d.Issue(th, chain[i], func(sim.Time) { issue(i + 1) })
	}
	issue(0)
	eng.Run()
	sink.PublishEngine(eng, 0)
	if issueErr != nil {
		return issueErr
	}
	local, delegated, queueing := d.Stats()
	fmt.Fprintf(out, "      syscalls: %d LWK-local, %d offloaded to Linux (proxy queueing %v)\n",
		local, delegated, queueing)

	// Linux-side attribution: replays the host noise profile through the
	// ftrace model so per-task scheduling spans land on the shared timeline.
	attr := node.Host.AttributeProfile(100*time.Millisecond, seed)
	if len(attr) > 0 {
		fmt.Fprintf(out, "      linux ftrace: top interferer on app cores: %s\n", attr[0].Task)
	}
	return nil
}

// writeFile creates dir/name and fills it through a buffered writer. It
// returns the first error of fill, the writes, the flush or the close, so
// repro never exits 0 with a truncated artifact. A bufio.Writer keeps its
// first error and Flush returns it, so fill need not check its writes.
func writeFile(dir, name string, fill func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
