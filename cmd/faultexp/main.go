// Command faultexp sweeps fault-injection intensity over a batch of jobs and
// prints degradation curves for Linux vs IHK/McKernel: completion counts,
// retries, Linux fallbacks, detection latency and wasted node-seconds as the
// failure rates grow. It exercises the operational side of Sec. 5 — LWK
// panics, hangs, fatal OOM (no demand paging), IKC message loss and prologue
// reservation failures — together with the recovery policy (capped-backoff
// retry, node blacklisting, graceful degradation to native Linux).
//
// The sweep points are independent trials and run in parallel on the sweep
// orchestrator; the experiment stays fully deterministic: the same seed
// produces the same fault schedule and byte-identical output at any -j.
//
// Usage:
//
//	faultexp [-platform fugaku|ofp] [-jobs 6] [-nodes 8] [-seed 42] [-report]
//	         [-j N] [-cache-dir DIR]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"mkos/cmd/internal/runner"
	"mkos/internal/cluster"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

var (
	platform    = flag.String("platform", "fugaku", "platform: fugaku or ofp")
	jobs        = flag.Int("jobs", 6, "jobs per sweep point")
	nodes       = flag.Int("nodes", 8, "nodes per job")
	seed        = flag.Int64("seed", 42, "experiment seed")
	report      = flag.Bool("report", true, "print the full failure report of the heaviest McKernel point")
	workers     = flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir    = flag.String("cache-dir", "", "reuse cached trial results from this directory")
	tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	metricsPath = flag.String("metrics", "", "write the deterministic metrics dump to this file")
	profilePath = flag.String("profile", "", "write the engine profiler report (host wall times, non-deterministic)")
	opsTrace    = flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "faultexp", sweep.CampaignStopping, run)
}

func run(ctx context.Context, out *bufio.Writer) error {
	sink := telemetry.NewSink()
	if *tracePath != "" {
		sink.Recorder().Enable()
	}

	var p *cluster.Platform
	switch *platform {
	case "fugaku":
		p = cluster.Fugaku()
	case "ofp":
		p = cluster.OFP()
	default:
		return fmt.Errorf("unknown platform %q", *platform)
	}

	intensities := []float64{0, 0.5, 1, 2, 4}
	specs := campaigns.FaultPoints(p.Name, intensities, campaigns.DefaultFaultRates(), *jobs, *nodes, *seed)
	// An interrupt cancels the campaign: each trial's recovery engine stops
	// at a deterministic event boundary via the attached cancel hook.
	// Finished points are journaled, so a re-run with the same -cache-dir
	// resumes.
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	o, err := sweep.RunContext(ctx, campaigns.FaultSweep("faultexp", specs, *seed), sweep.Options{
		Workers: *workers, CacheDir: *cacheDir,
		Trace: *tracePath != "", Progress: os.Stderr,
	})
	if ferr := flushOps(); ferr != nil {
		log.Print(ferr)
	}
	if errors.Is(err, sweep.ErrInterrupted) {
		return fmt.Errorf("interrupted: %d trials unfinished; re-run with the same -cache-dir to resume", o.Canceled)
	}
	if err != nil {
		return err
	}
	o.MergeTelemetry(sink)

	fmt.Fprintf(out, "fault-injection sweep: %s, %d jobs/point x %d nodes, seed %d\n",
		p.Name, *jobs, *nodes, *seed)
	fmt.Fprintf(out, "policy: %+v\n\n", cluster.DefaultRecoveryPolicy())

	fmt.Fprintf(out, "%-9s | %-42s | %-30s\n", "intensity", "mckernel", "linux")
	fmt.Fprintf(out, "%-9s | %4s %4s %4s %5s %8s %9s | %4s %4s %5s %8s\n",
		"(x base)", "done", "fb", "fail", "retry", "detect", "waste", "done", "fail", "retry", "waste")
	var heaviest *campaigns.FaultPointResult
	for _, k := range intensities {
		var mck, lin campaigns.FaultPointResult
		point := func(os string, into *campaigns.FaultPointResult) {
			for _, s := range specs {
				if s.Intensity == k && s.OS == os {
					if err := o.Payload(campaigns.FaultKey(s), into); err != nil {
						log.Fatal(err)
					}
					return
				}
			}
			log.Fatalf("missing %s point at %gx", os, k)
		}
		point("mckernel", &mck)
		point("linux", &lin)
		mr, lr := mck.Report, lin.Report
		fmt.Fprintf(out, "%-9.2g | %4d %4d %4d %5d %7.2fs %8.1fs | %4d %4d %5d %7.1fs\n",
			k,
			mr.Completed, mr.Fallbacks, mr.Failed, mr.Retries,
			mr.MeanDetectionLatency().Seconds(), mr.WastedNodeSeconds,
			lr.Completed, lr.Failed, lr.Retries, lr.WastedNodeSeconds)
		heaviest = &mck
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, "columns: done = jobs completed, fb = completed only after graceful")
	fmt.Fprintln(out, "degradation to native Linux, fail = terminal failures, retry = re-run")
	fmt.Fprintln(out, "attempts, detect = mean failure-detection latency, waste = node-seconds")
	fmt.Fprintln(out, "burned in failed attempts (detected at the watchdog, not at job end).")

	if *report && heaviest != nil {
		fmt.Fprintln(out)
		fmt.Fprintf(out, "failure report, heaviest McKernel point (%gx base rates):\n", intensities[len(intensities)-1])
		fmt.Fprint(out, heaviest.Text)
	}

	for _, w := range []struct {
		path string
		fn   func(string) error
	}{
		{*metricsPath, sink.WriteMetricsFile},
		{*tracePath, sink.WriteTraceFile},
		{*profilePath, sink.WriteProfileFile},
	} {
		if w.path != "" {
			if err := w.fn(w.path); err != nil {
				return err
			}
		}
	}
	return o.FirstErr()
}
