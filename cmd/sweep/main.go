// Command sweep runs a declarative simulation campaign: a JSON spec
// enumerates trials from the paper's experiment families (application
// figures, Table 2 countermeasures, Figure 4 noise CDFs, fault-injection
// sweeps), and the orchestrator shards them over a worker pool, reusing
// cached results for trials whose inputs are unchanged.
//
// The deterministic artifacts — results.json and metrics.txt — are
// byte-identical at any -j and for any mix of cached and executed trials;
// ops.txt carries the wall-clock side (pool utilization, per-trial runtimes)
// and is expected to differ run to run.
//
// Usage:
//
//	sweep -spec specs/ci-sweep.json [-j 8] [-cache-dir .sweepcache] [-outdir sweep-out]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"mkos/cmd/internal/runner"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry/ops"
)

var (
	specPath     = flag.String("spec", "", "declarative campaign spec (JSON)")
	workers      = flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir     = flag.String("cache-dir", "", "on-disk result cache; re-runs execute only changed trials")
	outdir       = flag.String("outdir", "sweep-out", "directory for results.json, metrics.txt and ops.txt")
	trace        = flag.Bool("trace", false, "also write trace.json (merged per-trial sim-time trace)")
	trialTimeout = flag.Duration("trial-timeout", 0, "fail any single trial exceeding this wall time (0 = no limit)")
	retryFailed  = flag.Bool("retry-failed", false, "re-run trials the campaign journal recorded as failed")
	opsTrace     = flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "sweep", sweep.CampaignStopping, run)
}

// run executes the campaign and writes its artifacts. An interrupt cancels
// the campaign, and the partial artifacts are still written.
func run(ctx context.Context, out *bufio.Writer) error {
	if *specPath == "" {
		return errors.New("provide -spec FILE (see specs/ci-sweep.json)")
	}

	spec, err := campaigns.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	c, err := spec.Campaign()
	if err != nil {
		return err
	}
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	o, err := sweep.RunContext(ctx, c, sweep.Options{
		Workers: *workers, CacheDir: *cacheDir,
		Trace: *trace, Progress: os.Stderr,
		TrialTimeout: *trialTimeout, RetryFailed: *retryFailed,
	})
	// The ops trace is wall-clock observability, flushed even for runs that
	// end interrupted or failed — those are the ones worth inspecting.
	if ferr := flushOps(); ferr != nil {
		log.Print(ferr)
	}
	interrupted := errors.Is(err, sweep.ErrInterrupted)
	if err != nil && !interrupted {
		return err
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	type artifact struct {
		name string
		fill func(io.Writer) error
	}
	artifacts := []artifact{
		{"results.json", func(w io.Writer) error { return writeResults(w, o) }},
		{"metrics.txt", func(w io.Writer) error { _, err := o.Registry.WriteTo(w); return err }},
		{"ops.txt", func(w io.Writer) error { _, err := o.Ops.WriteTo(w); return err }},
	}
	if o.Recorder != nil {
		artifacts = append(artifacts, artifact{"trace.json", o.Recorder.WriteChromeTrace})
	}
	for _, a := range artifacts {
		if err := writeArtifact(*outdir, a.name, a.fill); err != nil {
			return err
		}
	}

	// The summary line is stable output: CI greps it to assert a warm-cache
	// re-run executed zero trials.
	fmt.Fprintf(out, "campaign %s: %d trials: %d executed, %d cached, %d failed\n",
		o.Name, len(o.Results), o.Executed, o.Cached, o.Failed)
	fmt.Fprintf(os.Stderr, "sweep: artifacts in %s (elapsed %v)\n", *outdir, o.Elapsed.Round(o.Elapsed/100+time.Nanosecond))
	if interrupted {
		return fmt.Errorf("interrupted: %d trials unfinished; re-run with the same -cache-dir to resume", o.Canceled)
	}
	return o.FirstErr()
}

// writeResults writes the deterministic results artifact to w. A complete
// run keeps the plain top-level array (the historic format, preserved so
// byte-identity checks against older artifacts keep working); an interrupted
// run wraps the partial array in an envelope whose "partial": true marker is
// impossible to mistake for a finished campaign.
func writeResults(w io.Writer, o *sweep.Outcome) error {
	var blob []byte
	var err error
	if o.Partial {
		blob, err = json.MarshalIndent(struct {
			Partial    bool                `json:"partial"`
			Unfinished int                 `json:"unfinished"`
			Results    []sweep.TrialResult `json:"results"`
		}{true, o.Canceled, o.Results}, "", "  ")
	} else {
		blob, err = json.MarshalIndent(o.Results, "", "  ")
	}
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// writeArtifact renders dir/name through fill and writes it.
func writeArtifact(dir, name string, fill func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := fill(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}
