// Command noiseprofile regenerates the noise experiments of Figures 3 and 4:
// FWQ noise-length time series under individual countermeasures (-series)
// and the FWQ latency cumulative distribution functions comparing Linux with
// IHK/McKernel on both platforms (-cdf).
//
// Usage:
//
//	noiseprofile -series [-countermeasure daemons|kworkers|blkmq|pmu|tlbi|none]
//	noiseprofile -cdf [-ofp-nodes 256] [-fugaku-full 1024] [-fugaku-racks 128]
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
	"time"

	"mkos/cmd/internal/report"
	"mkos/cmd/internal/runner"
	"mkos/internal/core"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry/ops"
)

var (
	series      = flag.Bool("series", false, "emit a Figure 3 style noise-length time series")
	cm          = flag.String("countermeasure", "none", "countermeasure to disable for -series (none|daemons|kworkers|blkmq|pmu|tlbi)")
	cdf         = flag.Bool("cdf", false, "emit the Figure 4 latency CDFs")
	attribute   = flag.Bool("attribute", false, "emit the ftrace-style per-source interference attribution")
	ofpNodes    = flag.Int("ofp-nodes", 256, "OFP node subsample (paper: 1,024)")
	fugakuFull  = flag.Int("fugaku-full", 1024, "Fugaku full-scale subsample (paper: 158,976)")
	fugakuRacks = flag.Int("fugaku-racks", 128, "Fugaku 24-rack subsample (paper: 9,216)")
	minutes     = flag.Float64("minutes", 2, "FWQ duration per run in minutes")
	seed        = flag.Int64("seed", core.NoiseSeed, "simulation seed")
	points      = flag.Int("points", 40, "CDF points per curve")
	iterations  = flag.Int("iterations", 1, "repeat the CDF measurement N times and merge (paper: 10 x ~6 min = 1 hour)")
	workers     = flag.Int("j", 0, "parallel trial workers for -cdf (0 = all cores)")
	cacheDir    = flag.String("cache-dir", "", "reuse cached trial results from this directory")
	opsTrace    = flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file for -cdf")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "noiseprofile", sweep.CampaignStopping, run)
}

func run(ctx context.Context, out *bufio.Writer) error {
	dur := time.Duration(*minutes * float64(time.Minute))
	switch {
	case *attribute:
		return runAttribute(out, *cm, dur, *seed)
	case *series:
		return report.Figure3(out, *cm, dur, *seed)
	case *cdf:
		return runCDF(ctx, out, core.Figure4Config{
			OFPNodes: *ofpNodes, FugakuFullNodes: *fugakuFull, Fugaku24Racks: *fugakuRacks,
			Duration: dur, WorstNodes: 100, Seed: *seed,
		})
	default:
		return errors.New("choose -series or -cdf")
	}
}

// runAttribute writes the per-source stolen-time attribution on app cores
// to w — the Sec. 4.2.1 ftrace methodology.
func runAttribute(w io.Writer, cm string, dur time.Duration, seed int64) error {
	node, err := core.CountermeasureNode(cm, nil)
	if err != nil {
		return err
	}
	attr := node.Host.AttributeProfile(dur, seed)
	fmt.Fprintf(w, "# interference attribution on application cores over %v (countermeasure disabled: %s)\n", dur, cm)
	for _, a := range attr {
		fmt.Fprintln(w, a)
	}
	return nil
}

// runCDF shards the figure's (iteration x curve) matrix over the sweep
// orchestrator and merges per curve — the paper ran "ten iterations of
// measurements that last for approximately 6 minutes, capturing a noise
// profile that covers one hour altogether". The curves are written to w.
// An interrupt cancels the campaign; finished trials are already journaled,
// so a re-run resumes.
func runCDF(ctx context.Context, w io.Writer, cfg core.Figure4Config) error {
	iters := max(*iterations, 1)
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	o, err := sweep.RunContext(ctx, campaigns.Figure4(cfg, iters, cfg.Seed), sweep.Options{
		Workers: *workers, CacheDir: *cacheDir, Progress: os.Stderr,
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
	if err := o.FirstErr(); err != nil {
		return err
	}
	curves, err := campaigns.MergeFigure4(o, cfg, iters)
	if err != nil {
		return err
	}
	report.Figure4(w, curves, cfg.WorstNodes, *points)
	return nil
}
