// Command mkexp runs the application-level Linux-vs-IHK/McKernel
// comparisons of Figures 5, 6 and 7: relative performance (Linux normalized
// to 1.0) across node counts for the CORAL mini-apps on Oakforest-PACS and
// the Fugaku-project applications on both platforms. Each (app, node-count)
// point is an independent trial and runs in parallel on the sweep
// orchestrator; output is byte-identical at any -j.
//
// Usage:
//
//	mkexp -figure 5              # AMG2013 / MILC / LULESH on OFP
//	mkexp -figure 6              # LQCD / GeoFEM / GAMERA on OFP
//	mkexp -figure 7              # LQCD / GeoFEM / GAMERA on Fugaku
//	mkexp -platform fugaku -app GAMERA -nodes 128,512,2048,8192
//	mkexp -figure 5 -j 8 -cache-dir .sweepcache
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
	"strconv"
	"strings"

	"mkos/cmd/internal/runner"
	"mkos/internal/apps"
	"mkos/internal/core"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
	"mkos/internal/telemetry"
	"mkos/internal/telemetry/ops"
)

// The -runs and -seed defaults, at which the committed results/figure*.txt
// were made.
const (
	defaultRuns = 3
	defaultSeed = 1
)

var (
	figure      = flag.String("figure", "", "regenerate a whole figure: 5, 6 or 7")
	platform    = flag.String("platform", "ofp", "platform for -app mode: ofp or fugaku")
	appName     = flag.String("app", "", "single application to run (AMG2013, Milc, Lulesh, LQCD, GeoFEM, GAMERA)")
	nodeList    = flag.String("nodes", "", "comma-separated node counts for -app mode")
	runs        = flag.Int("runs", defaultRuns, "runs per data point (the paper uses >=3)")
	seed        = flag.Int64("seed", defaultSeed, "base seed; run i uses seed+i")
	isolation   = flag.Bool("isolation", false, "run the co-location isolation experiment instead of a figure")
	fom         = flag.Bool("fom", false, "also print each application's custom metric (FOM, TFLOPS, ...)")
	workers     = flag.Int("j", 0, "parallel trial workers (0 = all cores)")
	cacheDir    = flag.String("cache-dir", "", "reuse cached trial results from this directory")
	tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	metricsPath = flag.String("metrics", "", "write the deterministic telemetry metrics dump to this file")
	opsTrace    = flag.String("ops-trace", "", "write the wall-clock ops flight recorder (Chrome trace JSON) to this file")
)

func main() {
	flag.Parse()
	runner.Main(context.Background(), "mkexp", sweep.CampaignStopping, run)
}

func run(ctx context.Context, out *bufio.Writer) error {
	sink := telemetry.NewSink()
	if *tracePath != "" {
		sink.Recorder().Enable()
	}
	writeArtifacts := func() error {
		if err := sink.WriteMetricsFile(*metricsPath); err != nil {
			return err
		}
		return sink.WriteTraceFile(*tracePath)
	}

	if *isolation {
		runIsolation(out, *platform, *appName, *nodeList, *seed, sink)
		return writeArtifacts()
	}

	var specs []core.FigureSpec
	switch {
	case *figure != "":
		switch *figure {
		case "5":
			specs = core.Figure5Specs()
		case "6":
			specs = core.Figure6Specs()
		case "7":
			specs = core.Figure7Specs()
		default:
			return fmt.Errorf("unknown figure %q (want 5, 6 or 7)", *figure)
		}
	case *appName != "":
		p := apps.OnOFP
		if strings.HasPrefix(strings.ToLower(*platform), "fugaku") {
			p = apps.OnFugaku
		}
		nodes, err := parseNodes(*nodeList)
		if err != nil {
			return err
		}
		specs = []core.FigureSpec{{Figure: "custom", Platform: p, App: *appName, Nodes: nodes}}
	default:
		return errors.New("choose -figure 5|6|7 or -app NAME -nodes N1,N2,...")
	}

	c, err := figureCampaign(specs, *runs, *seed)
	if err != nil {
		return err
	}
	// An interrupt cancels the campaign; finished trials are already
	// journaled, so a re-run resumes.
	ctx, flushOps := ops.TraceFile(ctx, *opsTrace)
	o, err := sweep.RunContext(ctx, c, sweep.Options{
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
	printFigures(out, o, specs, *fom)
	if err := writeArtifacts(); err != nil {
		return err
	}
	return o.FirstErr()
}

// runIsolation executes the Sec. 8 co-location experiment, writing its
// report to w and publishing its telemetry into sink.
func runIsolation(w io.Writer, platform, appName, nodeList string, seed int64, sink *telemetry.Sink) {
	p := apps.OnOFP
	if strings.HasPrefix(strings.ToLower(platform), "fugaku") {
		p = apps.OnFugaku
	}
	if appName == "" {
		appName = "GeoFEM"
	}
	nodes := 256
	if nodeList != "" {
		ns, err := parseNodes(nodeList)
		if err != nil {
			log.Fatal(err)
		}
		nodes = ns[0]
	}
	cg, mk, err := core.CompareIsolation(p, appName, nodes, core.AnalyticsTenant(), seed, sink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "# co-location isolation: %s on %s at %d nodes (tenant: in-situ analytics)\n", appName, p, nodes)
	fmt.Fprintf(w, "%-14s slowdown=%.4f (alone %v, co-located %v)\n", cg.Mode, cg.Slowdown, cg.AloneRuntime.Round(0), cg.CoRuntime.Round(0))
	fmt.Fprintf(w, "%-14s slowdown=%.4f (alone %v, co-located %v)\n", mk.Mode, mk.Slowdown, mk.AloneRuntime.Round(0), mk.CoRuntime.Round(0))
}

func parseNodes(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("provide -nodes, e.g. -nodes 64,256,1024")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad node count %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// figureCampaign is the campaign of every (app, node-count) point of specs,
// each point run at seeds seed, seed+1, ..., seed+runs-1.
func figureCampaign(specs []core.FigureSpec, runs int, seed int64) (*sweep.Campaign, error) {
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return campaigns.FigurePoints("mkexp", specs, seeds, runs, seed)
}

// printFigures renders every panel of specs from the campaign outcome to w,
// skipping failed points (they surface through the exit code) and oversize
// node counts (never enumerated, matching core.Sweep). fom adds each
// application's custom metric.
func printFigures(w io.Writer, o *sweep.Outcome, specs []core.FigureSpec, fom bool) {
	for _, spec := range specs {
		printFigure(w, o, spec, fom)
	}
}

func printFigure(w io.Writer, o *sweep.Outcome, spec core.FigureSpec, fom bool) {
	fmt.Fprintf(w, "\n# Figure %s: %s on %s (relative performance, Linux = 1.0)\n",
		spec.Figure, spec.App, spec.Platform)
	fmt.Fprintf(w, "%-8s %10s %8s %16s %16s\n", "nodes", "mckernel", "+/-", "linux_runtime", "mck_runtime")
	app, appErr := apps.ByName(spec.App, spec.Platform)
	for _, n := range spec.Nodes {
		if appErr == nil && n > app.MaxNodes {
			continue
		}
		key := campaigns.FigurePointKey(spec.Figure, string(spec.Platform), spec.App, n)
		var c core.Comparison
		if err := o.Payload(key, &c); err != nil {
			fmt.Fprintf(w, "%-8d FAILED: %v\n", n, err)
			continue
		}
		fmt.Fprintf(w, "%-8d %10.3f %8.3f %16s %16s",
			c.Nodes, c.Relative, c.RelErr, c.LinuxRuntime.Round(0), c.McKRuntime.Round(0))
		if fom && appErr == nil {
			lin := app.MetricFor(c.LinuxRuntime, c.Nodes)
			mck := app.MetricFor(c.McKRuntime, c.Nodes)
			fmt.Fprintf(w, "   linux %s | mckernel %s", lin, mck)
		}
		fmt.Fprintln(w)
	}
}
