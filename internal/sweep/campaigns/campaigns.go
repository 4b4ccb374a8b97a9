// Package campaigns builds sweep.Campaign values for the repository's
// experiment families — the Figure 5-7 application sweeps, the Table 2
// countermeasure matrix, the Figure 4 noise CDFs and the fault-injection
// degradation curves — so cmd/repro, cmd/mkexp, cmd/faultexp,
// cmd/noiseprofile and cmd/sweep all shard the same trial enumerations over
// the same orchestrator instead of carrying private serial loops.
//
// Every builder follows the same rules: trial keys are canonical and
// zero-padded so key order equals presentation order, specs carry the full
// parameter set (they are the cache identity), and payloads are plain
// JSON-round-trippable structs from core/fault so cached and freshly
// executed trials are indistinguishable to the merge step.
package campaigns

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/fault"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/sweep"
)

// --- Figures 5-7: application comparison points ----------------------------

// FigurePointSpec parameterizes one (figure, app, platform, node-count)
// comparison trial. Seeds pins the per-run seeds explicitly (the historical
// cmd behavior: -seed s with -runs r uses s..s+r-1); when empty, Runs seeds
// derive from the trial's own sweep seed, so campaign-seed changes re-execute
// the point.
type FigurePointSpec struct {
	Figure   string  `json:"figure"`
	Platform string  `json:"platform"`
	App      string  `json:"app"`
	Nodes    int     `json:"nodes"`
	Seeds    []int64 `json:"seeds,omitempty"`
	Runs     int     `json:"runs,omitempty"`
}

// FigurePointKey is the canonical trial key for a figure point; node counts
// are zero-padded so lexicographic key order walks each panel bottom-up.
func FigurePointKey(figure, platform, app string, nodes int) string {
	return fmt.Sprintf("fig%s/%s/%s/n%06d", figure, platform, app, nodes)
}

// FigurePoints enumerates one trial per (spec, node count) across the given
// figure specs, mirroring core.Sweep's skip of node counts above an app's
// maximum so merged output matches the serial path exactly.
func FigurePoints(name string, specs []core.FigureSpec, seeds []int64, runs int, campaignSeed int64) (*sweep.Campaign, error) {
	c := &sweep.Campaign{Name: name, Seed: campaignSeed}
	for _, spec := range specs {
		app, err := apps.ByName(spec.App, spec.Platform)
		if err != nil {
			return nil, fmt.Errorf("campaigns: figure %s: %w", spec.Figure, err)
		}
		for _, n := range spec.Nodes {
			if n > app.MaxNodes {
				continue
			}
			ps := FigurePointSpec{
				Figure: spec.Figure, Platform: string(spec.Platform), App: spec.App,
				Nodes: n, Seeds: append([]int64(nil), seeds...), Runs: runs,
			}
			c.Trials = append(c.Trials, sweep.Trial{
				Key:  FigurePointKey(ps.Figure, ps.Platform, ps.App, ps.Nodes),
				Spec: ps,
				Run: func(t *sweep.T) (any, error) {
					return runFigurePoint(ps, t)
				},
			})
		}
	}
	return c, nil
}

func runFigurePoint(ps FigurePointSpec, t *sweep.T) (core.Comparison, error) {
	app, err := apps.ByName(ps.App, apps.PlatformName(ps.Platform))
	if err != nil {
		return core.Comparison{}, err
	}
	seeds := ps.Seeds
	if len(seeds) == 0 {
		runs := ps.Runs
		if runs <= 0 {
			runs = 1
		}
		for i := 0; i < runs; i++ {
			seeds = append(seeds, t.Seed+int64(i))
		}
	}
	p := core.PlatformFor(apps.PlatformName(ps.Platform))
	p.Sink = t.Sink
	return core.Compare(p, app, ps.Nodes, seeds)
}

// --- Table 2: countermeasure matrix ----------------------------------------

// Table2Spec parameterizes one countermeasure row.
type Table2Spec struct {
	Disabled string        `json:"disabled"`
	Nodes    int           `json:"nodes"`
	Duration time.Duration `json:"duration"`
	Seed     int64         `json:"seed"`
}

// Table2Key returns the canonical key of row i; the index prefix keeps key
// order equal to the paper's row order.
func Table2Key(i int, disabled string) string {
	return fmt.Sprintf("table2/%02d-%s", i, slug(disabled))
}

// Table2 enumerates one trial per countermeasure row of the table.
func Table2(cfg core.Table2Config, campaignSeed int64) *sweep.Campaign {
	c := &sweep.Campaign{Name: "table2", Seed: campaignSeed}
	for i, disabled := range core.Table2Variants() {
		ts := Table2Spec{Disabled: disabled, Nodes: cfg.Nodes, Duration: cfg.Duration, Seed: cfg.Seed}
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  Table2Key(i, disabled),
			Spec: ts,
			Run: func(t *sweep.T) (any, error) {
				return core.Table2Variant(core.Table2Config{
					Nodes: ts.Nodes, Duration: ts.Duration, Seed: ts.Seed,
				}, ts.Disabled, t.Sink)
			},
		})
	}
	return c
}

// --- Figure 4: noise CDF curves --------------------------------------------

// Figure4Key returns the canonical key of curve ci in iteration it.
func Figure4Key(it, ci int, label string) string {
	return fmt.Sprintf("figure4/it%03d/%02d-%s", it, ci, label)
}

// Figure4 enumerates iterations x curves trials: each of the figure's five
// curves, measured `iterations` times with derived seeds (the paper runs ten
// ~6-minute iterations to cover an hour of noise). MergeFigure4 folds the
// outcome back into per-curve distributions.
func Figure4(cfg core.Figure4Config, iterations int, campaignSeed int64) *sweep.Campaign {
	if iterations < 1 {
		iterations = 1
	}
	c := &sweep.Campaign{Name: "figure4", Seed: campaignSeed}
	for it := 0; it < iterations; it++ {
		iterCfg := cfg
		// The historical noiseprofile seed schedule: iteration i offsets the
		// base seed by i*1000003.
		iterCfg.Seed = cfg.Seed + int64(it)*1000003
		for ci, cs := range core.Figure4CurveSpecs(iterCfg) {
			cs := cs
			c.Trials = append(c.Trials, sweep.Trial{
				Key:  Figure4Key(it, ci, cs.Label),
				Spec: cs,
				Run: func(t *sweep.T) (any, error) {
					return core.Figure4Curve(cs, t.Sink)
				},
			})
		}
	}
	return c
}

// MergeFigure4 reassembles an outcome of Figure4 trials into the figure's
// curves, merging each curve's distributions across iterations in iteration
// order.
func MergeFigure4(o *sweep.Outcome, cfg core.Figure4Config, iterations int) ([]core.CDFCurve, error) {
	if iterations < 1 {
		iterations = 1
	}
	specs := core.Figure4CurveSpecs(cfg)
	curves := make([]core.CDFCurve, len(specs))
	for ci, cs := range specs {
		dists := make([]*noise.IterationDist, 0, iterations)
		for it := 0; it < iterations; it++ {
			var c core.CDFCurve
			if err := o.Payload(Figure4Key(it, ci, cs.Label), &c); err != nil {
				return nil, err
			}
			dists = append(dists, c.CDF)
		}
		curves[ci] = core.CDFCurve{Label: cs.Label, Nodes: cs.Nodes, CDF: noise.MergeDists(dists)}
	}
	return curves, nil
}

// --- Fault-injection degradation sweep -------------------------------------

// FaultPointSpec parameterizes one (intensity, OS) sweep point: a batch of
// jobs under one kernel configuration with recovery enabled.
type FaultPointSpec struct {
	Platform  string      `json:"platform"`
	OS        string      `json:"os"`
	Intensity float64     `json:"intensity"`
	Rates     fault.Rates `json:"rates"`
	Jobs      int         `json:"jobs"`
	Nodes     int         `json:"nodes"`
	Seed      int64       `json:"seed"`
}

// FaultPointResult is the payload of one fault sweep point: the structured
// failure report plus its byte-deterministic rendering.
type FaultPointResult struct {
	Report fault.FailureReport `json:"report"`
	Text   string              `json:"text"`
}

// FaultKey returns the canonical key of a sweep point; the fixed-width
// intensity keeps key order equal to sweep order.
func FaultKey(s FaultPointSpec) string {
	return fmt.Sprintf("fault/%s/x%06.2f/%s", s.Platform, s.Intensity, s.OS)
}

// FaultSweep enumerates one trial per spec.
func FaultSweep(name string, specs []FaultPointSpec, campaignSeed int64) *sweep.Campaign {
	c := &sweep.Campaign{Name: name, Seed: campaignSeed}
	for _, s := range specs {
		s := s
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  FaultKey(s),
			Spec: s,
			Run: func(t *sweep.T) (any, error) {
				return runFaultPoint(t, s)
			},
		})
	}
	return c
}

func runFaultPoint(t *sweep.T, s FaultPointSpec) (FaultPointResult, error) {
	var p *cluster.Platform
	switch s.Platform {
	case "fugaku":
		p = cluster.Fugaku()
	case "ofp", "oakforest-pacs":
		p = cluster.OFP()
	default:
		return FaultPointResult{}, fmt.Errorf("campaigns: unknown platform %q", s.Platform)
	}
	p.Sink = t.Sink
	os := cluster.Linux
	if s.OS == "mckernel" {
		os = cluster.McKernel
	}
	rs, err := cluster.NewResilientScheduler(p, fault.NewInjector(s.Rates, s.Seed), cluster.DefaultRecoveryPolicy())
	if err != nil {
		return FaultPointResult{}, err
	}
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	if p.Name == "oakforest-pacs" {
		g = bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 16}
	}
	w := bsp.Workload{
		Name: "faultexp", Scaling: bsp.StrongScaling, RefNodes: s.Nodes,
		Steps: 50, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	// The recovery engine can simulate arbitrarily long retry/backoff chains;
	// hook it up to the trial's cancel flag so a campaign shutdown or trial
	// deadline stops it at a deterministic event boundary mid-job.
	t.AttachEngine(rs.Engine)
	for j := 0; j < s.Jobs; j++ {
		if t.Canceled() {
			return FaultPointResult{}, sweep.ErrTrialCanceled
		}
		// Per-job seeds derive from the point seed; terminal failures are
		// part of the measurement, not an error of the trial. An engine
		// interrupt, by contrast, means the trial itself was canceled.
		if _, err := rs.Submit(w, g, s.Nodes, os, s.Seed*1000+int64(j)); errors.Is(err, sim.ErrCanceled) {
			return FaultPointResult{}, sweep.ErrTrialCanceled
		}
	}
	return FaultPointResult{Report: *rs.Report, Text: rs.Report.String()}, nil
}

// slug lowercases a label into a key-safe token.
func slug(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}
