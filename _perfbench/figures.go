package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/core"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/stats"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// figuresRoundS is roughly how long one round of figure points takes on a
// 2-vCPU host; --seconds is converted into whole rounds with it, so the
// amount of work depends only on the arguments, never on the host.
const figuresRoundS = 9.5

// figPoint is one Linux-vs-McKernel figure point: a panel, a node count and
// the bsp seed the point runs with.
type figPoint struct {
	Figure   string            `json:"figure"`
	Platform apps.PlatformName `json:"platform"`
	App      string            `json:"app"`
	Nodes    int               `json:"nodes"`
	Seed     int64             `json:"seed"`
}

// figurePoints generates the run's points. Every round has the same shape,
// so runs with different seeds cost about the same. One small OFP point
// (OFP machine builds dominate it) alternates between Figure 5 and Figure
// 6. For each Figure 7 Fugaku app there are four points at 128 nodes, three
// at 512 and one at 2,048 (noise timeline generation dominates these).
// Over two rounds the median falls in the middle of the 128-node LQCD and
// 512-node GeoFEM/GAMERA points and the tail in the middle of the 512-node
// LQCD points, never on a boundary between kinds. The seed picks the
// Figure 5 app, the order and every point's bsp seed.
func figurePoints(seed int64, rounds int) []figPoint {
	rng := rand.New(rand.NewSource(seed))
	coral := apps.CoralSuite()
	var out []figPoint
	for r := 0; r < rounds; r++ {
		round := []figPoint{{Figure: "6", Platform: apps.OnOFP, App: "GAMERA", Nodes: 64}}
		if r%2 == 0 {
			round[0] = figPoint{Figure: "5", Platform: apps.OnOFP, App: coral[rng.Intn(len(coral))], Nodes: 16}
		}
		for _, app := range apps.FugakuSuite() {
			for _, c := range []struct{ nodes, count int }{{128, 4}, {512, 3}, {2048, 1}} {
				for j := 0; j < c.count; j++ {
					round = append(round, figPoint{Figure: "7", Platform: apps.OnFugaku, App: app, Nodes: c.nodes})
				}
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for i := range round {
			round[i].Seed = 1 + rng.Int63n(1<<40)
		}
		out = append(out, round...)
	}
	return out
}

// figures runs figure points through the sweep orchestrator with one worker
// and no cache: the cold path `repro` users pay for.
type figures struct {
	seed   int64
	rounds int
	points []figPoint

	payloads [][]byte    // untraced pass, per unit
	traced   []tracedFig // traced pass, per unit
}

// tracedFig is what the traced pass keeps of one unit: the recomposed
// payload and everything the noise replay needs.
type tracedFig struct {
	payload       []byte
	wall, elapsed time.Duration
	executed      int
	nodes, steps  int
	runs          [2]replayInput // Linux, McKernel
}

type replayInput struct {
	profile *noise.Profile
	cores   []int
	seed    int64
	result  bsp.Result
}

func newFigures(seed int64, seconds int) *figures {
	return &figures{seed: seed, rounds: max(1, int(math.Round(float64(seconds)/figuresRoundS)))}
}

func (w *figures) setUp(ctx context.Context) error {
	w.points = figurePoints(w.seed, w.rounds)
	// Payloads outlive a later set-up: the traced run compares its
	// recomposition with the untraced pass that ran before it.
	if w.payloads == nil {
		w.payloads = make([][]byte, len(w.points))
		w.traced = make([]tracedFig, len(w.points))
	}
	warm := figPoint{Figure: "7", Platform: apps.OnFugaku, App: "GeoFEM", Nodes: 512, Seed: w.seed}
	_, err := runFigurePoint(ctx, warm, w.seed)
	return err
}

func (w *figures) units() int { return len(w.points) }

func (w *figures) cpu() (time.Duration, time.Duration, error) { return selfCPU(), 0, nil }

func (w *figures) stop() (float64, error) { return selfPeakRSSMB() }

// runFigurePoint runs one point as a one-trial campaign made by
// campaigns.FigurePoints, exactly as cmd/sweep and cmd/repro do.
func runFigurePoint(ctx context.Context, pt figPoint, campaignSeed int64) ([]byte, error) {
	c, err := campaigns.FigurePoints("perfbench", []core.FigureSpec{{
		Figure: pt.Figure, Platform: pt.Platform, App: pt.App, Nodes: []int{pt.Nodes},
	}}, []int64{pt.Seed}, 0, campaignSeed)
	if err != nil {
		return nil, err
	}
	o, err := sweep.RunContext(ctx, c, sweep.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	if err := o.FirstErr(); err != nil {
		return nil, err
	}
	if len(o.Results) != 1 {
		return nil, fmt.Errorf("campaign returned %d results, want 1", len(o.Results))
	}
	return o.Results[0].Payload, nil
}

func (w *figures) run(ctx context.Context, i int, tr *tracer) error {
	pt := w.points[i]
	if tr == nil {
		p, err := runFigurePoint(ctx, pt, w.seed)
		w.payloads[i] = p
		return err
	}
	// The traced pass recomposes the point from its layers inside a sweep
	// trial, with a span around every Platform.Machine and bsp.Run call.
	u := tr.begin("unit", i, 0)
	defer tr.end(u)
	sp := tr.begin("sweep.RunContext", i, u)
	rec := &w.traced[i]
	c := &sweep.Campaign{Name: "perfbench-traced", Seed: w.seed, Trials: []sweep.Trial{{
		Key:  campaigns.FigurePointKey(pt.Figure, string(pt.Platform), pt.App, pt.Nodes),
		Spec: pt,
		Run: func(*sweep.T) (any, error) {
			ts := tr.begin("sweep.trial", i, sp)
			defer tr.end(ts)
			return recompose(pt, tr, i, ts, rec)
		},
	}}}
	o, err := sweep.RunContext(ctx, c, sweep.Options{Workers: 1})
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := o.FirstErr(); err != nil {
		return err
	}
	rec.payload, rec.wall, rec.elapsed, rec.executed = o.Results[0].Payload, o.Results[0].Wall, o.Elapsed, o.Executed
	return nil
}

// recompose computes a figure point from Platform.Machine and bsp.Run, the
// two layers core.Compare composes.
func recompose(pt figPoint, tr *tracer, unit, parent int, rec *tracedFig) (core.Comparison, error) {
	app, err := apps.ByName(pt.App, pt.Platform)
	if err != nil {
		return core.Comparison{}, err
	}
	p := core.PlatformFor(pt.Platform)
	nodes := p.ClampNodes(pt.Nodes)
	var machines [2]bsp.Machine
	for k, kind := range []cluster.OSKind{cluster.Linux, cluster.McKernel} {
		s := tr.begin("cluster.Machine", unit, parent)
		m, _, err := p.Machine(kind, app.Geometry)
		tr.end(s)
		if err != nil {
			return core.Comparison{}, err
		}
		machines[k] = m
	}
	var rs [2]bsp.Result
	for k, m := range machines {
		s := tr.begin("bsp.Run", unit, parent)
		r, err := bsp.Run(app.Workload, m, nodes, pt.Seed)
		tr.end(s)
		if err != nil {
			return core.Comparison{}, err
		}
		rs[k] = r
		rec.runs[k] = replayInput{profile: m.OS.NoiseProfile(), cores: m.Cores, seed: pt.Seed, result: r}
	}
	rec.nodes, rec.steps = nodes, app.Workload.Steps
	sum, err := stats.Summarize([]float64{float64(rs[0].Runtime) / float64(rs[1].Runtime)})
	if err != nil {
		return core.Comparison{}, err
	}
	return core.Comparison{
		App: app.Workload.Name, Platform: p.Name, Nodes: nodes,
		Relative: sum.Mean, RelErr: sum.Stddev,
		LinuxRuntime: rs[0].Runtime, McKRuntime: rs[1].Runtime,
		LinuxBreakdown: rs[0].Breakdown, McKBreakdown: rs[1].Breakdown,
	}, nil
}

// checkComparison verifies what a single-seed point's payload must satisfy
// whatever its seed.
func checkComparison(pt figPoint, payload []byte) error {
	var c core.Comparison
	if err := json.Unmarshal(payload, &c); err != nil {
		return fmt.Errorf("decoding payload: %w", err)
	}
	p := core.PlatformFor(pt.Platform)
	switch {
	case c.Platform != p.Name || c.Nodes != p.ClampNodes(pt.Nodes):
		return fmt.Errorf("payload is for %s/%d nodes, want %s/%d", c.Platform, c.Nodes, p.Name, pt.Nodes)
	case c.LinuxRuntime <= 0 || c.McKRuntime <= 0:
		return fmt.Errorf("non-positive runtime: linux %v mckernel %v", c.LinuxRuntime, c.McKRuntime)
	case c.Relative != float64(c.LinuxRuntime)/float64(c.McKRuntime) || c.RelErr != 0:
		return fmt.Errorf("relative %v (err %v) is not linux/mckernel runtime of one seed", c.Relative, c.RelErr)
	case c.LinuxBreakdown.Total() <= 0 || c.McKBreakdown.Total() <= 0:
		return fmt.Errorf("empty breakdown")
	}
	return nil
}

func (w *figures) check(ctx context.Context, tr *tracer, layers map[string]float64) map[int]error {
	errs := map[int]error{}
	refs := figuresRef[w.seed]
	for i, pt := range w.points {
		p := w.payloads[i]
		if p == nil {
			errs[i] = fmt.Errorf("no payload")
			continue
		}
		if err := checkComparison(pt, p); err != nil {
			errs[i] = err
		} else if i < len(refs) && digest(p) != refs[i] {
			errs[i] = fmt.Errorf("payload digest %s, reference %s", digest(p), refs[i])
		}
	}
	if tr == nil {
		return errs
	}

	var trials, nodeSteps, timelines int
	var wall, elapsed, timelineT time.Duration
	for i := range w.points {
		rec := w.traced[i]
		if !bytes.Equal(rec.payload, w.payloads[i]) {
			errs[i] = fmt.Errorf("sweep payload differs from its Platform.Machine + bsp.Run recomposition")
			continue
		}
		trials += rec.executed
		wall += rec.wall
		elapsed += rec.elapsed
		for _, r := range rec.runs {
			nodeSteps += rec.nodes * rec.steps
			got, tt, err := replayNoise(r, rec.nodes, rec.steps)
			timelines += rec.nodes
			timelineT += tt
			if err == nil && got != r.result.Breakdown.Noise {
				err = fmt.Errorf("noise replay gives %v, bsp.Run gave %v", got, r.result.Breakdown.Noise)
			}
			if err != nil {
				errs[i] = err
			}
		}
	}
	build, run := tr.total("cluster.Machine"), tr.total("bsp.Run")
	layers["cluster.machine_builds"] = float64(tr.count("cluster.Machine"))
	layers["cluster.machine_build_ms"] = ms(build)
	layers["bsp.runs"] = float64(tr.count("bsp.Run"))
	layers["bsp.node_steps"] = float64(nodeSteps)
	layers["bsp.run_ms"] = ms(run)
	layers["bsp.self_ms"] = ms(run - timelineT)
	layers["noise.timelines"] = float64(timelines)
	layers["noise.timeline_ms"] = ms(timelineT)
	layers["sweep.trials"] = float64(trials)
	layers["sweep.overhead_ms"] = ms(elapsed - wall)
	layers["sweep.busy_frac"] = wall.Seconds() / elapsed.Seconds()
	layers["sweep.self_ms"] = ms(tr.selfTime("sweep"))
	layers["trace.span_coverage"] = (build + run).Seconds() / wall.Seconds()
	return errs
}

// replayNoise regenerates the per-node noise timelines bsp.Run drew for one
// result, from the same public inputs (the machine's noise profile and
// cores, the seed, and the step schedule the result's breakdown implies),
// and bins them into steps as bsp.Run does. It returns the summed per-step
// maximum, which must equal the result's noise, and the time spent in
// Profile.Timeline.
func replayNoise(in replayInput, nodes, steps int) (time.Duration, time.Duration, error) {
	b := in.result.Breakdown
	if steps < 1 {
		return 0, 0, fmt.Errorf("workload has %d steps", steps)
	}
	stepBusy := (b.Compute + b.MemMgmt + b.Comm + b.Barrier) / time.Duration(steps)
	if stepBusy <= 0 {
		return 0, 0, nil
	}
	horizon := b.Init + time.Duration(steps)*stepBusy
	delays := make([]time.Duration, steps)
	base := sim.NewRand(in.seed)
	var gen time.Duration
	for n := 0; n < nodes; n++ {
		t0 := time.Now()
		tl := in.profile.Timeline(horizon, base.Derive(int64(n)))
		gen += time.Since(t0)
		for _, core := range in.cores {
			perStep := map[int]time.Duration{}
			for _, iv := range tl.ForCPU(core) {
				at := iv.Start.Duration() - b.Init
				if at < 0 {
					continue
				}
				step := int(at / stepBusy)
				if step >= steps {
					break
				}
				perStep[step] += iv.Len
			}
			for s, d := range perStep {
				delays[s] = max(delays[s], d)
			}
		}
	}
	var total time.Duration
	for _, d := range delays {
		total += d
	}
	return total, gen, nil
}
