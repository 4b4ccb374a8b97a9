package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/sim"
)

const (
	// fwqDuration is the simulated FWQ length of one campaign; with the
	// paper's 6.5 ms quantum a 1,280-1,792-node campaign takes a few
	// tenths of a second on a 2-vCPU host.
	fwqDuration = 2 * time.Second
	// fwqWorstK and fwqShards are the unit's campaign shape: the paper's
	// worst-100 re-run, on the sequential (1-shard) runner.
	fwqWorstK = 100
	fwqShards = 1
	// fwqRoundS is roughly how long one round (two McKernel campaigns and
	// one Linux campaign) takes on a 2-vCPU host; --seconds is converted
	// into whole rounds with it.
	fwqRoundS = 0.9
)

// fwqUnit is one full-machine FWQ campaign on Fugaku.
type fwqUnit struct {
	OS    cluster.OSKind `json:"os"`
	Nodes int            `json:"nodes"`
	Seed  int64          `json:"seed"`
}

// fwqUnits generates the run's campaigns. Every round of three holds two
// McKernel campaigns and one Linux campaign (Linux costs about twice as
// much), so the median always falls on a McKernel campaign and the tail on
// a Linux one whatever the seed. The seed picks the order, each node count
// (1,280-1,792 in steps of 32) and each campaign seed.
func fwqUnits(seed int64, rounds int) []fwqUnit {
	rng := rand.New(rand.NewSource(seed))
	var out []fwqUnit
	for r := 0; r < rounds; r++ {
		round := []fwqUnit{{OS: cluster.McKernel}, {OS: cluster.McKernel}, {OS: cluster.Linux}}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for i := range round {
			round[i].Nodes = 1280 + 32*rng.Intn(17)
			round[i].Seed = 1 + rng.Int63n(1<<40)
		}
		out = append(out, round...)
	}
	return out
}

// fwqMachine runs cluster.Platform.MachineFWQ followed by
// apps.FWQMachineContext: long-horizon noise generation with per-iteration
// Timeline.Advance reads, the sim engine, the shard runner and the worst-K
// re-run, and no buddy allocator.
type fwqMachine struct {
	seed   int64
	rounds int
	plat   *cluster.Platform
	list   []fwqUnit
	out    []fwqOut
}

// fwqOut is what a pass keeps of one campaign.
type fwqOut struct {
	cfg    apps.FWQMachineConfig
	res    *apps.FWQMachineResult
	digest string
	events uint64
}

func newFWQMachine(seed int64, seconds int) *fwqMachine {
	return &fwqMachine{seed: seed, rounds: max(1, int(math.Round(float64(seconds)/fwqRoundS)))}
}

func (w *fwqMachine) setUp(ctx context.Context) error {
	w.list = fwqUnits(w.seed, w.rounds)
	w.out = make([]fwqOut, len(w.list))
	w.plat = cluster.Fugaku()
	_, err := w.campaign(ctx, fwqUnit{OS: cluster.McKernel, Nodes: 1024, Seed: w.seed}, fwqShards)
	return err
}

func (w *fwqMachine) units() int { return len(w.list) }

func (w *fwqMachine) cpu() (time.Duration, time.Duration, error) { return selfCPU(), 0, nil }

func (w *fwqMachine) stop() (float64, error) { return selfPeakRSSMB() }

// campaign runs one unit untraced at the given shard count.
func (w *fwqMachine) campaign(ctx context.Context, u fwqUnit, shards int) (fwqOut, error) {
	cfg, err := w.plat.MachineFWQ(u.OS, u.Nodes, 0, fwqDuration, u.Seed, shards, fwqWorstK)
	if err != nil {
		return fwqOut{}, err
	}
	res, sres, err := apps.FWQMachineContext(ctx, cfg)
	if err != nil {
		return fwqOut{}, err
	}
	return newFWQOut(cfg, res, sres.Stats.Events)
}

func newFWQOut(cfg apps.FWQMachineConfig, res *apps.FWQMachineResult, events uint64) (fwqOut, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return fwqOut{}, err
	}
	return fwqOut{cfg: cfg, res: res, digest: digest(blob), events: events}, nil
}

// spanObserver turns the shard runner's progress callbacks into the bounds
// of the shard.run span: first WindowStart to last ShardDone.
type spanObserver struct {
	tr          *tracer
	mu          sync.Mutex
	first, last time.Duration
	started     bool
}

func (o *spanObserver) WindowStart(int, sim.Time) {
	o.mu.Lock()
	if !o.started {
		o.first, o.started = o.tr.now(), true
	}
	o.mu.Unlock()
}

func (o *spanObserver) ShardDone(int, int) {
	at := o.tr.now()
	o.mu.Lock()
	o.last = max(o.last, at)
	o.mu.Unlock()
}

func (o *spanObserver) Exchanged(int, int) {}

func (w *fwqMachine) run(ctx context.Context, i int, tr *tracer) error {
	u := w.list[i]
	if tr == nil {
		out, err := w.campaign(ctx, u, fwqShards)
		w.out[i] = out
		return err
	}
	us := tr.begin("unit", i, 0)
	defer tr.end(us)
	s := tr.begin("cluster.MachineFWQ", i, us)
	cfg, err := w.plat.MachineFWQ(u.OS, u.Nodes, 0, fwqDuration, u.Seed, fwqShards, fwqWorstK)
	tr.end(s)
	if err != nil {
		return err
	}
	obs := &spanObserver{tr: tr}
	cfg.Observer = obs
	a := tr.begin("apps.FWQMachineContext", i, us)
	res, sres, err := apps.FWQMachineContext(ctx, cfg)
	end := tr.end(a)
	if err != nil {
		return err
	}
	tr.add("shard.run", i, a, obs.first, obs.last)
	tr.add("apps.rerun_worst", i, a, obs.last, end)
	cfg.Observer = nil
	w.out[i], err = newFWQOut(cfg, res, sres.Stats.Events)
	return err
}

// checkFWQ verifies what a campaign's result must satisfy whatever its
// seed: one digest per node in node order, the summary folding them, and
// the worst-K list ranked by total noise and matching the digests.
func checkFWQ(u fwqUnit, r *apps.FWQMachineResult) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	if r.Nodes != u.Nodes || r.Seed != u.Seed || len(r.Digests) != u.Nodes || r.Windows < 1 {
		return fmt.Errorf("result has %d nodes, seed %d, %d digests, %d windows; want %d nodes, seed %d",
			r.Nodes, r.Seed, len(r.Digests), r.Windows, u.Nodes, u.Seed)
	}
	n := 0
	for k, d := range r.Digests {
		if d.Node != k || d.N < 1 {
			return fmt.Errorf("digest %d is for node %d with %d iterations", k, d.Node, d.N)
		}
		n += d.N
	}
	if r.Summary.N != n {
		return fmt.Errorf("summary counts %d iterations, digests %d", r.Summary.N, n)
	}
	if len(r.Worst) != min(fwqWorstK, u.Nodes) {
		return fmt.Errorf("%d worst nodes, want %d", len(r.Worst), min(fwqWorstK, u.Nodes))
	}
	for j, wn := range r.Worst {
		if wn.Digest != r.Digests[wn.Node] {
			return fmt.Errorf("worst node %d digest differs from its in-situ digest", wn.Node)
		}
		if j > 0 && wn.Digest.TotalNoiseNS > r.Worst[j-1].Digest.TotalNoiseNS {
			return fmt.Errorf("worst list not ranked by total noise at %d", j)
		}
	}
	return nil
}

func (w *fwqMachine) check(ctx context.Context, tr *tracer, layers map[string]float64) map[int]error {
	errs := map[int]error{}
	refs := fwqRef[w.seed]
	for i, u := range w.list {
		o := w.out[i]
		if err := checkFWQ(u, o.res); err != nil {
			errs[i] = err
		} else if i < len(refs) && o.digest != refs[i] {
			errs[i] = fmt.Errorf("result digest %s, reference %s", o.digest, refs[i])
		}
	}
	if tr == nil {
		return errs
	}

	var events, iters, windows, timelines int
	var gen, adv time.Duration
	for i, u := range w.list {
		o := w.out[i]
		if o.res == nil {
			continue
		}
		events += int(o.events)
		iters += o.res.Summary.N
		windows += o.res.Windows
		two, err := w.campaign(ctx, u, 2)
		if err == nil && two.digest != o.digest {
			err = fmt.Errorf("result at 2 shards differs from 1 shard")
		}
		if err == nil {
			var g, a time.Duration
			g, a, err = replayFWQ(o)
			gen, adv = gen+g, adv+a
			timelines += u.Nodes
		}
		if err != nil {
			errs[i] = err
		}
	}
	run := tr.total("shard.run")
	layers["cluster.machinefwq_setup_ms"] = ms(tr.total("cluster.MachineFWQ"))
	layers["shard.run_ms"] = ms(run)
	layers["shard.windows"] = float64(windows)
	layers["apps.rerun_worst_ms"] = ms(tr.total("apps.rerun_worst"))
	layers["apps.self_ms"] = ms(tr.selfTime("apps"))
	layers["apps.sim_iterations"] = float64(iters)
	layers["sim.events"] = float64(events)
	layers["sim.ns_per_event"] = float64(run.Nanoseconds()) / float64(max(1, events))
	layers["noise.timelines"] = float64(timelines)
	layers["noise.timeline_ms"] = ms(gen)
	layers["noise.advance_ms"] = ms(adv)
	return errs
}

// replayFWQ regenerates every node's timeline from the campaign's public
// inputs (the per-class noise profile and cores, and the node streams
// derived from the campaign seed in node order) and re-runs the FWQ sketch
// on it. Every node must reproduce the digest the campaign reported. It
// returns the time spent in Profile.Timeline and in the sketch, whose cost
// is its Timeline.Advance reads.
func replayFWQ(o fwqOut) (gen, adv time.Duration, err error) {
	cfg := o.cfg
	base := sim.NewRand(cfg.Seed)
	for n := 0; n < cfg.Nodes; n++ {
		seed := base.DeriveSeed(int64(n))
		class := cfg.Classes[cfg.ClassOf(n)]
		t0 := time.Now()
		tl := class.Profile.Timeline(cfg.Duration, sim.NewRand(seed))
		t1 := time.Now()
		sk, err := apps.RunFWQSketch(apps.FWQConfig{Work: cfg.Work, Duration: cfg.Duration, Cores: class.Cores}, tl)
		adv += time.Since(t1)
		gen += t1.Sub(t0)
		if err != nil {
			return gen, adv, err
		}
		var total time.Duration
		for _, l := range sk.Analysis.Lengths {
			total += l
		}
		d := o.res.Digests[n]
		if int64(sk.Analysis.Tmin) != d.TminNS || int64(sk.Analysis.Tmax) != d.TmaxNS ||
			sk.Analysis.N != d.N || int64(total) != d.TotalNoiseNS {
			return gen, adv, fmt.Errorf("node %d: replayed timeline does not reproduce its digest", n)
		}
	}
	return gen, adv, nil
}
