package apps

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"math"
	goruntime "runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// machineTestConfig is a small two-class population: even nodes measure two
// cores, odd nodes one, so class routing and heterogeneous core sets are
// both exercised.
func machineTestConfig(nodes, shards int) FWQMachineConfig {
	quiet := &noise.Profile{}
	quiet.MustAdd(&noise.Source{
		Name: "tick", Cores: []int{0}, Mode: noise.TargetOne,
		Every: 20 * time.Millisecond, Length: 60 * time.Microsecond, LengthCV: 0.4,
	})
	return FWQMachineConfig{
		Work: 6500 * time.Microsecond, Duration: 2 * time.Second,
		Nodes: nodes, Seed: 42, Shards: shards, WorstK: 3,
		Lookahead: 490 * time.Nanosecond,
		Classes: []FWQClass{
			{Cores: []int{0, 1}, Profile: noisyProfile()},
			{Cores: []int{0}, Profile: quiet},
		},
		ClassOf: func(n int) int { return n % 2 },
	}
}

// DigestOf reduces an analysis to the digest a node reports: the total is
// the sum of per-iteration noise lengths, the quantity WorstBy ranks on.
// It is the reference the in-situ digest is tested against, exported for
// the external equivalence tests.
func DigestOf(node int, a noise.Analysis) FWQDigest {
	var total time.Duration
	for _, l := range a.Lengths {
		total += l
	}
	return FWQDigest{
		Node: node, N: a.N,
		TminNS: int64(a.Tmin), TmaxNS: int64(a.Tmax),
		MaxNoiseNS: int64(a.MaxNoise), TotalNoiseNS: int64(total),
		Rate: a.Rate,
	}
}

// NodeWalk is what the campaign's per-node walk made of one node: its
// digest, its perturbed durations in walk order, and each measured core's
// events in the order it walked them and its run.
type NodeWalk struct {
	Digest    FWQDigest
	Perturbed []time.Duration
	Events    map[int][]noise.Interruption
	Cores     map[int]FWQCore
}

// WalkNode digests one node of class cls from its stream seed the way the
// campaign does, exported for the external equivalence tests.
func WalkNode(cfg *FWQMachineConfig, cls int, seed int64) (NodeWalk, error) {
	w := newFWQNodeWalker(cfg)
	d, err := w.digest(0, cls, seed)
	if err != nil {
		return NodeWalk{}, err
	}
	nw := NodeWalk{Digest: d, Perturbed: w.perturbed, Events: map[int][]noise.Interruption{}, Cores: map[int]FWQCore{}}
	srcs := cfg.Classes[cls].Profile.Sources
	c := w.classes[cls]
	cores := c.walks(cfg.Work, make([]FWQCore, len(c.cores)))
	for i, core := range c.cores {
		nw.Cores[core] = cores[i]
		for _, e := range c.sorted(core) {
			i := slices.Index(c.rank, e.rank)
			nw.Events[core] = append(nw.Events[core], noise.Interruption{Start: e.start, Len: e.len, CPU: core, Source: srcs[i].Name})
		}
	}
	return nw, nil
}

// Iterations spells out the core's run: every iteration's duration in time
// order, Work at each place At does not name. It returns nil unless At
// names distinct places of the run in increasing order, one per perturbed
// iteration.
func (c *FWQCore) Iterations() []time.Duration {
	out := make([]time.Duration, c.Clean+int64(len(c.Perturbed)))
	for i := range out {
		out[i] = c.Work
	}
	if len(c.At) != len(c.Perturbed) {
		return nil
	}
	for k, at := range c.At {
		if at < 0 || at >= int64(len(out)) || k > 0 && at <= c.At[k-1] {
			return nil
		}
		out[at] = c.Perturbed[k]
	}
	return out
}

// AllIterations flattens every core's samples in core order.
func (r *FWQRun) AllIterations() []time.Duration {
	var out []time.Duration
	for _, core := range sortedKeys(r.PerCore) {
		out = append(out, r.PerCore[core]...)
	}
	return out
}

func TestFWQMachineByteIdenticalAcrossShardCounts(t *testing.T) {
	const nodes = 12
	var want []byte
	for _, shards := range []int{1, 2, 5, 12} {
		res, sres, err := FWQMachine(machineTestConfig(nodes, shards))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob
			continue
		}
		if string(blob) != string(want) {
			t.Errorf("%d shards: result differs from sequential\n got: %s\nwant: %s", shards, blob, want)
		}
		if shards > 1 && sres.Stats.CrossMessages == 0 {
			t.Errorf("%d shards: no cross-shard digest traffic", shards)
		}
	}
}

// TestFWQMachineRegistryAcrossShardCounts: the fold of the per-shard
// registries, which repro -metrics publishes, dumps byte-identically at 1
// and 4 shards.
func TestFWQMachineRegistryAcrossShardCounts(t *testing.T) {
	const nodes = 12
	var want string
	for _, shards := range []int{1, 4} {
		_, sres, err := FWQMachine(machineTestConfig(nodes, shards))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		var dump strings.Builder
		if _, err := sres.Registry.WriteTo(&dump); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(dump.String(), "fwq.machine.digests 12") {
			t.Fatalf("%d shards: registry dump lacks the digest count:\n%s", shards, dump.String())
		}
		if shards == 1 {
			want = dump.String()
			continue
		}
		if dump.String() != want {
			t.Errorf("%d shards: registry dump differs from 1 shard\n got:\n%s\nwant:\n%s", shards, dump.String(), want)
		}
	}
}

// TestFWQMachineMessageCounters: shard.sent, which each shard publishes
// once per exchange, and fwq.machine.digests, which the collector counts
// per delivery, both equal the node count in the folded registry, and the
// registry dumps identically at 1, 2 and 8 shards under GOMAXPROCS 1 and 4.
func TestFWQMachineMessageCounters(t *testing.T) {
	const nodes = 2*fwqChunk + 37
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 4} {
		goruntime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 8} {
			_, sres, err := FWQMachine(machineTestConfig(nodes, shards))
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %d shards: %v", procs, shards, err)
			}
			for _, name := range []string{"shard.sent", "fwq.machine.digests"} {
				if got := sres.Registry.CounterValue(name); got != nodes {
					t.Errorf("GOMAXPROCS %d, %d shards: %s = %d, want %d", procs, shards, name, got, nodes)
				}
			}
			var dump strings.Builder
			if _, err := sres.Registry.WriteTo(&dump); err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = dump.String()
			} else if dump.String() != want {
				t.Errorf("GOMAXPROCS %d, %d shards: registry dump differs\n got:\n%s\nwant:\n%s", procs, shards, dump.String(), want)
			}
		}
	}
}

// TestFWQMachineDigestsMatchSequentialSketches pins the sharded run to the
// pre-existing sequential per-node sketch path: same seeds, same metrics.
func TestFWQMachineDigestsMatchSequentialSketches(t *testing.T) {
	const nodes = 8
	cfg := machineTestConfig(nodes, 4)
	// Restrict to one class so FWQSketchAcrossNodes (single profile) lines up.
	cfg.Classes = cfg.Classes[:1]
	cfg.ClassOf = nil
	res, _, err := FWQMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sks, err := FWQSketchAcrossNodes(
		FWQConfig{Work: cfg.Work, Duration: cfg.Duration, Cores: cfg.Classes[0].Cores},
		profileOnly{cfg.Classes[0].Profile}, nodes, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for n, sk := range sks {
		want := DigestOf(n, sk.Analysis)
		if res.Digests[n] != want {
			t.Errorf("node %d digest = %+v, sequential sketch says %+v", n, res.Digests[n], want)
		}
	}
}

func TestFWQMachineWorstSelection(t *testing.T) {
	res, _, err := FWQMachine(machineTestConfig(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Worst) != 3 {
		t.Fatalf("worst list has %d entries, want 3", len(res.Worst))
	}
	for i := 1; i < len(res.Worst); i++ {
		a, b := res.Worst[i-1], res.Worst[i]
		if a.Digest.TotalNoiseNS < b.Digest.TotalNoiseNS {
			t.Errorf("worst list not sorted: node %d (%d ns) before node %d (%d ns)",
				a.Node, a.Digest.TotalNoiseNS, b.Node, b.Digest.TotalNoiseNS)
		}
	}
	for _, w := range res.Worst {
		if w.Class != w.Node%2 {
			t.Errorf("node %d carries class %d, want %d", w.Node, w.Class, w.Node%2)
		}
		if w.MaxNS != w.Digest.TminNS+w.Digest.MaxNoiseNS {
			t.Errorf("node %d re-run max %d ns disagrees with digest Tmin+MaxNoise %d ns",
				w.Node, w.MaxNS, w.Digest.TminNS+w.Digest.MaxNoiseNS)
		}
		if w.P50NS > w.P90NS || w.P90NS > w.P99NS || w.P99NS > w.P999NS || w.P999NS > w.MaxNS {
			t.Errorf("node %d quantiles not monotone: %+v", w.Node, w)
		}
	}
	// The selection must agree with noise.WorstBy over the same totals.
	as := make([]noise.Analysis, res.Nodes)
	for n := range as {
		as[n] = noise.Analysis{Lengths: []time.Duration{time.Duration(res.Digests[n].TotalNoiseNS)}}
	}
	for i, idx := range noise.WorstBy(as, 3) {
		if res.Worst[i].Node != idx {
			t.Errorf("worst[%d] = node %d, noise.WorstBy says %d", i, res.Worst[i].Node, idx)
		}
	}
}

// TestWorstNodesMatchesStableSort checks the top-k selection against a
// stable sort of every digest by total noise, descending, on totals with
// many ties, for every k.
func TestWorstNodesMatchesStableSort(t *testing.T) {
	rng := sim.NewRand(3)
	ds := make([]FWQDigest, 200)
	idx := make([]int, len(ds))
	for i := range ds {
		ds[i] = FWQDigest{Node: i, TotalNoiseNS: int64(rng.Intn(20))}
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(ds[b].TotalNoiseNS, ds[a].TotalNoiseNS) })
	for k := 0; k <= len(ds); k++ {
		if got := worstNodes(ds, k); !slices.Equal(got, idx[:k]) {
			t.Fatalf("k=%d: worstNodes = %v, stable sort says %v", k, got, idx[:k])
		}
	}
}

// TestFWQMachineRerunRejectsTamperedDigest checks that a worst node's
// re-run compares its whole digest with the one reported in situ, so a
// digest wrong in any field is an error, not a quietly re-ranked node.
func TestFWQMachineRerunRejectsTamperedDigest(t *testing.T) {
	cfg := machineTestConfig(6, 2)
	res, _, err := FWQMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Worst[0].Digest
	seed := nodeSeeds(cfg.Seed, []int{d.Node})[0]
	w := newFWQNodeWalker(&cfg)
	if _, err := w.rerunWorst(cfg.ClassOf(d.Node), seed, d); err != nil {
		t.Fatalf("re-run of the reported digest: %v", err)
	}
	for _, c := range []struct {
		field  string
		tamper func(*FWQDigest)
	}{
		{"N", func(d *FWQDigest) { d.N-- }},
		{"Tmin", func(d *FWQDigest) { d.TminNS++ }},
		{"Tmax", func(d *FWQDigest) { d.TmaxNS-- }},
		{"MaxNoise", func(d *FWQDigest) { d.MaxNoiseNS++ }},
		{"TotalNoise", func(d *FWQDigest) { d.TotalNoiseNS++ }},
		{"Rate", func(d *FWQDigest) { d.Rate = math.Nextafter(d.Rate, 1) }},
	} {
		bad := d
		c.tamper(&bad)
		if _, err := w.rerunWorst(cfg.ClassOf(d.Node), seed, bad); err == nil {
			t.Errorf("digest with a tampered %s accepted by the re-run", c.field)
		}
	}
}

func TestFWQMachineSummaryMergesDigests(t *testing.T) {
	res, _, err := FWQMachine(machineTestConfig(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var total int64
	for _, d := range res.Digests {
		n += d.N
		total += d.TotalNoiseNS
	}
	if res.Summary.N != n || res.Summary.TotalNoiseNS != total {
		t.Errorf("summary %+v does not total the digests (N=%d, total=%d)", res.Summary, n, total)
	}
	if res.Summary.MaxNoiseNS != res.Summary.TmaxNS-res.Summary.TminNS {
		t.Errorf("summary max noise %d != Tmax-Tmin", res.Summary.MaxNoiseNS)
	}
}

func TestFWQMachineRejectsBadConfig(t *testing.T) {
	bad := []FWQMachineConfig{
		{},
		{Work: time.Millisecond, Duration: time.Second, Nodes: 4},
		{Work: time.Millisecond, Duration: time.Second, Nodes: 4, WorstK: -1,
			Classes: []FWQClass{{Cores: []int{0}, Profile: &noise.Profile{}}}},
		{Work: time.Millisecond, Duration: time.Second, Nodes: 4,
			Classes: []FWQClass{{Profile: &noise.Profile{}}}},
		{Work: time.Millisecond, Duration: time.Second, Nodes: 4,
			Classes: []FWQClass{{Cores: []int{0}}}},
	}
	for i, cfg := range bad {
		if _, _, err := FWQMachine(cfg); !errors.Is(err, ErrBadMachineConfig) {
			t.Errorf("config %d: err = %v, want ErrBadMachineConfig", i, err)
		}
	}
	// A class map pointing outside Classes surfaces as a setup error.
	cfg := machineTestConfig(4, 2)
	cfg.ClassOf = func(int) int { return 99 }
	if _, _, err := FWQMachine(cfg); !errors.Is(err, ErrBadMachineConfig) {
		t.Errorf("out-of-range class: err = %v, want ErrBadMachineConfig", err)
	}
}

func TestFWQMachineCancel(t *testing.T) {
	cfg := machineTestConfig(8, 2)
	cfg.Cancel = func() bool { return true }
	if _, _, err := FWQMachine(cfg); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
}

// TestFWQMachineAcrossWorkerCounts: each shard digests its nodes, and the
// worst-K re-run replays them, over a number of worker goroutines, and
// neither the result nor the counters may depend on it. The node counts
// leave an uneven last chunk, fewer nodes per shard than workers, and a
// single node.
func TestFWQMachineAcrossWorkerCounts(t *testing.T) {
	dump := func(r *telemetry.Registry) string {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, nodes := range []int{2*fwqChunk + 37, 4, 1} {
		for _, shards := range []int{1, 3} {
			if shards > nodes {
				continue
			}
			var want [3]string
			for _, workers := range []int{1, 2, 3, 5, nodes + 1} {
				cfg := machineTestConfig(nodes, shards)
				cfg.Sink = telemetry.NewSink()
				res, sres, err := fwqMachine(context.Background(), cfg, workers)
				if err != nil {
					t.Fatalf("%d nodes, %d shards, %d workers: %v", nodes, shards, workers, err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				// The result, the shards' folded counters and the re-run's.
				got := [3]string{string(blob), dump(sres.Registry), dump(cfg.Sink.Registry())}
				if workers == 1 {
					want = got
					continue
				}
				for i, what := range []string{"result", "shard registry", "re-run registry"} {
					if got[i] != want[i] {
						t.Errorf("%d nodes, %d shards, %d workers: %s differs from 1 worker\n got: %s\nwant: %s",
							nodes, shards, workers, what, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFWQMachineCancelAfterFirstEvent: a cancellation that arrives once
// node events have fired, with chunks fanned out over several workers,
// stops the run with sim.ErrCanceled.
func TestFWQMachineCancelAfterFirstEvent(t *testing.T) {
	cfg := machineTestConfig(4*fwqChunk+37, 1)
	// The engine polls the hook before its first event and then every 1024
	// events: the second poll comes after the first four chunks.
	var polls atomic.Int64
	cfg.Cancel = func() bool { return polls.Add(1) > 1 }
	if _, _, err := fwqMachine(context.Background(), cfg, 3); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	if polls.Load() < 2 {
		t.Fatalf("cancel hook polled %d times; the run ended before any node event", polls.Load())
	}
}
