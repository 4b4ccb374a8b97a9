package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/core"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value, pc float64
		ok        bool
	}{
		{n: 100, value: 90, pc: 90, ok: true},
		{n: 40, value: 30, pc: 75, ok: true},
		{n: 11, value: 1, pc: 100.0 / 11, ok: true},
		{n: 10, value: 10, pc: 100, ok: false}, // no sample has ten above it: the maximum
		{n: 1, value: 1, pc: 100, ok: false},
	} {
		v, pc, ok := tail(seq(c.n))
		if v != c.value || pc != c.pc || ok != c.ok {
			t.Errorf("tail of 1..%d = %v at p%v (ok %v), want %v at p%v (ok %v)", c.n, v, pc, ok, c.value, c.pc, c.ok)
		}
	}
	if _, _, ok := tail(nil); ok {
		t.Error("tail of no samples reported a percentile")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestInputsFollowSeed checks that each workload's inputs are a function of
// the seed alone: equal for equal seeds, different for different ones.
func TestInputsFollowSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"figures":     func(s int64) any { return figurePoints(s, 2) },
		"fwq_machine": func(s int64) any { return fwqUnits(s, 5) },
		"service": func(s int64) any {
			specs, orig := serviceUnits(s, 5)
			return []any{specs, orig}
		},
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 gave different inputs on two calls", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// TestRoundShape checks the per-round composition the steadiness of the
// medians and tails relies on.
func TestRoundShape(t *testing.T) {
	var ofp []string
	for _, p := range figurePoints(7, 2) {
		if p.Platform == apps.OnOFP {
			ofp = append(ofp, p.Figure)
		}
	}
	if len(ofp) != 2 || ofp[0] == ofp[1] {
		t.Errorf("two figures rounds hold OFP points of figures %v, want one of Figure 5 and one of Figure 6", ofp)
	}
	linux := 0
	for _, u := range fwqUnits(7, 10) {
		if u.OS == cluster.Linux {
			linux++
		}
	}
	if linux != 10 {
		t.Errorf("10 fwq rounds hold %d Linux campaigns, want 10", linux)
	}
	specs, orig := serviceUnits(7, 10)
	resub := 0
	for i, j := range orig {
		if j >= 0 {
			resub++
			if j >= i || orig[j] != -1 || string(specs[i]) != string(specs[j]) {
				t.Errorf("unit %d resubmits unit %d, which is not an earlier new campaign with the same spec", i, j)
			}
		}
	}
	if resub != 10 || orig[0] != -1 {
		t.Errorf("10 service rounds hold %d resubmissions (first unit orig %d), want 10 and a new first unit", resub, orig[0])
	}
	specs, orig = serviceUnits(7, 3)
	pairs := map[string]int{}
	for i, j := range orig {
		if j < 0 {
			var c struct {
				Apps []struct {
					App   string
					Nodes []int
				}
			}
			if err := json.Unmarshal(specs[i], &c); err != nil {
				t.Fatal(err)
			}
			pairs[fmt.Sprint(c.Apps[0].App, c.Apps[0].Nodes)]++
		}
	}
	if len(pairs) != 9 {
		t.Errorf("3 service rounds hold app/node pairs %v, want each of the 9 once", pairs)
	}
}

// TestTamperedFigureFails runs one real figure point untraced and traced,
// then checks that a tampered payload is counted as failed.
func TestTamperedFigureFails(t *testing.T) {
	ctx := context.Background()
	w := newFigures(99, 1) // no reference digests for this seed
	w.points = []figPoint{{Figure: "7", Platform: apps.OnFugaku, App: "GAMERA", Nodes: 128, Seed: 5}}
	w.payloads, w.traced = make([][]byte, 1), make([]tracedFig, 1)
	if err := w.run(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if err := w.run(ctx, 0, tr); err != nil {
		t.Fatal(err)
	}
	layers := map[string]float64{}
	if errs := w.check(ctx, tr, layers); len(errs) != 0 {
		t.Fatalf("untampered point failed its checks: %v", errs)
	}
	if layers["bsp.node_steps"] == 0 || layers["trace.span_coverage"] < 0.95 {
		t.Errorf("traced layers incomplete: %v", layers)
	}

	var c core.Comparison
	if err := json.Unmarshal(w.payloads[0], &c); err != nil {
		t.Fatal(err)
	}
	c.McKRuntime++
	tampered, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	w.payloads[0] = tampered
	if errs := w.check(ctx, nil, nil); errs[0] == nil {
		t.Error("tampered payload passed the untraced check")
	}
	// A payload that is self-consistent but differs from the recomposition
	// is caught by the traced check.
	c.Relative = float64(c.LinuxRuntime) / float64(c.McKRuntime)
	w.payloads[0], _ = json.Marshal(c)
	if errs := w.check(ctx, nil, nil); errs[0] != nil {
		t.Fatalf("self-consistent payload failed the untraced check: %v", errs[0])
	}
	if errs := w.check(ctx, tr, map[string]float64{}); errs[0] == nil {
		t.Error("payload differing from its recomposition passed the traced check")
	}
}

func TestTamperedFWQFails(t *testing.T) {
	w := newFWQMachine(99, 1)
	w.plat = cluster.Fugaku()
	u := fwqUnit{OS: cluster.McKernel, Nodes: 128, Seed: 3}
	out, err := w.campaign(context.Background(), u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFWQ(u, out.res); err != nil {
		t.Fatalf("untampered result failed: %v", err)
	}
	if _, _, err := replayFWQ(out); err != nil {
		t.Fatalf("replay of an untampered result failed: %v", err)
	}
	for name, tamper := range map[string]func(r *apps.FWQMachineResult){
		"summary":   func(r *apps.FWQMachineResult) { r.Summary.N++ },
		"worst":     func(r *apps.FWQMachineResult) { r.Worst[0].Digest.TotalNoiseNS++ },
		"digest":    func(r *apps.FWQMachineResult) { r.Digests[5].Node = 6 },
		"truncated": func(r *apps.FWQMachineResult) { r.Digests = r.Digests[:10] },
	} {
		r := *out.res
		r.Digests = append([]apps.FWQDigest(nil), out.res.Digests...)
		r.Worst = append([]apps.FWQWorstNode(nil), out.res.Worst...)
		tamper(&r)
		if err := checkFWQ(u, &r); err == nil {
			t.Errorf("%s tampering passed the check", name)
		}
	}
	r := *out.res
	r.Digests = append([]apps.FWQDigest(nil), out.res.Digests...)
	r.Digests[7].TotalNoiseNS++
	if _, _, err := replayFWQ(fwqOut{cfg: out.cfg, res: &r}); err == nil {
		t.Error("a digest the timeline replay cannot reproduce passed")
	}
}

func TestTamperedServiceResultFails(t *testing.T) {
	ctx := context.Background()
	specs, orig := serviceUnits(5, 1)
	want, err := reference(ctx, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	w := &service{specs: specs[:2], orig: orig[:2], results: make([][]byte, 2), timing: make([]svcTiming, 2)}
	if orig[1] != 0 {
		// Make unit 1 the resubmission of unit 0 whatever the shuffle did.
		w.specs[1], w.orig[1] = specs[0], 0
	}
	w.results[0], w.results[1] = want, want
	w.timing[1].deduped = true
	if errs := w.check(ctx, nil, nil); len(errs) != 0 {
		t.Fatalf("untampered results failed: %v", errs)
	}
	w.results[1] = append([]byte(" "), want...)
	if errs := w.check(ctx, nil, nil); errs[1] == nil {
		t.Error("resubmission returning different bytes passed")
	}
	w.results[0] = w.results[1]
	if errs := w.check(ctx, nil, nil); errs[0] == nil {
		t.Error("results.json differing from the in-process run passed")
	}
}

var (
	namePat = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPat = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the result
// format, and that BENCHMARK.json declares exactly the metrics printed.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !namePat.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-] or is too long", d.name)
		}
		if !unitPat.MatchString(d.unit) {
			t.Errorf("metric %q has unit %q outside the allowed form", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}

	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(c.declared), c.kind, len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.printed[i].name || d.Unit != c.printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					c.kind, i, d.Name, d.Unit, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
}
