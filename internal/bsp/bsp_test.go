package bsp

import (
	"testing"
	"time"

	"mkos/internal/interconnect"
	"mkos/internal/noise"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// fakeOS is a minimal OS model with controllable costs.
type fakeOS struct {
	name     string
	profile  *noise.Profile
	overhead float64
	churn    time.Duration
	reg      time.Duration
	barrier  time.Duration
	cache    float64
}

func (f *fakeOS) Name() string                                     { return f.name }
func (f *fakeOS) NoiseProfile() *noise.Profile                     { return f.profile }
func (f *fakeOS) TranslationOverhead(int64, time.Duration) float64 { return f.overhead }
func (f *fakeOS) HeapChurnCost(int64, int, int) time.Duration      { return f.churn }
func (f *fakeOS) RDMARegistrationCost(int64) time.Duration         { return f.reg }
func (f *fakeOS) BarrierLatency(int) time.Duration                 { return f.barrier }
func (f *fakeOS) CacheInterferenceFactor() float64                 { return f.cache }

func quietOS(name string) *fakeOS {
	return &fakeOS{name: name, profile: &noise.Profile{}, cache: 1}
}

func noisyOS(name string, length, every time.Duration) *fakeOS {
	p := &noise.Profile{}
	p.MustAdd(&noise.Source{
		Name: "nz", Cores: []int{0, 1}, Mode: noise.TargetRandom,
		Every: every, Length: length,
	})
	return &fakeOS{name: name, profile: p, cache: 1}
}

func testWorkload() Workload {
	return Workload{
		Name: "w", Scaling: StrongScaling, RefNodes: 64,
		Steps: 10, StepCompute: 10 * time.Millisecond,
		WorkingSetPerRank: 1 << 30, MemAccessPeriod: 100 * time.Nanosecond,
	}
}

func testMachine(os OS) Machine {
	return Machine{
		OS: os, Fabric: interconnect.TofuD(),
		Cores: []int{0, 1}, RanksPerNode: 2, ThreadsPerRank: 1,
	}
}

func TestRunBasic(t *testing.T) {
	r, err := Run(testWorkload(), testMachine(quietOS("q")), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.App != "w" || r.OS != "q" || r.Nodes != 64 {
		t.Fatalf("metadata wrong: %+v", r)
	}
	// Quiet OS, no churn: runtime = steps*(compute+comm+barrier).
	if r.Breakdown.Noise != 0 {
		t.Fatalf("quiet OS produced noise %v", r.Breakdown.Noise)
	}
	if r.Breakdown.Compute != 100*time.Millisecond {
		t.Fatalf("compute = %v, want 100ms", r.Breakdown.Compute)
	}
	if r.Runtime != r.Breakdown.Total() {
		t.Fatal("runtime must equal breakdown total without variance")
	}
}

func TestStrongScalingShrinksCompute(t *testing.T) {
	w := testWorkload()
	m := testMachine(quietOS("q"))
	r64, _ := Run(w, m, 64, 1)
	r256, _ := Run(w, m, 256, 1)
	if r256.Breakdown.Compute*4 != r64.Breakdown.Compute {
		t.Fatalf("strong scaling: compute %v at 256 vs %v at 64", r256.Breakdown.Compute, r64.Breakdown.Compute)
	}
	// Running at fewer nodes than reference grows the work.
	r16, _ := Run(w, m, 16, 1)
	if r16.Breakdown.Compute != 4*r64.Breakdown.Compute {
		t.Fatal("sub-reference node counts must scale work up")
	}
}

func TestWeakScalingKeepsCompute(t *testing.T) {
	w := testWorkload()
	w.Scaling = WeakScaling
	m := testMachine(quietOS("q"))
	r64, _ := Run(w, m, 64, 1)
	r256, _ := Run(w, m, 256, 1)
	if r64.Breakdown.Compute != r256.Breakdown.Compute {
		t.Fatal("weak scaling must keep per-rank compute fixed")
	}
}

func TestNoiseDelaysSteps(t *testing.T) {
	w := testWorkload()
	quiet := testMachine(quietOS("quiet"))
	noisy := testMachine(noisyOS("noisy", 500*time.Microsecond, 5*time.Millisecond))
	rq, _ := Run(w, quiet, 64, 1)
	rn, _ := Run(w, noisy, 64, 1)
	if rn.Breakdown.Noise <= 0 {
		t.Fatal("noisy OS produced no noise delay")
	}
	if rn.Runtime <= rq.Runtime {
		t.Fatal("noise must slow the application")
	}
}

func TestNoiseAmplifiesWithNodes(t *testing.T) {
	// The Eq. 1 mechanism: more nodes → higher probability the per-step max
	// catches an interruption → larger total delay.
	w := testWorkload()
	m := testMachine(noisyOS("noisy", 300*time.Microsecond, 50*time.Millisecond))
	w.Scaling = WeakScaling // keep windows identical; only node count varies
	r1, _ := Run(w, m, 1, 42)
	r64, _ := Run(w, m, 64, 42)
	if r64.Breakdown.Noise <= r1.Breakdown.Noise {
		t.Fatalf("noise at 64 nodes (%v) must exceed 1 node (%v)",
			r64.Breakdown.Noise, r1.Breakdown.Noise)
	}
}

func TestTranslationAndCacheOverheads(t *testing.T) {
	w := testWorkload()
	slow := quietOS("slow")
	slow.overhead = 0.5
	slow.cache = 1.02
	fast := quietOS("fast")
	rs, _ := Run(w, testMachine(slow), 64, 1)
	rf, _ := Run(w, testMachine(fast), 64, 1)
	want := time.Duration(float64(rf.Breakdown.Compute) * 1.5 * 1.02)
	got := rs.Breakdown.Compute
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("compute with overheads = %v, want %v", got, want)
	}
}

func TestInitRegistrations(t *testing.T) {
	w := testWorkload()
	w.InitRegistrations = 100
	w.RegBytes = 1 << 20
	o := quietOS("o")
	o.reg = 5 * time.Microsecond
	r, _ := Run(w, testMachine(o), 64, 1)
	if r.Breakdown.Init != 500*time.Microsecond {
		t.Fatalf("init = %v, want 500us", r.Breakdown.Init)
	}
}

func TestChurnInBreakdown(t *testing.T) {
	w := testWorkload()
	w.HeapChurnPerStep = 1 << 20
	w.HeapCallsPerStep = 10
	o := quietOS("o")
	o.churn = 2 * time.Millisecond
	r, _ := Run(w, testMachine(o), 64, 1)
	if r.Breakdown.MemMgmt != 20*time.Millisecond {
		t.Fatalf("memMgmt = %v, want 20ms", r.Breakdown.MemMgmt)
	}
}

func TestRunVarianceDeterministicPerSeed(t *testing.T) {
	w := testWorkload()
	w.RunVariance = 0.05
	m := testMachine(quietOS("v"))
	a, _ := Run(w, m, 64, 1)
	b, _ := Run(w, m, 64, 1)
	if a.Runtime != b.Runtime {
		t.Fatal("same seed must reproduce exactly")
	}
	c, _ := Run(w, m, 64, 2)
	if a.Runtime == c.Runtime {
		t.Fatal("different seeds should vary under RunVariance")
	}
}

func TestValidationErrors(t *testing.T) {
	good := testWorkload()
	m := testMachine(quietOS("q"))

	bad := good
	bad.Name = ""
	if _, err := Run(bad, m, 4, 1); err == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.Steps = 0
	if _, err := Run(bad, m, 4, 1); err == nil {
		t.Error("zero steps accepted")
	}
	bad = good
	bad.StepCompute = 0
	if _, err := Run(bad, m, 4, 1); err == nil {
		t.Error("zero compute accepted")
	}
	bad = good
	bad.RefNodes = 0
	if _, err := Run(bad, m, 4, 1); err == nil {
		t.Error("zero RefNodes accepted")
	}
	if _, err := Run(good, m, 0, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	badM := m
	badM.OS = nil
	if _, err := Run(good, badM, 4, 1); err == nil {
		t.Error("nil OS accepted")
	}
	badM = m
	badM.Cores = nil
	if _, err := Run(good, badM, 4, 1); err == nil {
		t.Error("no cores accepted")
	}
	badM = m
	badM.RanksPerNode = 0
	if _, err := Run(good, badM, 4, 1); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestCompare(t *testing.T) {
	w := testWorkload()
	slow := quietOS("slow")
	slow.churn = 10 * time.Millisecond
	w.HeapChurnPerStep = 1 << 20
	fast := quietOS("fast")
	ra, rb, rel, err := Compare(w, testMachine(slow), testMachine(fast), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 1.0 {
		t.Fatalf("relative = %v, slow OS must lose", rel)
	}
	if ra.OS != "slow" || rb.OS != "fast" {
		t.Fatal("result order wrong")
	}
}

func TestSampleStepNoiseWindows(t *testing.T) {
	// One deterministic source: every 10ms on core 0, 100us long. With
	// 10ms steps after 0 init, every step should catch about one event.
	p := &noise.Profile{}
	p.MustAdd(&noise.Source{
		Name: "tick", Cores: []int{0}, Mode: noise.TargetOne,
		Every: 10 * time.Millisecond, Length: 100 * time.Microsecond,
	})
	delays := sampleStepNoise(telemetry.NewSink(), p, []int{0}, 1, 10, 0, 10*time.Millisecond, 100*time.Millisecond, 5, 1)
	hits := 0
	for _, d := range delays {
		if d > 0 {
			hits++
		}
	}
	if hits < 8 {
		t.Fatalf("periodic source hit only %d/10 steps", hits)
	}
	// Zero step length yields zero delays.
	z := sampleStepNoise(telemetry.NewSink(), p, []int{0}, 1, 5, 0, 0, time.Second, 5, 1)
	for _, d := range z {
		if d != 0 {
			t.Fatal("zero stepBusy must produce no delays")
		}
	}
}

func TestGeometryStruct(t *testing.T) {
	g := Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	if g.RanksPerNode*g.ThreadsPerRank != 48 {
		t.Fatal("geometry arithmetic")
	}
	_ = sim.NewRand(1) // keep sim import for the engine's seed derivation
}
