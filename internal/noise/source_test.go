package noise

import (
	"testing"
	"time"

	"mkos/internal/sim"
)

func validSource() *Source {
	return &Source{
		Name:   "daemon",
		Cores:  []int{0},
		Mode:   TargetOne,
		Every:  time.Millisecond,
		Length: 10 * time.Microsecond,
	}
}

// generate draws one source's interruptions over [0, horizon) the way a
// node timeline does, through a one-source profile's Generator.
func generate(s *Source, horizon time.Duration, rng *sim.Rand) []Interruption {
	p := Profile{Sources: []*Source{s}}
	return p.Generator().AppendNode(nil, horizon, rng)
}

func TestSourceValidate(t *testing.T) {
	if err := validSource().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Source{
		{Cores: []int{0}, Every: time.Second, Length: time.Microsecond},
		{Name: "x", Every: time.Second, Length: time.Microsecond},
		{Name: "x", Cores: []int{0}, Length: time.Microsecond},
		{Name: "x", Cores: []int{0}, Every: time.Second},
		{Name: "x", Cores: []int{0}, Every: time.Second, Length: time.Microsecond, TailProb: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad source %d passed validation", i)
		}
	}
}

// TestSourceValidateRejectsTailWithoutFactor is the regression test for a
// tail probability with no tail factor: Pareto(0, alpha) is 0, so every
// tail event used to become a silent zero-length interruption.
func TestSourceValidateRejectsTailWithoutFactor(t *testing.T) {
	for _, factor := range []float64{0, -3} {
		s := validSource()
		s.TailProb, s.TailFactor = 0.01, factor
		if err := s.Validate(); err == nil {
			t.Fatalf("tail probability 0.01 with tail factor %v passed validation", factor)
		}
		if err := (&Profile{}).Add(s); err == nil {
			t.Fatalf("Profile.Add accepted tail factor %v", factor)
		}
	}
	// Without a tail the factor is unused, so zero stays valid.
	s := validSource()
	s.TailFactor = 0
	if err := s.Validate(); err != nil {
		t.Fatalf("tail-free source with zero factor: %v", err)
	}
	s.TailProb, s.TailFactor = 0.01, 5
	if err := s.Validate(); err != nil {
		t.Fatalf("tail with positive factor: %v", err)
	}
}

func TestSourceGenerateCountAndOrder(t *testing.T) {
	s := validSource()
	rng := sim.NewRand(1)
	ivs := generate(s, time.Second, rng)
	// ~1000 events at 1ms intervals over 1s.
	if len(ivs) < 800 || len(ivs) > 1200 {
		t.Fatalf("event count = %d, want ~1000", len(ivs))
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start < ivs[i-1].Start {
			t.Fatal("events out of order")
		}
	}
	for _, iv := range ivs {
		if iv.CPU != 0 || iv.Source != "daemon" || iv.Len <= 0 {
			t.Fatalf("bad interruption: %+v", iv)
		}
	}
}

func TestSourceDisabled(t *testing.T) {
	s := validSource()
	s.Disabled = true
	if got := generate(s, time.Second, sim.NewRand(1)); got != nil {
		t.Fatalf("disabled source generated %d events", len(got))
	}
}

func TestSourceTargetingModes(t *testing.T) {
	cores := []int{0, 1, 2, 3}
	mk := func(mode Targeting) []Interruption {
		s := validSource()
		s.Cores = cores
		s.Mode = mode
		return generate(s, 100*time.Millisecond, sim.NewRand(7))
	}

	rr := mk(TargetRoundRobin)
	for i := 1; i < len(rr); i++ {
		if rr[i].CPU != (rr[i-1].CPU+1)%4 {
			t.Fatal("round-robin not cycling")
		}
	}

	all := mk(TargetAll)
	if len(all)%4 != 0 {
		t.Fatalf("TargetAll count %d not multiple of cores", len(all))
	}
	// Events at the same instant must cover all cores.
	seen := map[int]bool{}
	first := all[0].Start
	for _, iv := range all {
		if iv.Start == first {
			seen[iv.CPU] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("TargetAll first event covered %d cores", len(seen))
	}

	random := mk(TargetRandom)
	hit := map[int]int{}
	for _, iv := range random {
		hit[iv.CPU]++
	}
	if len(hit) < 3 {
		t.Fatalf("TargetRandom used only %d cores", len(hit))
	}

	one := mk(TargetOne)
	for _, iv := range one {
		if iv.CPU != 0 {
			t.Fatal("TargetOne must stick to first core")
		}
	}
}

func TestSourceTailEvents(t *testing.T) {
	s := validSource()
	s.TailProb = 0.1
	s.TailFactor = 100
	ivs := generate(s, 10*time.Second, sim.NewRand(3))
	var tails int
	for _, iv := range ivs {
		if iv.Len >= 100*s.Length {
			tails++
		}
	}
	if tails == 0 {
		t.Fatal("no tail events generated with TailProb=0.1")
	}
	frac := float64(tails) / float64(len(ivs))
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("tail fraction = %v, want ~0.1", frac)
	}
}

func TestSourcePeriodicWhenCVZero(t *testing.T) {
	s := validSource()
	s.EveryCV = 0
	ivs := generate(s, 100*time.Millisecond, sim.NewRand(5))
	for i := 2; i < len(ivs); i++ {
		gap := ivs[i].Start.Sub(ivs[i-1].Start)
		if gap != time.Millisecond {
			t.Fatalf("period drifted: %v", gap)
		}
	}
}

func TestProfileTimelineDeterministicAndIsolated(t *testing.T) {
	build := func(disableKworker bool) *Timeline {
		var p Profile
		p.MustAdd(&Source{Name: "daemon", Cores: []int{0}, Every: 10 * time.Millisecond, Length: 50 * time.Microsecond})
		kw := &Source{Name: "kworker", Cores: []int{1}, Every: 5 * time.Millisecond, Length: 20 * time.Microsecond, Disabled: disableKworker}
		p.MustAdd(kw)
		return p.Timeline(time.Second, sim.NewRand(42))
	}
	a, b := build(false), build(false)
	if len(a.ForCPU(0)) != len(b.ForCPU(0)) || a.TotalStolen(0) != b.TotalStolen(0) {
		t.Fatal("timeline not deterministic")
	}
	// Disabling kworker must not perturb the daemon stream (independent
	// derived RNG streams — required by the Table 2 methodology).
	c := build(true)
	if a.TotalStolen(0) != c.TotalStolen(0) || len(a.ForCPU(0)) != len(c.ForCPU(0)) {
		t.Fatal("disabling one source changed another source's draws")
	}
	if len(c.ForCPU(1)) != 0 {
		t.Fatal("disabled source still produced events")
	}
}

func TestProfileAddValidates(t *testing.T) {
	var p Profile
	if err := p.Add(&Source{}); err == nil {
		t.Fatal("invalid source accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd must panic on invalid source")
		}
	}()
	p.MustAdd(&Source{})
}

func TestProfileByName(t *testing.T) {
	var p Profile
	s := validSource()
	p.MustAdd(s)
	if p.ByName("daemon") != s {
		t.Fatal("ByName miss")
	}
	if p.ByName("nope") != nil {
		t.Fatal("ByName false positive")
	}
}

func TestTimelineAdvanceNoNoise(t *testing.T) {
	tl := newTimeline(nil)
	end := tl.Advance(0, sim.Time(100), time.Microsecond)
	if end != sim.Time(100).Add(time.Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestTimelineAdvanceSimpleSteal(t *testing.T) {
	tl := newTimeline([]Interruption{{Start: sim.Time(500), Len: 100 * time.Nanosecond, CPU: 0}})
	// Work [0, 1000ns) overlaps the interruption: end pushed to 1100ns.
	end := tl.Advance(0, 0, 1000*time.Nanosecond)
	if end != sim.Time(1100) {
		t.Fatalf("end = %v, want 1100", end)
	}
	// Work entirely before the interruption is unaffected.
	if end := tl.Advance(0, 0, 400*time.Nanosecond); end != sim.Time(400) {
		t.Fatalf("end = %v, want 400", end)
	}
	// Work after the interruption is unaffected.
	if end := tl.Advance(0, sim.Time(700), 100*time.Nanosecond); end != sim.Time(800) {
		t.Fatalf("end = %v, want 800", end)
	}
	// Other CPUs are unaffected.
	if end := tl.Advance(1, 0, 1000*time.Nanosecond); end != sim.Time(1000) {
		t.Fatalf("cpu1 end = %v", end)
	}
}

func TestTimelineAdvancePartialOverlapAtStart(t *testing.T) {
	tl := newTimeline([]Interruption{{Start: sim.Time(0), Len: 1000 * time.Nanosecond, CPU: 0}})
	// Work starting at 600 inside the [0,1000) interruption: the remaining
	// 400ns steal applies.
	end := tl.Advance(0, sim.Time(600), 100*time.Nanosecond)
	if end != sim.Time(1100) {
		t.Fatalf("end = %v, want 1100", end)
	}
}

func TestTimelineAdvanceCascade(t *testing.T) {
	// Noise extending the window exposes the work to later noise: work of
	// 1000ns from 0 with interruptions at 900 (len 200) and 1100 (len 300)
	// ends at 1000+200+300 = 1500.
	tl := newTimeline([]Interruption{
		{Start: sim.Time(900), Len: 200 * time.Nanosecond, CPU: 0},
		{Start: sim.Time(1100), Len: 300 * time.Nanosecond, CPU: 0},
	})
	end := tl.Advance(0, 0, 1000*time.Nanosecond)
	if end != sim.Time(1500) {
		t.Fatalf("end = %v, want 1500 (cascading steal)", end)
	}
}
