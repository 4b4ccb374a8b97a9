package apps

import (
	"errors"
	"testing"
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
)

func TestFWQConfigValidation(t *testing.T) {
	tl := (&noise.Profile{}).Timeline(time.Second, sim.NewRand(1))
	bad := []FWQConfig{
		{Work: 0, Duration: time.Second, Cores: []int{0}},
		{Work: time.Millisecond, Duration: 0, Cores: []int{0}},
		{Work: time.Millisecond, Duration: time.Second},
	}
	for i, cfg := range bad {
		if _, err := RunFWQ(cfg, tl); !errors.Is(err, ErrBadFWQConfig) {
			t.Fatalf("config %d: err = %v", i, err)
		}
	}
}

func TestFWQNoNoise(t *testing.T) {
	tl := (&noise.Profile{}).Timeline(time.Second, sim.NewRand(1))
	cfg := FWQConfig{Work: 6500 * time.Microsecond, Duration: 65 * time.Millisecond, Cores: []int{0, 1}}
	run, err := RunFWQ(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	for core, iters := range run.PerCore {
		if len(iters) != 10 {
			t.Fatalf("core %d: %d iterations, want 10", core, len(iters))
		}
		for _, it := range iters {
			if it != cfg.Work {
				t.Fatalf("noise-free iteration %v != work %v", it, cfg.Work)
			}
		}
	}
	a, err := run.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxNoise != 0 || a.Rate != 0 {
		t.Fatalf("noise-free analysis reported noise: %+v", a)
	}
	if len(run.AllIterations()) != 20 {
		t.Fatalf("AllIterations = %d", len(run.AllIterations()))
	}
}

func TestFWQCapturesInjectedNoise(t *testing.T) {
	p := &noise.Profile{}
	p.MustAdd(&noise.Source{
		Name: "spike", Cores: []int{0}, Mode: noise.TargetOne,
		Every: 50 * time.Millisecond, Length: 200 * time.Microsecond,
	})
	tl := p.Timeline(time.Second, sim.NewRand(2))
	cfg := FWQConfig{Work: 6500 * time.Microsecond, Duration: time.Second, Cores: []int{0}}
	run, err := RunFWQ(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	a, err := run.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxNoise < 150*time.Microsecond {
		t.Fatalf("max noise %v, want ~200us spikes visible", a.MaxNoise)
	}
	if a.Rate <= 0 {
		t.Fatal("rate must be positive with injected noise")
	}
}

func TestDefaultFWQ(t *testing.T) {
	cfg := DefaultFWQ([]int{1, 2})
	if cfg.Work != 6500*time.Microsecond {
		t.Fatalf("work = %v, want the paper's ~6.5ms quanta", cfg.Work)
	}
	if cfg.Duration != 6*time.Minute {
		t.Fatalf("duration = %v, want the paper's ~6 minute runs", cfg.Duration)
	}
}

func TestFWQAcrossNodesStability(t *testing.T) {
	p := &noise.Profile{}
	p.MustAdd(&noise.Source{
		Name: "s", Cores: []int{0}, Mode: noise.TargetOne,
		Every: 20 * time.Millisecond, Length: 50 * time.Microsecond, LengthCV: 0.5,
	})
	prof := profileOnly{p}
	cfg := FWQConfig{Work: 6500 * time.Microsecond, Duration: 200 * time.Millisecond, Cores: []int{0}}
	// Node k's analysis must be identical whether we simulate 2 or 4 nodes.
	a2, err := FWQAcrossNodes(cfg, prof, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := FWQAcrossNodes(cfg, prof, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if a2[i].MaxNoise != a4[i].MaxNoise || a2[i].Rate != a4[i].Rate {
			t.Fatalf("node %d differs between 2- and 4-node runs (stream stability broken)", i)
		}
	}
	if _, err := FWQAcrossNodes(cfg, prof, 0, 1); !errors.Is(err, ErrBadFWQConfig) {
		t.Fatalf("zero nodes err = %v", err)
	}
}

type profileOnly struct{ p *noise.Profile }

func (p profileOnly) NoiseProfile() *noise.Profile { return p.p }

func TestWorkloadCatalog(t *testing.T) {
	// CORAL apps exist only on OFP.
	for _, name := range CoralSuite() {
		if _, err := ByName(name, OnOFP); err != nil {
			t.Fatalf("%s on OFP: %v", name, err)
		}
		if _, err := ByName(name, OnFugaku); err == nil {
			t.Fatalf("%s must not be available on Fugaku (x86-only builds)", name)
		}
	}
	// Fugaku-project apps exist on both platforms.
	for _, name := range FugakuSuite() {
		for _, p := range []PlatformName{OnOFP, OnFugaku} {
			if _, err := ByName(name, p); err != nil {
				t.Fatalf("%s on %s: %v", name, p, err)
			}
		}
	}
	if _, err := ByName("HPL", OnOFP); err == nil {
		t.Fatal("unknown app must fail")
	}
	var ua ErrUnknownApp
	if _, err := ByName("HPL", OnOFP); !errors.As(err, &ua) {
		t.Fatal("error type must be ErrUnknownApp")
	}
	if ua.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestWorkloadsValidate(t *testing.T) {
	for _, name := range append(CoralSuite(), FugakuSuite()...) {
		for _, p := range []PlatformName{OnOFP, OnFugaku} {
			app, err := ByName(name, p)
			if err != nil {
				continue
			}
			if err := app.Workload.Validate(); err != nil {
				t.Errorf("%s/%s: %v", name, p, err)
			}
			if app.MaxNodes < app.Workload.RefNodes {
				t.Errorf("%s/%s: MaxNodes %d < RefNodes %d", name, p, app.MaxNodes, app.Workload.RefNodes)
			}
			if app.Geometry.RanksPerNode < 1 || app.Geometry.ThreadsPerRank < 1 {
				t.Errorf("%s/%s: bad geometry", name, p)
			}
		}
	}
}

func TestGeometriesMatchArtifactDescription(t *testing.T) {
	lqcd, _ := LQCD(OnOFP)
	if lqcd.Geometry.RanksPerNode != 4 || lqcd.Geometry.ThreadsPerRank != 32 {
		t.Fatal("OFP LQCD must run 4 ranks x 32 threads (AD appendix)")
	}
	geofem, _ := GeoFEM(OnOFP)
	if geofem.Geometry.RanksPerNode != 16 || geofem.Geometry.ThreadsPerRank != 8 {
		t.Fatal("OFP GeoFEM must run 16 ranks x 8 threads (AD appendix)")
	}
	gamera, _ := GAMERA(OnOFP)
	if gamera.Geometry.RanksPerNode != 8 || gamera.Geometry.ThreadsPerRank != 8 {
		t.Fatal("OFP GAMERA must run 8 ranks x 8 threads (AD appendix)")
	}
	for _, name := range FugakuSuite() {
		app, _ := ByName(name, OnFugaku)
		if app.Geometry.RanksPerNode != 4 || app.Geometry.ThreadsPerRank != 12 {
			t.Fatalf("%s on Fugaku must run 4 ranks x 12 threads (one per CMG)", name)
		}
	}
}

func TestLQCDHasNoChurn(t *testing.T) {
	// The in-place BiCGStab solver is the reason Fugaku LQCD shows no
	// McKernel gain; the workload must reflect that.
	app, _ := LQCD(OnFugaku)
	if app.Workload.HeapChurnPerStep != 0 {
		t.Fatal("LQCD must have no per-step heap churn")
	}
}

func TestGAMERAIsInitDominatedAtScale(t *testing.T) {
	app, _ := GAMERA(OnFugaku)
	if app.Workload.InitRegistrations == 0 {
		t.Fatal("GAMERA must perform RDMA registrations at init")
	}
	if app.Workload.Steps != 3 {
		t.Fatal("GAMERA runs three steps (Sec. 6.4)")
	}
}
