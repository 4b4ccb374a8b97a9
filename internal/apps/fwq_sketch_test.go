package apps

import (
	"errors"
	"math"
	"testing"
	"time"

	"mkos/internal/noise"
	"mkos/internal/sim"
)

// noisyProfile returns a profile with a mix of sources, for equivalence
// testing.
func noisyProfile() *noise.Profile {
	p := &noise.Profile{}
	p.MustAdd(&noise.Source{
		Name: "a", Cores: []int{0, 1}, Mode: noise.TargetRandom,
		Every: 8 * time.Millisecond, EveryCV: 0.5,
		Length: 40 * time.Microsecond, LengthCV: 0.6,
	})
	p.MustAdd(&noise.Source{
		Name: "b", Cores: []int{0, 1}, Mode: noise.TargetAll,
		Every: 50 * time.Millisecond, Length: 200 * time.Microsecond, LengthCV: 0.3,
	})
	return p
}

// TestSketchMatchesExact verifies the sketch runner computes exactly the
// same metrics as the full per-iteration runner.
func TestSketchMatchesExact(t *testing.T) {
	p := noisyProfile()
	tl := p.Timeline(2*time.Second, sim.NewRand(11))
	cfg := FWQConfig{Work: 6500 * time.Microsecond, Duration: 2 * time.Second, Cores: []int{0, 1}}

	exact, err := RunFWQ(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	exactA, err := exact.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := RunFWQSketch(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}

	if sketch.Analysis.N != exactA.N {
		t.Fatalf("iteration counts differ: sketch %d vs exact %d", sketch.Analysis.N, exactA.N)
	}
	if sketch.Analysis.Tmin != exactA.Tmin || sketch.Analysis.Tmax != exactA.Tmax {
		t.Fatalf("Tmin/Tmax differ: sketch %v/%v vs exact %v/%v",
			sketch.Analysis.Tmin, sketch.Analysis.Tmax, exactA.Tmin, exactA.Tmax)
	}
	if sketch.Analysis.MaxNoise != exactA.MaxNoise {
		t.Fatalf("MaxNoise differs: %v vs %v", sketch.Analysis.MaxNoise, exactA.MaxNoise)
	}
	if math.Abs(sketch.Analysis.Rate-exactA.Rate) > 1e-12 {
		t.Fatalf("Rate differs: %v vs %v", sketch.Analysis.Rate, exactA.Rate)
	}
	// Distribution must agree with the raw iteration list.
	if sketch.Dist.N() != int64(len(exact.AllIterations())) {
		t.Fatalf("Dist.N = %d, want %d", sketch.Dist.N(), len(exact.AllIterations()))
	}
	exactCDF := noise.IterationCDF(exact.AllIterations())
	for _, us := range []float64{6500, 6510, 6600, 6700, 7000} {
		if got, want := sketch.Dist.At(us), exactCDF.At(us); math.Abs(got-want) > 1e-9 {
			t.Fatalf("CDF at %vus: sketch %v vs exact %v", us, got, want)
		}
	}
	if sketch.Dist.Max() != exactCDF.Max() {
		t.Fatalf("Dist.Max %v vs exact %v", sketch.Dist.Max(), exactCDF.Max())
	}
}

func TestSketchNoNoise(t *testing.T) {
	tl := (&noise.Profile{}).Timeline(time.Second, sim.NewRand(1))
	cfg := FWQConfig{Work: 10 * time.Millisecond, Duration: 100 * time.Millisecond, Cores: []int{0}}
	sk, err := RunFWQSketch(cfg, tl)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Dist.Clean != 10 || sk.Dist.N() != 10 {
		t.Fatalf("clean = %d, N = %d, want 10/10", sk.Dist.Clean, sk.Dist.N())
	}
	if sk.Analysis.MaxNoise != 0 {
		t.Fatal("noise-free sketch reported noise")
	}
	if sk.Dist.At(10000) != 1 || sk.Dist.At(9999) != 0 {
		t.Fatal("clean-only CDF step wrong")
	}
}

func TestSketchValidation(t *testing.T) {
	tl := (&noise.Profile{}).Timeline(time.Second, sim.NewRand(1))
	if _, err := RunFWQSketch(FWQConfig{}, tl); !errors.Is(err, ErrBadFWQConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FWQSketchAcrossNodes(FWQConfig{Work: time.Millisecond, Duration: time.Second, Cores: []int{0}}, profileOnly{&noise.Profile{}}, 0, 1); !errors.Is(err, ErrBadFWQConfig) {
		t.Fatalf("zero nodes err = %v", err)
	}
}

func TestSketchAcrossNodesMatchesExact(t *testing.T) {
	cfg := FWQConfig{Work: 6500 * time.Microsecond, Duration: time.Second, Cores: []int{0, 1}}
	prof := profileOnly{noisyProfile()}
	exact := exactNodes(t, cfg, prof, 3, 21)
	sketches, err := FWQSketchAcrossNodes(cfg, prof, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sketches {
		a, err := exact[i].Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if sketches[i].Analysis.MaxNoise != a.MaxNoise {
			t.Fatalf("node %d MaxNoise: sketch %v vs exact %v",
				i, sketches[i].Analysis.MaxNoise, a.MaxNoise)
		}
	}
}

func TestIterationDistMerge(t *testing.T) {
	a := noise.NewIterationDist(6500*time.Microsecond, 100, []time.Duration{6600 * time.Microsecond})
	b := noise.NewIterationDist(6500*time.Microsecond, 50, []time.Duration{7000 * time.Microsecond})
	m := noise.MergeDists([]*noise.IterationDist{a, b})
	if m.N() != 152 {
		t.Fatalf("merged N = %d", m.N())
	}
	if m.Max() != 7000 {
		t.Fatalf("merged Max = %v", m.Max())
	}
	if noise.MergeDists(nil).N() != 0 {
		t.Fatal("empty merge must be empty")
	}
	pts := m.Points(10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF points not monotone")
		}
	}
	if got := m.TailProbability(6999); math.Abs(got-1.0/152) > 1e-9 {
		t.Fatalf("tail probability = %v", got)
	}
}
