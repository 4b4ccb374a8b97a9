package noise

import (
	"testing"
	"time"
)

func TestAnalyzeBasics(t *testing.T) {
	iters := []time.Duration{
		6500 * time.Microsecond,
		6500 * time.Microsecond,
		6550 * time.Microsecond, // 50us noise
		6500 * time.Microsecond,
	}
	a, err := Analyze(iters)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 4 {
		t.Fatalf("N = %d", a.N)
	}
	if a.Tmin != 6500*time.Microsecond || a.Tmax != 6550*time.Microsecond {
		t.Fatalf("Tmin/Tmax = %v/%v", a.Tmin, a.Tmax)
	}
	if a.MaxNoise != 50*time.Microsecond {
		t.Fatalf("MaxNoise = %v", a.MaxNoise)
	}
	// Eq. 2: sum((Ti-Tmin)/Tmin)/n = (50/6500)/4.
	want := (50.0 / 6500.0) / 4.0
	if diff := a.Rate - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Rate = %v, want %v", a.Rate, want)
	}
	if len(a.Lengths) != 4 || a.Lengths[2] != 50*time.Microsecond || a.Lengths[0] != 0 {
		t.Fatalf("Lengths wrong: %v", a.Lengths)
	}
}

func TestAnalyzeNoSamples(t *testing.T) {
	if _, err := Analyze(nil); err != ErrNoSamples {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeNoiseFree(t *testing.T) {
	a, err := Analyze([]time.Duration{time.Millisecond, time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxNoise != 0 || a.Rate != 0 {
		t.Fatalf("noise-free run reported noise: %+v", a)
	}
}

func TestMerge(t *testing.T) {
	a1, _ := Analyze([]time.Duration{100 * time.Microsecond, 110 * time.Microsecond})
	a2, _ := Analyze([]time.Duration{95 * time.Microsecond, 140 * time.Microsecond})
	m, err := Merge([]Analysis{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 4 {
		t.Fatalf("N = %d", m.N)
	}
	if m.Tmin != 95*time.Microsecond || m.Tmax != 140*time.Microsecond {
		t.Fatalf("global Tmin/Tmax = %v/%v", m.Tmin, m.Tmax)
	}
	if m.MaxNoise != 45*time.Microsecond {
		t.Fatalf("MaxNoise = %v", m.MaxNoise)
	}
	wantRate := (a1.Rate*2 + a2.Rate*2) / 4
	if d := m.Rate - wantRate; d > 1e-12 || d < -1e-12 {
		t.Fatalf("weighted rate = %v, want %v", m.Rate, wantRate)
	}
	if len(m.Lengths) != 4 {
		t.Fatalf("merged lengths = %d", len(m.Lengths))
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := Merge(nil); err != ErrNoSamples {
		t.Fatalf("err = %v", err)
	}
	if _, err := Merge([]Analysis{{}}); err != ErrNoSamples {
		t.Fatalf("all-empty err = %v", err)
	}
}

func TestIterationCDF(t *testing.T) {
	c := IterationCDF([]time.Duration{
		6500 * time.Microsecond, 6500 * time.Microsecond, 13000 * time.Microsecond,
	})
	if c.N() != 3 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.At(6500); got < 0.6 || got > 0.7 {
		t.Fatalf("At(6500us) = %v, want 2/3", got)
	}
	if c.Max() != 13000 {
		t.Fatalf("Max = %v", c.Max())
	}
}

func TestWorstBy(t *testing.T) {
	mk := func(noises ...time.Duration) Analysis {
		a := Analysis{N: len(noises)}
		a.Lengths = noises
		return a
	}
	as := []Analysis{
		mk(10 * time.Microsecond),                     // total 10
		mk(500*time.Microsecond, 1*time.Microsecond),  // total 501 (worst)
		mk(100*time.Microsecond, 50*time.Microsecond), // total 150
		mk(), // total 0
	}
	worst := WorstBy(as, 2)
	if len(worst) != 2 || worst[0] != 1 || worst[1] != 2 {
		t.Fatalf("worst = %v, want [1 2]", worst)
	}
	// Requesting more than available clamps.
	all := WorstBy(as, 100)
	if len(all) != 4 {
		t.Fatalf("clamped len = %d", len(all))
	}
	if got := WorstBy(nil, 5); len(got) != 0 {
		t.Fatal("empty input must give empty output")
	}
}
