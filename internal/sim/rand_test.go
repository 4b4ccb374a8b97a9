package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRandDeriveStability(t *testing.T) {
	// Deriving stream k must not depend on how many other streams were
	// derived before it from sibling parents with identical state.
	mk := func() []float64 {
		r := NewRand(7).Derive(12345)
		out := make([]float64, 8)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	x, y := mk(), mk()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("derived stream not reproducible at %d", i)
		}
	}
}

func TestRandDeriveIndependence(t *testing.T) {
	parent := NewRand(1)
	a := parent.Derive(0)
	b := parent.Derive(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent derived streams look correlated: %d equal draws", same)
	}
}

func TestRandDeriveNamed(t *testing.T) {
	a := NewRand(5).DeriveNamed("daemon")
	b := NewRand(5).DeriveNamed("daemon")
	c := NewRand(5).DeriveNamed("kworker")
	if a.Float64() != b.Float64() {
		t.Fatal("same-name derivation not reproducible")
	}
	if a.Float64() == c.Float64() {
		t.Fatal("different names produced identical streams")
	}
}

// TestDeriveIntoLabelStreamMatchesDeriveNamed checks that a generator
// reseeded in place for a label's stream draws exactly what a freshly
// derived one does, also when it had already built its feedback register,
// and that the parents advance alike.
func TestDeriveIntoLabelStreamMatchesDeriveNamed(t *testing.T) {
	dst := NewRand(0)
	for _, seed := range equivalenceSeeds()[:40] {
		a, b := NewRand(seed), NewRand(seed)
		for _, label := range []string{"daemon", "kworker", ""} {
			want := a.DeriveNamed(label)
			b.DeriveInto(dst, LabelStream(label))
			// 700 draws pass rngTap, so the next reseed reuses a built
			// register.
			for i := 0; i < 700; i++ {
				if got, w := dst.Float64(), want.Float64(); got != w {
					t.Fatalf("seed %d label %q: reseeded stream diverged at draw %d", seed, label, i)
				}
			}
		}
		if a.Float64() != b.Float64() {
			t.Fatalf("seed %d: parents consumed different draw counts", seed)
		}
	}
}

// TestDeriveIntoMatchesDerive checks that one generator reseeded in place
// for stream after stream draws exactly what Derive returns for each. Every
// stream draws 1,000 values, past rngTap, so from the second stream on the
// reseed reuses a built register; the parents must advance alike.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	a, b := NewRand(2021), NewRand(2021)
	dst := NewRand(0)
	for stream := int64(0); stream < 64; stream++ {
		want := a.Derive(stream)
		b.DeriveInto(dst, stream)
		for i := 0; i < 1000; i++ {
			if got, w := dst.Float64(), want.Float64(); got != w {
				t.Fatalf("stream %d: reseeded stream diverged at draw %d", stream, i)
			}
		}
	}
	if a.Float64() != b.Float64() {
		t.Fatal("parents consumed different draw counts")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~5.0", mean)
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	r, ref := NewRand(123), NewRand(123)
	d := NewLogNormalDist(10.0, 0.5)
	// The closed form the precomputed parameters must reproduce draw for draw.
	sigma2 := math.Log(1 + 0.5*0.5)
	mu, sigma := math.Log(10.0)-sigma2/2, math.Sqrt(sigma2)
	const n = 400000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := math.Exp(d.Exponent(r))
		if want := math.Exp(mu + sigma*ref.normFloat64()); v != want {
			t.Fatalf("draw %d: LogNormalDist sample %v, closed form %v", i, v, want)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if math.Abs(mean-10.0) > 0.2 {
		t.Fatalf("LogNormalDist mean = %v, want ~10", mean)
	}
	if math.Abs(cv-0.5) > 0.05 {
		t.Fatalf("LogNormalDist cv = %v, want ~0.5", cv)
	}
}

// TestLogNormalMeanCVDegenerate pins a zero CV: every exponent is the
// log of the mean, so the distribution collapses onto it, and each draw
// still consumes exactly one normal.
func TestLogNormalMeanCVDegenerate(t *testing.T) {
	r, ref := NewRand(4), NewRand(4)
	d := NewLogNormalDist(3, 0)
	for i := 0; i < 1000; i++ {
		if x := d.Exponent(r); x != math.Log(3) {
			t.Fatalf("draw %d: cv 0 exponent %v, want log(3) = %v", i, x, math.Log(3))
		}
		ref.normFloat64()
	}
	if r.Float64() != ref.Float64() {
		t.Fatal("a cv 0 draw consumed other than one normal")
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2.0, 1.5); v < 2.0 {
			t.Fatalf("Pareto sample %v below xm", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRand(8)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRand(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", f)
	}
}

func TestDurationSamplers(t *testing.T) {
	r := NewRand(23)
	for i := 0; i < 1000; i++ {
		if d := r.DurationUniform(time.Microsecond, time.Millisecond); d < time.Microsecond || d >= time.Millisecond {
			t.Fatalf("DurationUniform out of range: %v", d)
		}
		if d := Duration(math.Exp(NewLogNormalDist(float64(time.Millisecond), 0.3).Exponent(r))); d <= 0 {
			t.Fatalf("non-positive lognormal duration %v", d)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(31)
	base := 100 * time.Microsecond
	for i := 0; i < 10000; i++ {
		d := r.Jitter(base, 0.1)
		if d < 90*time.Microsecond || d > 110*time.Microsecond {
			t.Fatalf("Jitter out of bounds: %v", d)
		}
	}
}

// Property: derived streams are a pure function of (seed, stream id).
func TestQuickDeriveDeterministic(t *testing.T) {
	f := func(seed int64, stream int64) bool {
		a := NewRand(seed).Derive(stream).Float64()
		b := NewRand(seed).Derive(stream).Float64()
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pareto samples never fall below xm for any positive parameters.
func TestQuickParetoBound(t *testing.T) {
	r := NewRand(77)
	f := func(xmRaw, alphaRaw uint16) bool {
		xm := 0.001 + float64(xmRaw)
		alpha := 0.5 + float64(alphaRaw%100)/10
		return r.Pareto(xm, alpha) >= xm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedMatchesDerive(t *testing.T) {
	// DeriveSeed must consume exactly one parent draw and seed the exact
	// generator Derive builds, so machine-scale runs can store int64 seeds
	// per node instead of live generators.
	for _, stream := range []int64{0, 1, 42, -9, 158975} {
		a := NewRand(99)
		b := NewRand(99)
		viaDerive := a.Derive(stream)
		viaSeed := NewRand(b.DeriveSeed(stream))
		for i := 0; i < 64; i++ {
			if viaDerive.Float64() != viaSeed.Float64() {
				t.Fatalf("stream %d: DeriveSeed generator diverged at draw %d", stream, i)
			}
		}
		// Both parents must have advanced identically.
		if a.Float64() != b.Float64() {
			t.Fatalf("stream %d: parents consumed different draw counts", stream)
		}
	}
}

// BenchmarkLogNormal is one noise interval or length draw: a lognormal
// sample from a stream whose register is built.
func BenchmarkLogNormal(b *testing.B) {
	r := NewRand(1)
	d := NewLogNormalDist(float64(time.Millisecond), 0.5)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += math.Exp(d.Exponent(r))
	}
	if sum < 0 {
		b.Fatal("negative lognormal sum")
	}
}
