package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// equivalenceSeeds covers the seeding edge cases (0, the Lehmer modulus
// 2^31-1 and its multiples, which reduce to the substitute seed, their
// neighbours and negatives, the int64 extremes) plus a spread of ordinary
// seeds.
func equivalenceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1}
	for _, k := range []int64{1, 2, 3, 7, 1 << 20, 1 << 32} {
		m := k * int32max
		seeds = append(seeds, m, -m, m+1, m-1, -m+1, -m-1)
	}
	r := rand.New(rand.NewSource(20211114))
	for len(seeds) < 320 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	offsets := []int{0, 1, 272, 273, 274, 606, 607, 608, 3000}
	for _, seed := range equivalenceSeeds() {
		for _, off := range offsets {
			want := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < off; i++ {
				want.Int63()
			}
			var got lazySource
			got.Seed(seed)
			got.skip(off)
			for k := 0; k < 700; k++ {
				// Alternate the two draw methods: Int63 is Uint64 masked.
				if k%2 == 0 {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d offset %d draw %d: Uint64 %#x, math/rand %#x", seed, off, k, g, w)
					}
				} else if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d offset %d draw %d: Int63 %#x, math/rand %#x", seed, off, k, g, w)
				}
			}
		}
	}
}

// TestLazySourceReseededMatchesMathRand reseeds one source again and again,
// as a noise generator's per-source streams are, so every seed starts over
// a register an earlier seed built. Reaching the offset by drawing keeps
// the lazy draws' words for the build; a lazy skip, alone or after draws,
// must fall back to a full build.
func TestLazySourceReseededMatchesMathRand(t *testing.T) {
	var got lazySource
	got.Seed(-1)
	got.skip(rngLen) // build a register for the first reseed to reuse
	for _, seed := range equivalenceSeeds() {
		for _, off := range []int{0, 1, 272, 273, 274, 700} {
			// Each split reaches off by drawing `drawn` values, skipping
			// `skipped` more, then drawing the rest.
			for _, split := range [][2]int{{off, 0}, {0, off}, {off / 2, off - off/2}, {1, off / 3}} {
				drawn := min(split[0], off)
				skipped := min(split[1], off-drawn)
				want := rand.NewSource(seed).(rand.Source64)
				for i := 0; i < off; i++ {
					want.Int63()
				}
				got.Seed(seed)
				if !got.kept {
					t.Fatalf("seed %d: reseeding a built source did not keep its register", seed)
				}
				for i := 0; i < drawn; i++ {
					got.Uint64()
				}
				got.skip(skipped)
				for i := drawn + skipped; i < off; i++ {
					got.Uint64()
				}
				// 700 draws pass rngTap, so the next reseed reuses a built
				// register.
				for k := 0; k < 700; k++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d offset %d (%d drawn, %d skipped) draw %d: %#x, math/rand %#x",
							seed, off, drawn, skipped, k, g, w)
					}
				}
			}
		}
	}
}

// TestLazySourceSkipMatchesDraws pins skip to drawing and discarding, from
// every phase of the source: unbuilt, straddling the build, built.
func TestLazySourceSkipMatchesDraws(t *testing.T) {
	for _, seed := range []int64{0, 7, -123456789, math.MaxInt64} {
		for _, steps := range [][]int{{5, 300}, {272, 1}, {273, 0}, {100, 200, 400}, {0, 1000}} {
			var skipped, drawn lazySource
			skipped.Seed(seed)
			drawn.Seed(seed)
			for _, n := range steps {
				skipped.skip(n)
				for i := 0; i < n; i++ {
					drawn.Uint64()
				}
				if g, w := skipped.Uint64(), drawn.Uint64(); g != w {
					t.Fatalf("seed %d skips %v: %#x after skip, %#x after draws", seed, steps, g, w)
				}
			}
		}
	}
}

// TestRandMatchesMathRand runs one fixed script of every sim.Rand draw
// primitive against rand.New(rand.NewSource(seed)) long enough to cross the
// lazy register's build at draw 273 and a full register turn at 607.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range equivalenceSeeds()[:40] {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for step := 0; step < 120; step++ {
			switch step % 7 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d step %d: Float64 %v, math/rand %v", seed, step, g, w)
				}
			case 1:
				if g, w := got.Normal(0, 1), want.NormFloat64(); g != w {
					t.Fatalf("seed %d step %d: NormFloat64 %v, math/rand %v", seed, step, g, w)
				}
			case 2:
				if g, w := got.Exp(1), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d step %d: ExpFloat64 %v, math/rand %v", seed, step, g, w)
				}
			case 3:
				n := 1 + step*7919%1000
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d step %d: Intn(%d) %d, math/rand %d", seed, step, n, g, w)
				}
			case 4:
				n := int64(1)<<40 + int64(step)
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d step %d: Int63n %d, math/rand %d", seed, step, g, w)
				}
			case 5:
				stream := int64(step) * 31
				if g, w := got.DeriveSeed(stream), referenceDeriveSeed(want.Int63(), stream); g != w {
					t.Fatalf("seed %d step %d: DeriveSeed %d, reference %d", seed, step, g, w)
				}
			case 6:
				n := step * 3
				got.Skip(n)
				for i := 0; i < n; i++ {
					want.Int63()
				}
			}
		}
	}
}

// TestRandSamplersMatchMathRand draws 10^6 values from each ziggurat
// sampler, the normal (directly and as a lognormal exponent) and the exponential,
// against rand.New(rand.NewSource(seed)). About 2-3% of draws miss the
// ziggurat's rectangles and take the wedge or base-strip path, which reads
// fn/fe and further source values; the test requires both paths to run.
func TestRandSamplersMatchMathRand(t *testing.T) {
	const perSeed = 250_000
	seeds := []int64{1, 20211114, -7, math.MaxInt64}
	samplers := []struct {
		name string
		got  func(r *Rand) float64
		want func(r *rand.Rand) float64
		// base maps a value back to the ziggurat's variate; beyond tail
		// it can only come from the base strip.
		base func(v float64) float64
		tail float64
	}{
		{"NormFloat64", func(r *Rand) float64 { return r.Normal(0, 1) }, (*rand.Rand).NormFloat64,
			math.Abs, rn},
		{"LogNormal", func(r *Rand) float64 { return math.Exp(LogNormalDist{mu: -1, sigma: 0.5}.Exponent(r)) },
			func(r *rand.Rand) float64 { return math.Exp(-1 + 0.5*r.NormFloat64()) },
			func(v float64) float64 { return math.Abs((math.Log(v) + 1) / 0.5) }, rn},
		{"ExpFloat64", func(r *Rand) float64 { return r.Exp(1) }, (*rand.Rand).ExpFloat64,
			func(v float64) float64 { return v }, re},
	}
	for _, s := range samplers {
		slow, tail := 0, 0
		for _, seed := range seeds {
			got, want := NewRand(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < perSeed; i++ {
				live, feed := got.lazy.live, got.lazy.feed
				g, w := s.got(got), s.want(want)
				if g != w {
					t.Fatalf("%s seed %d draw %d: %v, math/rand %v", s.name, seed, i, g, w)
				}
				if live && (feed-got.lazy.feed+rngLen)%rngLen > 1 {
					slow++
				}
				if s.base(g) > s.tail {
					tail++
				}
			}
		}
		if slow < 1000 || tail == 0 {
			t.Fatalf("%s: %d draws took more than one source value and %d came from the base strip's tail; the test needs both", s.name, slow, tail)
		}
	}
}

// referenceDeriveSeed is DeriveSeed's mix applied to a parent draw.
func referenceDeriveSeed(parent, stream int64) int64 {
	z := uint64(parent) ^ (uint64(stream) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// BenchmarkNewRandFewDraws is the shape of a per-node or per-source noise
// stream: seed a generator, draw a handful of values.
func BenchmarkNewRandFewDraws(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := NewRand(int64(i))
		for k := 0; k < 8; k++ {
			r.Float64()
		}
	}
}

// BenchmarkSeedThenDraw is a stream that goes past the lazy register's
// build: seed, then draw 274 or 1,000 values. "fresh" seeds a new
// generator, "reseeded" reseeds one in place over the register it kept, as
// a noise generator's source streams are, and "math-rand" is
// rand.New(rand.NewSource(seed)).
func BenchmarkSeedThenDraw(b *testing.B) {
	for _, draws := range []int{274, 1000} {
		b.Run(fmt.Sprintf("fresh/%d", draws), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := NewRand(int64(i))
				for k := 0; k < draws; k++ {
					r.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("reseeded/%d", draws), func(b *testing.B) {
			r := NewRand(-1)
			for i := 0; i < b.N; i++ {
				r.lazy.Seed(int64(i))
				for k := 0; k < draws; k++ {
					r.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("math-rand/%d", draws), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < draws; k++ {
					r.Float64()
				}
			}
		})
	}
}
