package sim

import (
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
			switch step % 8 {
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
				g, w := got.Perm(20), want.Perm(20)
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("seed %d step %d: Perm %v, math/rand %v", seed, step, g, w)
					}
				}
			case 6:
				stream := int64(step) * 31
				if g, w := got.DeriveSeed(stream), referenceDeriveSeed(want.Int63(), stream); g != w {
					t.Fatalf("seed %d step %d: DeriveSeed %d, reference %d", seed, step, g, w)
				}
			case 7:
				n := step * 3
				got.Skip(n)
				for i := 0; i < n; i++ {
					want.Int63()
				}
			}
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
