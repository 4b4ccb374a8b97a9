package sim

import "math"

// Rand is a deterministic random source with the distribution samplers the
// OS-noise and workload models need. Its draws are bit for bit those of
// rand.New(rand.NewSource(seed)): the samplers below are math/rand's own
// algorithms, run on the concrete lazySource, whose register is seeded only
// when a stream draws enough to need it, so a stream that draws a few
// values never pays for math/rand's 607-word seeding. Nothing in this
// repository draws from a global or time-seeded source.
type Rand struct {
	lazy lazySource
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.lazy.Seed(seed)
	return r
}

// Derive returns an independent generator for a labelled sub-stream. Node- or
// core-scoped streams derived this way are stable: simulating nodes [0,100)
// gives each node the same draws it would get in a full-machine run, which is
// what lets subset experiments (e.g. 24 racks of Fugaku) compose with
// full-scale ones.
func (r *Rand) Derive(stream int64) *Rand {
	return NewRand(r.DeriveSeed(stream))
}

// DeriveSeed consumes one parent draw and returns the seed Derive would use
// for the sub-stream, without building the generator. Machine-scale runs
// derive one stream per node; storing the int64 seed instead of a *Rand
// keeps 158,976 node streams at 8 bytes each.
func (r *Rand) DeriveSeed(stream int64) int64 {
	// SplitMix64-style mix of the parent's next value with the stream id so
	// adjacent ids do not produce correlated sequences.
	z := uint64(r.lazy.Int63()) ^ (uint64(stream) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Skip discards n draws from the generator, advancing it exactly as n
// Derive calls would. Each Derive consumes one value from the parent, so a
// worker that owns the contiguous node block [lo, hi) of a partitioned run
// reproduces the sequential derivation with
//
//	base := NewRand(seed)
//	base.Skip(lo)
//	for n := lo; n < hi; n++ { use base.Derive(int64(n)) }
//
// which is what keeps sharded runs byte-identical to sequential ones.
func (r *Rand) Skip(n int) { r.lazy.skip(n) }

// DeriveNamed derives a sub-stream keyed by a string label.
func (r *Rand) DeriveNamed(label string) *Rand {
	return r.Derive(LabelStream(label))
}

// DeriveInto resets dst, a generator made by NewRand, to the one
// Derive(stream) would return, consuming the same parent draw, and reuses
// dst's storage: a caller deriving one stream per node allocates nothing.
func (r *Rand) DeriveInto(dst *Rand, stream int64) {
	dst.lazy.Seed(r.DeriveSeed(stream))
}

// LabelStream is the stream id DeriveNamed(label) derives: the label's
// FNV-64 hash. A caller deriving the same labelled stream for node after
// node hashes the label once and passes the id to DeriveInto.
func LabelStream(label string) int64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return int64(h)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	for {
		// An Int63 close enough to 2^63 rounds to 1: draw again.
		if f := float64(r.lazy.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// uint32 returns the next 32-bit value, bits 31 to 62 of an Int63.
func (r *Rand) uint32() uint32 { return uint32(r.lazy.Int63() >> 31) }

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// int31n returns a uniform value in [0, n) for n > 0, by math/rand's
// rejection of the top Int31 values, not its faster multiply-shift.
func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(r.lazy.Int63()>>32) & (n - 1)
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(r.lazy.Int63() >> 32)
	for v > limit {
		v = int32(r.lazy.Int63() >> 32)
	}
	return v % n
}

// Int63n returns a uniform value in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.lazy.Int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := r.lazy.Int63()
	for v > limit {
		v = r.lazy.Int63()
	}
	return v % n
}

// normFloat64 returns a standard normal value by the ziggurat method.
func (r *Rand) normFloat64() float64 {
	for {
		j := int32(r.uint32()) // possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			// About 97% of draws end here.
			return x
		}
		if i == 0 {
			// The base strip's tail.
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// expFloat64 returns an exponential value with mean 1 by the ziggurat
// method.
func (r *Rand) expFloat64() float64 {
	for {
		j := r.uint32()
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// Uniform returns a value uniformly distributed in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
// Inter-arrival times of independent noise events are modelled this way.
func (r *Rand) Exp(mean float64) float64 {
	return r.expFloat64() * mean
}

// Normal returns a normally distributed value (mean, stddev), clamped at 0
// from below when used for durations by callers that need non-negativity.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.normFloat64()
}

// LogNormalDist is a lognormal distribution given by its arithmetic mean
// and coefficient of variation, which is how the noise models are
// calibrated (mean length, relative spread). The log-space parameters are
// computed once, so a sampler that draws many values from one calibration
// takes no logarithm per draw. OS noise burst lengths and intervals are
// heavy tailed; lognormal matches the FWQ trace shapes reported in the
// paper.
type LogNormalDist struct {
	mu, sigma float64
}

// NewLogNormalDist returns the lognormal distribution with arithmetic mean
// mean > 0 and coefficient of variation cv >= 0.
func NewLogNormalDist(mean, cv float64) LogNormalDist {
	sigma2 := math.Log(1 + cv*cv)
	return LogNormalDist{mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2)}
}

// Exponent draws one value's exponent, a normal draw with the
// distribution's log-space parameters: math.Exp(d.Exponent(r)) is a draw
// from d, bit for bit math/rand's math.Exp(mu + sigma*NormFloat64()). The
// draw and the exponentiation are split so that a sampler can draw the
// exponents of many values first and then take their math.Exp calls,
// which then do not wait on each other.
func (d LogNormalDist) Exponent(r *Rand) float64 {
	return d.mu + d.sigma*r.normFloat64()
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed, used for the rare
// long noise events that dominate max-noise-length statistics.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// DurationUniform returns a Duration uniform in [lo, hi).
func (r *Rand) DurationUniform(lo, hi Duration) Duration {
	return Duration(r.Uniform(float64(lo), float64(hi)))
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (r *Rand) Jitter(d Duration, frac float64) Duration {
	return Duration(float64(d) * r.Uniform(1-frac, 1+frac))
}
