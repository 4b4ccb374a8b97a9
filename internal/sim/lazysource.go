package sim

// lazySource is math/rand's additive lagged-Fibonacci source (the one
// rand.NewSource returns) with its seeding deferred. Seeding the standard
// source fills a 607-word register from 1,841 steps of a Lehmer generator,
// yet most of the simulator's per-node and per-source streams draw only a
// handful of values. Before draw rngTap, output k reads only the register's
// original words 333-k and 606-k, and each original word is closed-form in
// the seed, so those draws cost six modular multiplications each. The
// register is built only when draw rngTap arrives. A source reseeded over
// storage kept from an earlier build writes each lazy draw's two words into
// the register as it goes, so its build computes only the 61 words no lazy
// draw touched; a fresh or skipped-ahead source builds every word and
// replays the draws onto it. TestLazySourceMatchesMathRand pins the output
// to rand.NewSource bit for bit.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lehmerA is the multiplier of math/rand's seeding generator
	// x[n+1] = 48271 * x[n] mod (2^31 - 1).
	lehmerA = 48271
	// lehmerSkip is how many Lehmer steps seeding discards before the
	// first register word.
	lehmerSkip = 20
)

// lehmerPow[i][j] = 48271^(21+3i+j) mod (2^31-1): register word i of seed
// x0 is made from x0 advanced 21+3i, 22+3i and 23+3i steps.
var lehmerPow = func() (p [rngLen][3]uint64) {
	a := uint64(1)
	for m := 1; m <= lehmerSkip+3*rngLen; m++ {
		a = a * lehmerA % int32max
		if k := m - lehmerSkip - 1; k >= 0 {
			p[k/3][k%3] = a
		}
	}
	return p
}()

type lazySource struct {
	x0   uint64         // seed reduced to the Lehmer state, in [1, 2^31-1)
	n    int            // draws made while the register is unbuilt
	vec  *[rngLen]int64 // feedback register storage, kept across Seed
	live bool           // vec holds the register: draw rngTap has come
	// kept reports that vec holds, for every lazy draw k < n, the replayed
	// sum at 333-k and original word 606-k, as build would leave them.
	kept bool
	tap  int
	feed int
}

// Seed resets the source to the state rand.NewSource(seed) starts in. It
// keeps the register's storage for the next build.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{x0: uint64(seed), vec: s.vec, kept: s.vec != nil}
}

// lehmerMul returns a*x0 mod 2^31-1 for a, x0 in [0, 2^31-1), folding the
// product's high bits onto its low ones since 2^31 = 1 mod 2^31-1. The
// product is below (2^31-2)^2, so one fold leaves it below 2(2^31-1) and
// one subtraction finishes the reduction.
func (s *lazySource) lehmerMul(a uint64) int64 {
	x := a * s.x0
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return int64(x)
}

// word returns original register word i.
func (s *lazySource) word(i int) int64 {
	p := &lehmerPow[i]
	u := s.lehmerMul(p[0]) << 40
	u ^= s.lehmerMul(p[1]) << 20
	u ^= s.lehmerMul(p[2])
	return u ^ rngCooked[i]
}

// build fills the register, leaving the source exactly where
// rand.NewSource's would be after rngTap draws. A kept register already
// holds words 61 to 606 as the lazy draws left them.
func (s *lazySource) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	s.live = true
	if s.kept {
		for i := range rngLen - 2*rngTap {
			s.vec[i] = s.word(i)
		}
	} else {
		for i := range s.vec {
			s.vec[i] = s.word(i)
		}
		for k := 0; k < rngTap; k++ {
			s.vec[rngLen-rngTap-1-k] += s.vec[rngLen-1-k]
		}
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
}

// Uint64 returns the next 64-bit value. Before the register is live, it
// computes the draw from the seed, building the register when draw rngTap
// arrives.
func (s *lazySource) Uint64() uint64 {
	if s.live {
		return s.next()
	}
	if s.n == rngTap {
		s.build()
		return s.next()
	}
	k := s.n
	s.n++
	// Words 606-k and 333-k, as word computes them, written out so the
	// draw makes no further call.
	p, q := &lehmerPow[rngLen-1-k], &lehmerPow[rngLen-rngTap-1-k]
	w := (s.lehmerMul(p[0])<<40 ^ s.lehmerMul(p[1])<<20 ^ s.lehmerMul(p[2])) ^ rngCooked[rngLen-1-k]
	x := (s.lehmerMul(q[0])<<40 ^ s.lehmerMul(q[1])<<20 ^ s.lehmerMul(q[2])) ^ rngCooked[rngLen-rngTap-1-k]
	x += w
	if s.kept {
		s.vec[rngLen-rngTap-1-k] = x
		s.vec[rngLen-1-k] = w
	}
	return uint64(x)
}

// next returns the next value from the live register.
func (s *lazySource) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// skip discards n draws; draws before the register is built cost nothing,
// but leave no words behind, so the build after a skip is a full one.
func (s *lazySource) skip(n int) {
	if !s.live {
		k := min(n, rngTap-s.n)
		if k > 0 {
			s.kept = false
		}
		s.n += k
		n -= k
	}
	for ; n > 0; n-- {
		s.Uint64()
	}
}
