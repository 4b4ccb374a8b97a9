package sim

// lazySource is math/rand's additive lagged-Fibonacci source (the one
// rand.NewSource returns) with its seeding deferred. Seeding the standard
// source fills a 607-word register from 1,841 steps of a Lehmer generator,
// yet most of the simulator's per-node and per-source streams draw only a
// handful of values. Before draw rngTap, output k reads only the register's
// original words 333-k and 606-k, and each original word is closed-form in
// the seed, so those draws cost six modular multiplications each. The
// register is built, and the draws already made replayed onto it, only
// when draw rngTap arrives. TestLazySourceMatchesMathRand pins the output
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

// lehmerPow[m] = 48271^m mod (2^31-1): register word i of seed x0 is made
// from x0 advanced 21+3i, 22+3i and 23+3i steps.
var lehmerPow = func() (p [lehmerSkip + 3*rngLen + 1]uint64) {
	p[0] = 1
	for m := 1; m < len(p); m++ {
		p[m] = p[m-1] * lehmerA % int32max
	}
	return p
}()

type lazySource struct {
	x0   uint64         // seed reduced to the Lehmer state, in [1, 2^31-1)
	n    int            // draws made while the register is unbuilt
	vec  *[rngLen]int64 // feedback register storage, kept across Seed
	live bool           // vec holds the register: draw rngTap has come
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
	*s = lazySource{x0: uint64(seed), vec: s.vec}
}

// word returns original register word i.
func (s *lazySource) word(i int) int64 {
	m := lehmerSkip + 1 + 3*i
	u := int64(lehmerPow[m]*s.x0%int32max) << 40
	u ^= int64(lehmerPow[m+1]*s.x0%int32max) << 20
	u ^= int64(lehmerPow[m+2] * s.x0 % int32max)
	return u ^ rngCooked[i]
}

// build fills the register and replays the rngTap lazy draws onto it,
// leaving the source exactly where rand.NewSource's would be.
func (s *lazySource) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	s.live = true
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 0; k < rngTap; k++ {
		s.vec[rngLen-rngTap-1-k] += s.vec[rngLen-1-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
}

// Uint64 returns the next 64-bit value.
func (s *lazySource) Uint64() uint64 {
	if !s.live {
		if s.n < rngTap {
			k := s.n
			s.n++
			return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
		}
		s.build()
	}
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

// skip discards n draws; draws before the register is built cost nothing.
func (s *lazySource) skip(n int) {
	if !s.live {
		k := min(n, rngTap-s.n)
		s.n += k
		n -= k
	}
	for ; n > 0; n-- {
		s.Uint64()
	}
}
