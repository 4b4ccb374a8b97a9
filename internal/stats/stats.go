// Package stats provides the descriptive-statistics toolkit used by the
// noise analysis and experiment harnesses: summary statistics, percentiles,
// empirical CDFs and time series.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes summary statistics over xs. It returns ErrEmpty for an
// empty slice.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s, nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. The input need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF; the input slice is copied.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// N returns the number of samples underlying the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest x with P(X <= x) >= q, for q in (0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Points returns n evenly spaced (x, P(X<=x)) points spanning the sample
// range, suitable for plotting the tail-latency curves of Figure 4.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: c.At(x)}
	}
	return pts
}

// Max returns the largest sample in the CDF.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Point is a 2-D sample used by CDF and time-series outputs.
type Point struct {
	X, Y float64
}

// Series is an append-only time series of (t, value) samples.
type Series struct {
	T []float64
	V []float64
}

// Append adds one sample.
func (s *Series) Append(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// MaxV returns the largest value in the series, or 0 if empty.
func (s *Series) MaxV() float64 { return Max(s.V) }
