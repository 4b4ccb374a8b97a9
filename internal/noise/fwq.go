package noise

import (
	"errors"
	"time"

	"mkos/internal/stats"
)

// Analysis carries the metrics of Sec. 6.3 computed from FWQ samples.
type Analysis struct {
	N int
	// Tmin and Tmax are the shortest and longest iteration times.
	Tmin, Tmax time.Duration
	// MaxNoise is Tmax - Tmin, the paper's "maximum noise length".
	MaxNoise time.Duration
	// Rate is Eq. 2: sum((Ti - Tmin)/Tmin) / n.
	Rate float64
	// Lengths are the per-iteration noise lengths Li = Ti - Tmin.
	Lengths []time.Duration
}

// ErrNoSamples is returned when an analysis has no iterations to work with.
var ErrNoSamples = errors.New("noise: no FWQ samples")

// Analyze computes the paper's FWQ metrics over iteration times.
func Analyze(iterations []time.Duration) (Analysis, error) {
	a, err := Summarize(iterations)
	if err != nil {
		return a, err
	}
	a.Lengths = make([]time.Duration, len(iterations))
	for i, t := range iterations {
		a.Lengths[i] = t - a.Tmin
	}
	return a, nil
}

// Summarize computes every metric Analyze does except the per-iteration
// Lengths, which it leaves nil, and allocates nothing. Its fields are
// bit-identical to Analyze's.
func Summarize(iterations []time.Duration) (Analysis, error) {
	if len(iterations) == 0 {
		return Analysis{}, ErrNoSamples
	}
	a := Analysis{N: len(iterations), Tmin: iterations[0], Tmax: iterations[0]}
	for _, t := range iterations {
		if t < a.Tmin {
			a.Tmin = t
		}
		if t > a.Tmax {
			a.Tmax = t
		}
	}
	a.MaxNoise = a.Tmax - a.Tmin
	sum := 0.0
	for _, t := range iterations {
		sum += float64(t-a.Tmin) / float64(a.Tmin)
	}
	a.Rate = sum / float64(len(iterations))
	return a, nil
}

// Merge combines analyses from multiple cores/nodes into a machine-level
// view: global Tmin/Tmax and sample-weighted rate.
func Merge(as []Analysis) (Analysis, error) {
	if len(as) == 0 {
		return Analysis{}, ErrNoSamples
	}
	out := Analysis{Tmin: as[0].Tmin, Tmax: as[0].Tmax}
	var rateWeighted float64
	for _, a := range as {
		if a.N == 0 {
			continue
		}
		out.N += a.N
		if a.Tmin < out.Tmin {
			out.Tmin = a.Tmin
		}
		if a.Tmax > out.Tmax {
			out.Tmax = a.Tmax
		}
		rateWeighted += a.Rate * float64(a.N)
		out.Lengths = append(out.Lengths, a.Lengths...)
	}
	if out.N == 0 {
		return Analysis{}, ErrNoSamples
	}
	out.MaxNoise = out.Tmax - out.Tmin
	out.Rate = rateWeighted / float64(out.N)
	return out, nil
}

// IterationCDF builds the empirical CDF of iteration times in microseconds,
// the quantity plotted in Figure 4.
func IterationCDF(iterations []time.Duration) *stats.CDF {
	xs := make([]float64, len(iterations))
	for i, t := range iterations {
		xs[i] = float64(t) / float64(time.Microsecond)
	}
	return stats.NewCDF(xs)
}

// WorstBy returns the indices of the k analyses with the largest total noise
// duration, mirroring the paper's in-situ selection of the 100 worst nodes
// before writing raw FWQ data to the parallel filesystem (Sec. 6.3).
func WorstBy(as []Analysis, k int) []int {
	type nodeNoise struct {
		idx   int
		total time.Duration
	}
	arr := make([]nodeNoise, len(as))
	for i, a := range as {
		var tot time.Duration
		for _, l := range a.Lengths {
			tot += l
		}
		arr[i] = nodeNoise{idx: i, total: tot}
	}
	// Selection by partial sort; n is small (node counts), clarity wins.
	for i := 0; i < len(arr) && i < k; i++ {
		maxAt := i
		for j := i + 1; j < len(arr); j++ {
			if arr[j].total > arr[maxAt].total {
				maxAt = j
			}
		}
		arr[i], arr[maxAt] = arr[maxAt], arr[i]
	}
	if k > len(arr) {
		k = len(arr)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = arr[i].idx
	}
	return out
}
