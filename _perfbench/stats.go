package main

import (
	"fmt"
	"sort"
	"time"

	"mkos/internal/stats"
)

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail returns the highest order statistic with at least tailBeyond samples
// above it, the percentile it sits at (its rank over the sample count), and
// whether such a sample exists. With fewer than tailBeyond+1 samples there
// is none, and the caller reports the maximum instead, labelled as such.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		if len(s) == 0 {
			return 0, 0, false
		}
		return s[len(s)-1], 100, false
	}
	return s[i], 100 * float64(i+1) / float64(len(s)), true
}

// median is the 50th percentile of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	m, _ := stats.Percentile(xs, 50)
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tailLabel states which percentile unit_tail_ms is and how many samples
// it rests on.
func tailLabel(xs []float64) string {
	_, pct, ok := tail(xs)
	if !ok {
		return fmt.Sprintf("max of %d samples (fewer than %d)", len(xs), tailBeyond+1)
	}
	return fmt.Sprintf("p%.1f of %d samples (%d beyond it)", pct, len(xs), tailBeyond)
}
