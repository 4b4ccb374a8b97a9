// Package noise implements the paper's OS-noise machinery: the analytic
// delay model for bulk-synchronous applications (Eq. 1), noise-source
// descriptors and interruption timelines used by the kernel models, and the
// FWQ analysis (max noise length, Eq. 2 noise rate, CDFs).
//
// Every interruption comes from one kernel, run per source on that
// source's private stream derived for the node. It draws events in
// batches of up to 32: first every RNG draw of the batch, in the order
// one event at a time would make them, then the batch's math.Exp calls,
// then the events up to the horizon. Draws made for events at or past the
// horizon are thrown away, which changes no output because the stream is
// reseeded before it is used again. Generator.VisitNode hands the events
// to a callback; AppendNode and NodeInto store them.
package noise

import (
	"errors"
	"math"
	"time"
)

// Group is one noise group of the analytic model: interruptions of length L
// occurring with mean interval I on any given hardware thread.
type Group struct {
	Name   string
	Length time.Duration // L_i
	Every  time.Duration // I_i
}

// AnalyticModel is the paper's Eq. 1 estimator. For a bulk-synchronous
// application with N threads and synchronization interval S, a machine with
// M noise groups delays the application by
//
//	max_i ( (1 - (1 - S/I_i)^N) * L_i / S )
//
// where the first factor is the probability that at least one of the N
// threads is hit by group i's noise during a synchronization interval, and
// L_i/S is the relative delay when it happens.
type AnalyticModel struct {
	Groups []Group
}

// ErrNoGroups is returned when the model has no noise groups.
var ErrNoGroups = errors.New("noise: analytic model has no groups")

// HitProbability returns 1 - (1 - S/I)^N, the probability that the group's
// noise lands in at least one of the N per-thread synchronization intervals.
// S >= I saturates at 1.
func HitProbability(s, interval time.Duration, threads int) float64 {
	if interval <= 0 || threads <= 0 || s <= 0 {
		return 0
	}
	ratio := float64(s) / float64(interval)
	if ratio >= 1 {
		return 1
	}
	// (1-r)^N via exp/log1p for numerical stability at extreme N
	// (N is 7,630,848 on full-scale Fugaku).
	return 1 - math.Exp(float64(threads)*math.Log1p(-ratio))
}

// SlowdownOf returns group g's contribution to the relative delay.
func SlowdownOf(g Group, s time.Duration, threads int) float64 {
	if s <= 0 {
		return 0
	}
	return HitProbability(s, g.Every, threads) * float64(g.Length) / float64(s)
}

// Slowdown evaluates Eq. 1: the estimated relative delay (0.2 = 20% slower)
// for synchronization interval s across threads hardware threads, and the
// name of the dominating group.
func (m *AnalyticModel) Slowdown(s time.Duration, threads int) (float64, string, error) {
	if len(m.Groups) == 0 {
		return 0, "", ErrNoGroups
	}
	best, bestName := 0.0, m.Groups[0].Name
	for _, g := range m.Groups {
		if d := SlowdownOf(g, s, threads); d > best {
			best, bestName = d, g.Name
		}
	}
	return best, bestName, nil
}

// CriticalInterval returns the largest noise interval I (for a fixed length
// L) that still produces at least the target slowdown, by bisection. It
// answers questions like the paper's full-scale Fugaku observation: with
// N = 7,630,848 threads even noise "as rare as once in every 600 seconds"
// hits some thread almost every synchronization interval.
func CriticalInterval(length, s time.Duration, threads int, target float64) time.Duration {
	if target <= 0 || s <= 0 {
		return 0
	}
	lo, hi := time.Duration(1), 1000*time.Hour
	g := func(interval time.Duration) float64 {
		return SlowdownOf(Group{Length: length, Every: interval}, s, threads)
	}
	if g(hi) >= target {
		return hi
	}
	for i := 0; i < 100 && hi-lo > time.Nanosecond; i++ {
		mid := lo + (hi-lo)/2
		if g(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
