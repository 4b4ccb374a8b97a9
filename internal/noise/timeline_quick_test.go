package noise

import (
	"testing"
	"testing/quick"
	"time"

	"mkos/internal/sim"
)

// genTimeline builds a deterministic timeline from fuzz bytes.
func genTimeline(spec []byte) *Timeline {
	var events []Interruption
	t := sim.Time(0)
	for _, b := range spec {
		gap := time.Duration(b%97+1) * 10 * time.Microsecond
		length := time.Duration(b%13+1) * 5 * time.Microsecond
		t = t.Add(gap)
		events = append(events, Interruption{
			Start: t, Len: length, CPU: 0, Source: "fuzz",
		})
	}
	return newTimeline(events)
}

// Property: Advance never finishes before start+work, and the extra time
// never exceeds the total interruption time on the core.
func TestQuickAdvanceBounds(t *testing.T) {
	f := func(spec []byte, startRaw uint16, workRaw uint8) bool {
		tl := genTimeline(spec)
		start := sim.Time(startRaw) * sim.Time(50*time.Microsecond)
		work := time.Duration(workRaw%200+1) * 100 * time.Microsecond
		end := tl.Advance(0, start, work)
		if end < start.Add(work) {
			return false
		}
		return end.Sub(start) <= work+tl.TotalStolen(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Advance is monotone in the start time — starting later never
// finishes earlier.
func TestQuickAdvanceMonotone(t *testing.T) {
	f := func(spec []byte, aRaw, bRaw uint16, workRaw uint8) bool {
		tl := genTimeline(spec)
		a := sim.Time(aRaw) * sim.Time(20*time.Microsecond)
		b := sim.Time(bRaw) * sim.Time(20*time.Microsecond)
		if a > b {
			a, b = b, a
		}
		work := time.Duration(workRaw%100+1) * 50 * time.Microsecond
		return tl.Advance(0, a, work) <= tl.Advance(0, b, work)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting a quantum of work into two back-to-back quanta gives
// the same completion time as running it whole (Advance composes).
func TestQuickAdvanceComposes(t *testing.T) {
	f := func(spec []byte, workRaw uint8, splitRaw uint8) bool {
		tl := genTimeline(spec)
		work := time.Duration(workRaw%100+2) * 50 * time.Microsecond
		frac := time.Duration(splitRaw%99 + 1)
		first := work * frac / 100
		if first <= 0 || first >= work {
			return true
		}
		whole := tl.Advance(0, 0, work)
		mid := tl.Advance(0, 0, first)
		composed := tl.Advance(0, mid, work-first)
		return composed == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sketch and exact FWQ runners agree on arbitrary generated
// timelines (the fuzzing counterpart of TestSketchMatchesExact in apps).
func TestQuickTotalStolenConsistency(t *testing.T) {
	f := func(spec []byte) bool {
		tl := genTimeline(spec)
		var sum time.Duration
		for _, iv := range tl.ForCPU(0) {
			sum += iv.Len
		}
		return sum == tl.TotalStolen(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
