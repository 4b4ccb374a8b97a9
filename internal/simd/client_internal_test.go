package simd

import (
	"testing"
	"time"
)

// TestPollDelaySchedule pins the wait between a poll loop's probes: 1ms
// doubling to the cap, so WaitUp waits 1, 2, 4, 8, 16 and 32ms and then 50ms.
func TestPollDelaySchedule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		max  time.Duration
		want []time.Duration
	}{
		{50 * ms, []time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 50 * ms, 50 * ms}},
		{150 * ms, []time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 128 * ms, 150 * ms, 150 * ms}},
	} {
		for i, w := range tc.want {
			if got := pollDelay(i, tc.max); got != w {
				t.Fatalf("pollDelay(%d, %v) = %v, want %v", i, tc.max, got, w)
			}
		}
		if got := pollDelay(100, tc.max); got != tc.max {
			t.Fatalf("pollDelay(100, %v) = %v, want the cap", tc.max, got)
		}
	}
}
