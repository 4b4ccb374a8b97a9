// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// priority queue of pending events. All randomness flows through seeded
// generators (see Rand) so that every simulation in this repository is
// reproducible bit-for-bit for a given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point on the simulation clock, in nanoseconds since the start of
// the simulation. It is a distinct type so that wall-clock time.Time values
// cannot be confused with simulated instants.
type Time int64

// Duration is a span of simulated time in nanoseconds. It converts freely to
// and from time.Duration, which has the same representation.
type Duration = time.Duration

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Duration converts t to the span elapsed since time zero.
func (t Time) Duration() Duration { return Duration(t) }

// Seconds returns the instant as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the instant using time.Duration notation.
func (t Time) String() string { return fmt.Sprintf("T+%s", Duration(t)) }
