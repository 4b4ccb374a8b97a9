// Package opstaint is the opstaint analyzer corpus: wall-clock values
// laundered through locals, helpers and conversions on their way into
// the simulation, plus the flows that are fine (host values staying in
// host-side variables).
package opstaint

import (
	"time"

	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// elapsed launders a clock reading through a helper: its result is
// tainted, and the taint is visible to every caller.
func elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

func badSchedule(e *sim.Engine) {
	d := elapsed(time.Now())
	e.Schedule(sim.Duration(d), "lag", func(e2 *sim.Engine) {}) // want "flows into sim\\.Engine\\.Schedule"
}

func badConversion() sim.Time {
	n := time.Now().UnixNano()
	return sim.Time(n) // want "converted to sim\\.Time"
}

func badTelemetry(sink *telemetry.Sink) {
	secs := elapsed(time.Now()).Seconds()
	sink.Gauge("latency").Set(secs) // want "recorded in deterministic telemetry"
}

// goodHostSide keeps the host observation in host-side state: no sink,
// no finding (the forbidden table polices the package boundary separately).
func goodHostSide() time.Duration {
	return elapsed(time.Now())
}

// goodSimTime derives event timing from simulated time only.
func goodSimTime(e *sim.Engine) {
	e.Schedule(10, "tick", func(e2 *sim.Engine) {})
}

func allowedReplay(e *sim.Engine) {
	w := elapsed(time.Time{})
	//simlint:allow opstaint — corpus example: replaying a recorded wall-clock trace into the simulation deliberately
	e.Schedule(sim.Duration(w), "replay", func(e2 *sim.Engine) {})
}
