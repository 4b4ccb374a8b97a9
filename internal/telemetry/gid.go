package telemetry

import "runtime"

// gid returns the current goroutine's id by parsing the first line of the
// stack header ("goroutine 123 [running]:"). The runtime offers no public
// accessor on purpose — goroutine identity is a poor substitute for explicit
// plumbing in application code — but it is exactly what a telemetry substrate
// needs to give concurrent simulation trials isolated sinks without threading
// a handle through every instrumented call site in every subsystem.
//
// The parse costs a few hundred nanoseconds. Default() only pays it while at
// least one goroutine-local sink is registered (see the activeLocals fast
// path), so serial runs outside a sweep are unaffected. The simulator's hot
// paths do run inside sweeps, so they resolve the sink once per unit of
// work rather than per event: bsp.Run once per run, Profile.Timeline once
// per timeline, apps.FWQSketchAcrossNodes once per call. The full-machine
// FWQ path does not look it up per node at all: each shard resolves its
// own sink once, in Setup, and the worst-K re-run once per campaign.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes), then read digits until the space.
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
