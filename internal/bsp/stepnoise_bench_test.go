package bsp_test

import (
	"runtime"
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/telemetry"
)

// BenchmarkStepNoise measures the per-step noise sampler alone on a Figure
// 7 point: GeoFEM on 512 Fugaku nodes under Linux, with the step schedule
// and horizon bsp.Run derives for that point, over the GOMAXPROCS workers
// bsp.Run uses: ns/op is wall time per call.
func BenchmarkStepNoise(b *testing.B) {
	const nodes = 512
	app, err := apps.GeoFEM(apps.OnFugaku)
	if err != nil {
		b.Fatal(err)
	}
	m, _, err := cluster.Fugaku().Machine(cluster.Linux, app.Geometry)
	if err != nil {
		b.Fatal(err)
	}
	r, err := bsp.Run(app.Workload, m, nodes, 1)
	if err != nil {
		b.Fatal(err)
	}
	steps := app.Workload.Steps
	bd := r.Breakdown
	stepBusy := (bd.Compute + bd.MemMgmt + bd.Comm + bd.Barrier) / time.Duration(steps)
	horizon := bd.Init + time.Duration(steps)*stepBusy
	sink := telemetry.NewSink()
	profile := m.OS.NoiseProfile()
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bsp.SampleStepNoise(sink, profile, m.Cores, nodes, steps, bd.Init, stepBusy, horizon, int64(i), workers)
	}
}
