package apps

import (
	"fmt"
	"time"
)

// Custom application metrics. The paper plots *relative* performance
// "because some applications report custom metrics" (Sec. 6.4) — AMG2013
// and LULESH report a figure of merit, the QCD codes report solver
// throughput, GeoFEM reports solver iterations per second. These helpers
// convert a simulated runtime into the metric each code would print, so
// tool output reads like the real benchmarks'.

// Metric is a reported application figure.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// String renders the metric the way job logs show it.
func (m Metric) String() string {
	return fmt.Sprintf("%s = %.4g %s", m.Name, m.Value, m.Unit)
}

// MetricFor converts a runtime at a node count into the application's
// reported figure. Work terms scale with the global problem (strong
// scaling: fixed), so the metric improves as runtime shrinks.
func (a App) MetricFor(runtime time.Duration, nodes int) Metric {
	secs := runtime.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	w := a.Workload
	switch w.Name {
	case "AMG2013":
		// FOM: (nnz * iterations) / solve time; nnz fixed by the global grid.
		const nnz = 2.4e10
		return Metric{Name: "FOM", Value: nnz * float64(w.Steps) / secs, Unit: "ops/s"}
	case "Lulesh":
		// FOM(z/s): zones * iterations / time.
		const zones = 8.6e9
		return Metric{Name: "FOM", Value: zones * float64(w.Steps) / secs, Unit: "z/s"}
	case "Milc":
		const sitesPerStep = 1.1e10
		return Metric{Name: "throughput", Value: sitesPerStep * float64(w.Steps) / secs, Unit: "site-updates/s"}
	case "LQCD":
		// BiCGStab sustained flops on the Wilson-Dirac operator.
		const flopsPerStep = 3.2e13
		return Metric{Name: "sustained", Value: flopsPerStep * float64(w.Steps) / secs / 1e12, Unit: "TFLOPS"}
	case "GeoFEM":
		// ICCG solver throughput.
		return Metric{Name: "solver", Value: float64(w.Steps) / secs, Unit: "iterations/s"}
	case "GAMERA":
		// Degrees of freedom processed per second across the three steps.
		const dof = 1.7e11
		return Metric{Name: "throughput", Value: dof * float64(w.Steps) / secs / 1e9, Unit: "GDOF-steps/s"}
	default:
		return Metric{Name: "runtime", Value: secs, Unit: "s"}
	}
}
