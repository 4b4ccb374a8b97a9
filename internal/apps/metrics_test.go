package apps

import (
	"math"
	"testing"
	"time"
)

func TestMetricForEveryApp(t *testing.T) {
	wantUnit := map[string]string{
		"AMG2013": "ops/s", "Lulesh": "z/s", "Milc": "site-updates/s",
		"LQCD": "TFLOPS", "GeoFEM": "iterations/s", "GAMERA": "GDOF-steps/s",
	}
	for _, name := range append(CoralSuite(), FugakuSuite()...) {
		platform := OnOFP
		app, err := ByName(name, platform)
		if err != nil {
			t.Fatal(err)
		}
		m := app.MetricFor(10*time.Second, 256)
		if m.Value <= 0 {
			t.Errorf("%s metric = %v", name, m.Value)
		}
		if m.Unit != wantUnit[app.Workload.Name] {
			t.Errorf("%s unit = %s, want %s", name, m.Unit, wantUnit[app.Workload.Name])
		}
		if m.String() == "" {
			t.Errorf("%s empty metric string", name)
		}
	}
}

func TestMetricUnknownAppFallsBackToRuntime(t *testing.T) {
	app := App{}
	app.Workload.Name = "mystery"
	m := app.MetricFor(3*time.Second, 1)
	if m.Name != "runtime" || m.Value != 3 || m.Unit != "s" {
		t.Fatalf("fallback metric = %+v", m)
	}
	// Degenerate runtime must not divide by zero.
	if v := app.MetricFor(0, 1); v.Value <= 0 {
		t.Fatal("zero runtime mishandled")
	}
}

func TestMetricFasterRuntimeHigherMetric(t *testing.T) {
	app, err := LULESH(OnOFP)
	if err != nil {
		t.Fatal(err)
	}
	slow := app.MetricFor(20*time.Second, 256)
	fast := app.MetricFor(10*time.Second, 256)
	if fast.Value <= slow.Value {
		t.Fatal("halving runtime must raise the figure of merit")
	}
	if math.Abs(fast.Value/slow.Value-2) > 1e-9 {
		t.Fatal("FOM must be inversely proportional to runtime")
	}
}
