// Determinism regression: two identical fault-injected batch sweeps must
// produce byte-identical metrics dumps and trace JSON, whether they run one
// after the other or at the same time on their own sinks. This is the
// contract that makes the telemetry artifacts diffable in CI — any
// wall-clock or map-iteration leakage into the Registry or Recorder, or any
// state shared between sinks, breaks it.
package telemetry_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/cluster"
	"mkos/internal/fault"
	"mkos/internal/telemetry"
)

// sweep runs a small faultexp-equivalent batch on a fresh sink and returns
// the metrics dump and trace JSON. It reports failures with t.Error, so it
// may run on any goroutine.
func sweep(t *testing.T) (metrics, trace string) {
	sink := telemetry.NewSink()
	sink.Recorder().Enable()

	p := cluster.OFP()
	p.Sink = sink
	rates := fault.Rates{
		NodeCrashPerHour: 500, LWKPanicPerHour: 2000, LWKHangPerHour: 1000,
		IHKReserveFailProb: 0.05, IKCTimeoutProb: 0.05, LWKOOMProb: 0.05,
	}
	rs, err := cluster.NewResilientScheduler(p, fault.NewInjector(rates, 42), cluster.DefaultRecoveryPolicy())
	if err != nil {
		t.Error(err)
		return "", ""
	}
	w := bsp.Workload{
		Name: "determinism", Scaling: bsp.StrongScaling, RefNodes: 4,
		Steps: 40, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 16}
	for j := int64(0); j < 4; j++ {
		// Terminal failures are part of the exercise, not a test error.
		_, _ = rs.Submit(w, g, 4, cluster.McKernel, 42000+j)
	}

	var mb, tb bytes.Buffer
	if _, err := sink.Registry().WriteTo(&mb); err != nil {
		t.Error(err)
	}
	if err := sink.Recorder().WriteChromeTrace(&tb); err != nil {
		t.Error(err)
	}
	return mb.String(), tb.String()
}

func TestSweepTelemetryDeterministic(t *testing.T) {
	m1, t1 := sweep(t)
	m2, t2 := sweep(t)
	if m1 != m2 {
		t.Errorf("metrics dumps differ between identical runs:\n%s\n---\n%s", m1, m2)
	}
	if t1 != t2 {
		t.Errorf("trace JSON differs between identical runs")
	}
}

// Two sweeps at once, each on its own sink, must each produce the serial
// run's bytes: nothing one publishes may reach the other's sink.
func TestSweepTelemetryConcurrentSinks(t *testing.T) {
	m0, t0 := sweep(t)
	var m, tr [2]string
	var wg sync.WaitGroup
	for i := range m {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m[i], tr[i] = sweep(t)
		}(i)
	}
	wg.Wait()
	for i := range m {
		if m[i] != m0 {
			t.Errorf("goroutine %d: metrics dump differs from the serial run:\n%s\n---\n%s", i, m[i], m0)
		}
		if tr[i] != t0 {
			t.Errorf("goroutine %d: trace JSON differs from the serial run", i)
		}
	}
}

func TestSweepCoversSubsystems(t *testing.T) {
	m, tr := sweep(t)
	// The acceptance bar: live counters from the simulation engine, the LWK,
	// Linux, and the cluster/fault layer, all in one dump.
	for _, prefix := range []string{"sim.", "mckernel.", "linux.", "cluster.", "fault.", "bsp."} {
		found := false
		for _, line := range strings.Split(m, "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && strings.HasPrefix(f[1], prefix) && f[2] != "0" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no nonzero metric with prefix %q in dump:\n%s", prefix, m)
		}
	}
	if !strings.Contains(tr, `"traceEvents"`) || !strings.Contains(tr, `"cat":"cluster"`) {
		t.Errorf("trace missing cluster spans")
	}
}
