package telemetry_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"mkos/internal/telemetry"
)

func TestSnapshotRoundTripAndMerge(t *testing.T) {
	a := telemetry.NewRegistry()
	a.Counter("x.calls").Add(3)
	a.Gauge("x.hwm").SetMax(7)
	h := a.Histogram("x.lat", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(42)

	snap := a.Snapshot()
	// The snapshot must survive the cache's JSON round trip intact.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	merged := telemetry.NewRegistry()
	merged.AddSnapshot(&back)
	merged.AddSnapshot(&back)
	if got := merged.CounterValue("x.calls"); got != 6 {
		t.Fatalf("merged counter = %d, want 6", got)
	}
	if got := merged.Gauge("x.hwm").Value(); got != 7 {
		t.Fatalf("merged gauge = %g, want 7 (max, not sum)", got)
	}
	mh := merged.Histogram("x.lat", []float64{1, 10, 100})
	if mh.Count() != 4 || mh.Sum() != 85 {
		t.Fatalf("merged histogram count=%d sum=%g, want 4/85", mh.Count(), mh.Sum())
	}

	// Merging the same snapshots in the same order must be byte-stable.
	again := telemetry.NewRegistry()
	again.AddSnapshot(&back)
	again.AddSnapshot(&back)
	var b1, b2 bytes.Buffer
	if _, err := merged.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := again.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("same fold order produced different dumps:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

func TestSinksIsolateGoroutines(t *testing.T) {
	const workers = 8
	sinks := make([]*telemetry.Sink, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		sinks[i] = telemetry.NewSink()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j <= i; j++ {
				sinks[i].Counter("trial.work").Inc()
			}
		}(i)
	}
	wg.Wait()
	for i, s := range sinks {
		if got := s.Registry().CounterValue("trial.work"); got != int64(i+1) {
			t.Fatalf("sink %d saw %d increments, want %d", i, got, i+1)
		}
	}
}

func TestRecorderMergeFrom(t *testing.T) {
	src := telemetry.NewRecorder(0)
	src.Enable()
	src.Span("cat", "op", 1, 2, 100, 50)
	src.Instant("cat", "tick", 1, 2, 200)

	dst := telemetry.NewRecorder(0) // disabled: merge must still land events
	dst.MergeFrom(src)
	if dst.Len() != 2 {
		t.Fatalf("merged recorder holds %d events, want 2", dst.Len())
	}
	var b1, b2 bytes.Buffer
	if err := src.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("merge changed the trace:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}
