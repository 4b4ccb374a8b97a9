package sweep_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mkos/internal/sweep"
	"mkos/internal/telemetry"
)

// synthSpec is a deterministic fake trial parameterization.
type synthSpec struct {
	ID    int     `json:"id"`
	Scale float64 `json:"scale"`
}

// synthCampaign builds n trials that exercise everything the collector must
// merge: JSON payloads, counters, float-summing histograms, gauges and trace
// spans, all derived from the trial seed only.
func synthCampaign(name string, n int, campaignSeed int64) *sweep.Campaign {
	c := &sweep.Campaign{Name: name, Seed: campaignSeed}
	for i := 0; i < n; i++ {
		spec := synthSpec{ID: i, Scale: 1.5}
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("synth/n%03d", i),
			Spec: spec,
			Run: func(t *sweep.T) (any, error) {
				rng := rand.New(rand.NewSource(t.Seed))
				sum := 0.0
				h := t.Sink.Registry().Histogram("synth.value", telemetry.ExpBuckets(0.001, 10, 6))
				for j := 0; j < 200; j++ {
					v := rng.Float64() * spec.Scale
					sum += v
					h.Observe(v)
					t.Sink.Counter("synth.iterations").Inc()
				}
				t.Sink.Gauge("synth.hwm").SetMax(sum)
				t.Sink.Span("synth", t.Key, spec.ID, 0, 0, 100)
				return map[string]any{"sum": sum, "seed": t.Seed}, nil
			},
		})
	}
	return c
}

// artifacts renders every deterministic surface of an outcome to bytes.
func artifacts(t *testing.T, o *sweep.Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	blob, err := json.MarshalIndent(o.Results, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(blob)
	buf.WriteByte('\n')
	if _, err := o.Registry.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if o.Recorder != nil {
		if err := o.Recorder.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDeterministicAcrossWorkers is the subsystem's core guarantee: a 32-
// trial campaign merged at -j 1, -j 8 and -j 8 with a shuffled trial order
// produces byte-identical results, metrics and traces. CI runs this under
// -race, which also proves trial isolation under real concurrency.
func TestDeterministicAcrossWorkers(t *testing.T) {
	const trials = 32
	base := synthCampaign("det", trials, 42)
	o1, err := sweep.Run(base, sweep.Options{Workers: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if o1.Executed != trials || o1.Failed != 0 {
		t.Fatalf("executed %d / failed %d, want %d/0", o1.Executed, o1.Failed, trials)
	}
	ref := artifacts(t, o1)

	o8, err := sweep.Run(synthCampaign("det", trials, 42), sweep.Options{Workers: 8, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := artifacts(t, o8); !bytes.Equal(ref, got) {
		t.Fatalf("-j 8 artifacts differ from -j 1:\n--- j1 ---\n%.2000s\n--- j8 ---\n%.2000s", ref, got)
	}

	shuffled := synthCampaign("det", trials, 42)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled.Trials), func(i, j int) {
		shuffled.Trials[i], shuffled.Trials[j] = shuffled.Trials[j], shuffled.Trials[i]
	})
	os, err := sweep.Run(shuffled, sweep.Options{Workers: 8, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := artifacts(t, os); !bytes.Equal(ref, got) {
		t.Fatal("shuffled trial order changed the merged artifacts")
	}
}

// TestSeedDerivation pins the derivation's properties: key- and campaign-
// sensitive, positive, and independent of everything else.
func TestSeedDerivation(t *testing.T) {
	a := sweep.DeriveSeed(1, "trial/a")
	if a <= 0 {
		t.Fatalf("derived seed %d not positive", a)
	}
	if b := sweep.DeriveSeed(1, "trial/b"); b == a {
		t.Fatal("different keys derived the same seed")
	}
	if c := sweep.DeriveSeed(2, "trial/a"); c == a {
		t.Fatal("different campaign seeds derived the same seed")
	}
	if again := sweep.DeriveSeed(1, "trial/a"); again != a {
		t.Fatalf("derivation not stable: %d then %d", a, again)
	}
	if z := sweep.DeriveSeed(0, ""); z <= 0 {
		t.Fatalf("zero inputs derived non-positive seed %d", z)
	}
}

// TestPanicIsolation: one diverging trial fails that trial, not the campaign,
// and healthy trials still complete and merge.
func TestPanicIsolation(t *testing.T) {
	c := synthCampaign("panic", 8, 1)
	c.Trials[3].Run = func(*sweep.T) (any, error) { panic("trial diverged") }
	o, err := sweep.Run(c, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 1 || o.Executed != 7 {
		t.Fatalf("failed=%d executed=%d, want 1/7", o.Failed, o.Executed)
	}
	r, ok := o.Result("synth/n003")
	if !ok || !strings.Contains(r.Err, "trial diverged") {
		t.Fatalf("panicking trial result = %+v", r)
	}
	if err := o.FirstErr(); err == nil || !strings.Contains(err.Error(), "synth/n003") {
		t.Fatalf("FirstErr = %v, want the panicking trial", err)
	}
	var payload struct{ Sum float64 }
	if err := o.Payload("synth/n004", &payload); err != nil {
		t.Fatalf("healthy trial payload unavailable: %v", err)
	}
}

// TestDuplicateKeysRejected: an ambiguous merge is a campaign-level error.
func TestDuplicateKeysRejected(t *testing.T) {
	c := synthCampaign("dup", 2, 1)
	c.Trials[1].Key = c.Trials[0].Key
	if _, err := sweep.Run(c, sweep.Options{Workers: 2}); err == nil {
		t.Fatal("duplicate trial keys were accepted")
	}
}

// TestTrialErrorsAreNotFatal: a returned error marks the trial failed and
// leaves its telemetry in the merge (partial work is still observable).
func TestTrialErrorsAreNotFatal(t *testing.T) {
	c := synthCampaign("err", 4, 1)
	c.Trials[0].Run = func(t *sweep.T) (any, error) {
		t.Sink.Counter("errtrial.partial").Inc()
		return nil, fmt.Errorf("benchmark input missing")
	}
	o, err := sweep.Run(c, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 1 {
		t.Fatalf("failed = %d, want 1", o.Failed)
	}
	if got := o.Registry.CounterValue("errtrial.partial"); got != 1 {
		t.Fatalf("failed trial's telemetry lost: counter = %d", got)
	}
}

// TestOpsRegistrySeparation: wall-clock ops metrics never leak into the
// deterministic merged registry.
func TestOpsRegistrySeparation(t *testing.T) {
	o, err := sweep.Run(synthCampaign("ops", 4, 1), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Ops.CounterValue("sweep.trials.executed"); got != 4 {
		t.Fatalf("ops executed counter = %d, want 4", got)
	}
	if o.Ops.Histogram("sweep.trial_wall_ms", nil).Count() != 4 {
		t.Fatal("ops wall-time histogram missing observations")
	}
	var dump bytes.Buffer
	if _, err := o.Registry.WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dump.String(), "sweep.") {
		t.Fatalf("ops metrics leaked into the deterministic registry:\n%s", dump.String())
	}
}
