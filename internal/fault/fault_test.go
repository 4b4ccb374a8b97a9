package fault

import (
	"reflect"
	"testing"
	"time"

	"mkos/internal/sim"
)

func heavyRates() Rates {
	return Rates{
		NodeCrashPerHour:   0.5,
		LWKPanicPerHour:    2,
		LWKHangPerHour:     1,
		IHKReserveFailProb: 0.1,
		IKCTimeoutProb:     0.05,
		LWKOOMProb:         0.05,
	}
}

func TestKindStringsAndClassification(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	for _, k := range []Kind{NodeCrash, LWKPanic, LWKOOM, IHKReserveFail} {
		if !k.FailStop() {
			t.Fatalf("%v must be fail-stop", k)
		}
	}
	for _, k := range []Kind{LWKHang, IKCTimeout} {
		if k.FailStop() {
			t.Fatalf("%v must be fail-silent", k)
		}
	}
	if NodeCrash.LWKOnly() {
		t.Fatal("node crashes hit Linux nodes too")
	}
	if !LWKPanic.LWKOnly() || !IHKReserveFail.LWKOnly() {
		t.Fatal("LWK faults must be LWK-only")
	}
}

func TestZeroRatesInjectNothing(t *testing.T) {
	in := NewInjector(Rates{}, 42)
	nodes := []int{0, 1, 2, 3}
	if got := in.Prologue(1, 0, nodes); got != nil {
		t.Fatalf("prologue faults at zero rates: %v", got)
	}
	if got := in.Runtime(1, 0, nodes, true, time.Hour); len(got) != 0 {
		t.Fatalf("runtime faults at zero rates: %v", got)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = i
	}
	a := NewInjector(heavyRates(), 7)
	b := NewInjector(heavyRates(), 7)
	// Different call order on b: sampling must be call-order independent.
	_ = b.Runtime(9, 3, nodes, true, time.Hour)
	for attempt := 0; attempt < 3; attempt++ {
		pa := a.Prologue(1, attempt, nodes)
		pb := b.Prologue(1, attempt, nodes)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("prologue plans diverge at attempt %d: %v vs %v", attempt, pa, pb)
		}
		ra := a.Runtime(1, attempt, nodes, true, time.Hour)
		rb := b.Runtime(1, attempt, nodes, true, time.Hour)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("runtime plans diverge at attempt %d", attempt)
		}
	}
	// A different seed must produce a different schedule.
	c := NewInjector(heavyRates(), 8)
	if reflect.DeepEqual(a.Runtime(1, 0, nodes, true, time.Hour), c.Runtime(1, 0, nodes, true, time.Hour)) {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestRuntimeFaultsSortedAndBounded(t *testing.T) {
	nodes := make([]int, 128)
	for i := range nodes {
		nodes[i] = i
	}
	in := NewInjector(heavyRates(), 3)
	fs := in.Runtime(2, 0, nodes, true, 30*time.Minute)
	if len(fs) == 0 {
		t.Fatal("heavy rates over 128 node-half-hours must inject something")
	}
	for i, f := range fs {
		if f.At < 0 || f.At >= 30*time.Minute {
			t.Fatalf("fault %d strikes outside the attempt: %v", i, f.At)
		}
		if i > 0 && faultLess(f, fs[i-1]) {
			t.Fatal("faults not sorted by time")
		}
	}
}

func TestLinuxAttemptsOnlySufferCrashes(t *testing.T) {
	nodes := make([]int, 256)
	for i := range nodes {
		nodes[i] = i
	}
	in := NewInjector(heavyRates(), 11)
	for _, f := range in.Runtime(4, 1, nodes, false, time.Hour) {
		if f.Kind != NodeCrash {
			t.Fatalf("linux attempt suffered %v", f.Kind)
		}
	}
}

// TestRateIndependence: zeroing one kind's rate must not change another
// kind's schedule (each kind burns its draws unconditionally).
func TestRateIndependence(t *testing.T) {
	nodes := make([]int, 64)
	for i := range nodes {
		nodes[i] = i
	}
	full := NewInjector(heavyRates(), 5).Runtime(1, 0, nodes, true, time.Hour)
	r := heavyRates()
	r.LWKPanicPerHour = 0
	noPanic := NewInjector(r, 5).Runtime(1, 0, nodes, true, time.Hour)
	var fullMinusPanics []Fault
	for _, f := range full {
		if f.Kind != LWKPanic {
			fullMinusPanics = append(fullMinusPanics, f)
		}
	}
	if !reflect.DeepEqual(fullMinusPanics, noPanic) {
		t.Fatalf("zeroing the panic rate perturbed other kinds:\n%v\nvs\n%v", fullMinusPanics, noPanic)
	}
}

func TestWatchdogValidate(t *testing.T) {
	if err := DefaultWatchdog().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Watchdog{Interval: 0, Timeout: time.Second}).Validate(); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if err := (Watchdog{Interval: time.Second, Timeout: time.Second}).Validate(); err == nil {
		t.Fatal("timeout <= interval must be rejected")
	}
}

func TestWatchdogDetection(t *testing.T) {
	w := Watchdog{Interval: time.Second, Timeout: 5 * time.Second}
	// Fail-stop at t=2.3s: noticed at the next sweep, t=3s.
	if got := w.DetectionTime(LWKPanic, 2300*time.Millisecond); got != 3*time.Second {
		t.Fatalf("fail-stop detection at %v, want 3s", got)
	}
	// Fail-silent at t=2.3s: last heartbeat was t=2s, watchdog expires at 7s.
	if got := w.DetectionTime(LWKHang, 2300*time.Millisecond); got != 7*time.Second {
		t.Fatalf("fail-silent detection at %v, want 7s", got)
	}
	// Latency is always positive and silent detection is slower.
	for _, at := range []sim.Duration{0, 999 * time.Millisecond, time.Second, 90 * time.Second} {
		stop := w.DetectionLatency(NodeCrash, at)
		silent := w.DetectionLatency(IKCTimeout, at)
		if stop <= 0 || silent <= 0 {
			t.Fatalf("non-positive latency at %v: %v %v", at, stop, silent)
		}
		if silent <= stop {
			t.Fatalf("fail-silent (%v) must be slower to detect than fail-stop (%v)", silent, stop)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &FailureReport{Seed: 9, Jobs: 3, Completed: 2, Fallbacks: 1, Failed: 1, Retries: 4}
	r.AddFault(LWKPanic, nil)
	r.AddFault(LWKPanic, nil)
	r.AddFault(NodeCrash, nil)
	r.AddDetection(2*time.Second, nil)
	r.AddDetection(4*time.Second, nil)
	r.AddWaste(16, 10*time.Second)
	r.Blacklist(7)
	r.Blacklist(3)
	r.Blacklist(7) // duplicate ignored
	if r.TotalInjected() != 3 {
		t.Fatalf("total injected = %d", r.TotalInjected())
	}
	if r.MeanDetectionLatency() != 3*time.Second {
		t.Fatalf("mean latency = %v", r.MeanDetectionLatency())
	}
	if r.DetectLatMax != 4*time.Second {
		t.Fatalf("max latency = %v", r.DetectLatMax)
	}
	if r.WastedNodeSeconds != 160 {
		t.Fatalf("wasted = %v", r.WastedNodeSeconds)
	}
	if !reflect.DeepEqual(r.BlacklistedNodes, []int{3, 7}) {
		t.Fatalf("blacklist = %v", r.BlacklistedNodes)
	}
	s := r.String()
	if s == "" || s != r.String() {
		t.Fatal("String must be stable")
	}
	for _, want := range []string{"lwk-panic", "node-crash", "seed 9", "blacklisted nodes: 2 [3 7]"} {
		if !containsStr(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
