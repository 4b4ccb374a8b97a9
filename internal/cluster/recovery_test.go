package cluster

import (
	"errors"
	"testing"
	"time"

	"mkos/internal/bsp"
	"mkos/internal/fault"
)

func recoveryWorkload() bsp.Workload {
	return bsp.Workload{
		Name: "recovery-test", Scaling: bsp.StrongScaling, RefNodes: 8,
		Steps: 10, StepCompute: 2 * time.Millisecond,
		WorkingSetPerRank: 64 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
}

func newRS(t *testing.T, rates fault.Rates, pol RecoveryPolicy, seed int64) *ResilientScheduler {
	t.Helper()
	rs, err := NewResilientScheduler(Fugaku(), fault.NewInjector(rates, seed), pol)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

var testGeometry = bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}

func TestResilientNoFaultsMatchesPlainSubmit(t *testing.T) {
	rs := newRS(t, fault.Rates{}, DefaultRecoveryPolicy(), 1)
	job, err := rs.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 7)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobCompleted || job.Attempts != 1 || job.FellBack {
		t.Fatalf("state=%s attempts=%d fellback=%v", job.State, job.Attempts, job.FellBack)
	}
	if rs.Report.TotalInjected() != 0 || rs.Report.Retries != 0 || rs.Report.WastedNodeSeconds != 0 {
		t.Fatalf("clean run dirtied the report:\n%s", rs.Report)
	}
	// Same workload/seed through the plain scheduler gives the same result.
	js := NewJobScheduler(Fugaku())
	plain, err := js.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 7)
	if err != nil {
		t.Fatal(err)
	}
	if job.Result.Runtime != plain.Result.Runtime {
		t.Fatalf("resilient %v vs plain %v", job.Result.Runtime, plain.Result.Runtime)
	}
}

func TestGracefulDegradationToLinux(t *testing.T) {
	pol := DefaultRecoveryPolicy()
	pol.FallbackAfter = 2
	// Every McKernel attempt OOMs (fatal: no demand paging). The job must
	// complete anyway, via retry and then the Linux fallback.
	rs := newRS(t, fault.Rates{LWKOOMProb: 1}, pol, 3)
	job, err := rs.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobCompleted {
		t.Fatalf("state = %s, err = %v", job.State, job.Err)
	}
	if !job.FellBack || job.OS != Linux {
		t.Fatalf("job must complete on Linux after LWK failures: fellback=%v os=%s", job.FellBack, job.OS)
	}
	if job.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (2 OOM + 1 Linux)", job.Attempts)
	}
	if rs.Report.Completed != 1 || rs.Report.Fallbacks != 1 || rs.Report.Retries != 2 {
		t.Fatalf("report wrong:\n%s", rs.Report)
	}
	if rs.Report.Injected[fault.LWKOOM] != 2 {
		t.Fatalf("injected OOMs = %d", rs.Report.Injected[fault.LWKOOM])
	}
	if rs.Report.WastedNodeSeconds <= 0 {
		t.Fatal("failed attempts must waste node-seconds")
	}
	if len(rs.Completed()) != 1 || len(rs.Failed()) != 0 {
		t.Fatal("job lists wrong")
	}
}

func TestRetriesExhausted(t *testing.T) {
	pol := DefaultRecoveryPolicy()
	pol.LinuxFallback = false
	pol.MaxRetries = 2
	rs := newRS(t, fault.Rates{LWKOOMProb: 1}, pol, 5)
	job, err := rs.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 1)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if job.State != JobFailed {
		t.Fatalf("state = %s", job.State)
	}
	if job.Attempts != 3 {
		t.Fatalf("attempts = %d, want MaxRetries+1", job.Attempts)
	}
	if len(rs.Failed()) != 1 || rs.Report.Failed != 1 {
		t.Fatal("terminal failure not recorded")
	}
}

func TestPrologueReservationFailureFallsBack(t *testing.T) {
	rs := newRS(t, fault.Rates{IHKReserveFailProb: 1}, DefaultRecoveryPolicy(), 9)
	job, err := rs.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobCompleted || !job.FellBack || job.OS != Linux {
		t.Fatalf("boot failure must degrade to Linux: state=%s fellback=%v os=%s",
			job.State, job.FellBack, job.OS)
	}
	if job.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", job.Attempts)
	}
	// Every node's prologue reservation failed.
	if rs.Report.Injected[fault.IHKReserveFail] != 8 {
		t.Fatalf("injected reserve failures = %d", rs.Report.Injected[fault.IHKReserveFail])
	}
	// The prologue boot time was burned on all 8 nodes.
	if rs.Report.WastedNodeSeconds != 8*prologueBootCost.Seconds() {
		t.Fatalf("wasted = %v, want %v", rs.Report.WastedNodeSeconds, 8*prologueBootCost.Seconds())
	}
}

func TestBlacklistingRemovesRepeatOffenders(t *testing.T) {
	pol := DefaultRecoveryPolicy()
	pol.BlacklistAfter = 1
	pol.MaxRetries = 6
	rs := newRS(t, fault.Rates{LWKPanicPerHour: 200000}, pol, 12)
	job, _ := rs.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 1)
	if rs.Report.TotalInjected() == 0 {
		t.Fatal("panic rate of 2e5/node-hour must inject something")
	}
	if len(rs.Report.BlacklistedNodes) == 0 {
		t.Fatal("BlacklistAfter=1 with injected faults must blacklist nodes")
	}
	for _, n := range rs.Report.BlacklistedNodes {
		if !rs.blacklisted[n] {
			t.Fatalf("report lists node %d but scheduler does not blacklist it", n)
		}
	}
	// Blacklisted nodes are not assigned again.
	ids, ok := rs.assignNodes(8)
	if !ok {
		t.Fatal("pool exhausted")
	}
	for _, id := range ids {
		if rs.blacklisted[id] {
			t.Fatalf("assigned blacklisted node %d", id)
		}
	}
	_ = job
}

func TestFailSilentDetectionSlowerThanFailStop(t *testing.T) {
	pol := DefaultRecoveryPolicy()
	// Fail-stop: OOM panics are seen at the next heartbeat sweep.
	stop := newRS(t, fault.Rates{LWKOOMProb: 1}, pol, 21)
	if _, err := stop.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 1); err != nil {
		t.Fatal(err)
	}
	// Fail-silent: a lost IKC message is only caught by the watchdog.
	silent := newRS(t, fault.Rates{IKCTimeoutProb: 1}, pol, 21)
	if _, err := silent.Submit(recoveryWorkload(), testGeometry, 8, McKernel, 1); err != nil {
		t.Fatal(err)
	}
	a, b := stop.Report.MeanDetectionLatency(), silent.Report.MeanDetectionLatency()
	if a <= 0 || b <= 0 {
		t.Fatalf("latencies must be positive: %v %v", a, b)
	}
	if b <= a {
		t.Fatalf("fail-silent detection (%v) must be slower than fail-stop (%v)", b, a)
	}
	if b < pol.Watchdog.Timeout-pol.Watchdog.Interval {
		t.Fatalf("fail-silent latency %v implausibly below timeout window", b)
	}
}

func TestPlainSubmitFailuresLandInFailed(t *testing.T) {
	js := NewJobScheduler(Fugaku())
	if _, err := js.Submit(recoveryWorkload(), testGeometry, 200000, Linux, 1); err == nil {
		t.Fatal("oversized job must fail")
	}
	if _, err := js.Submit(recoveryWorkload(), bsp.Geometry{RanksPerNode: 99, ThreadsPerRank: 99}, 4, Linux, 1); err == nil {
		t.Fatal("bad geometry must fail")
	}
	if len(js.Failed()) != 2 {
		t.Fatalf("Failed() holds %d jobs, want 2", len(js.Failed()))
	}
	for _, j := range js.Failed() {
		if j.State != JobFailed || j.Err == nil {
			t.Fatalf("failed job %d malformed: state=%s err=%v", j.ID, j.State, j.Err)
		}
	}
	if len(js.Completed()) != 0 {
		t.Fatal("no job completed")
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	p := RecoveryPolicy{BackoffBase: time.Second, BackoffCap: 10 * time.Second}
	want := []time.Duration{1, 2, 4, 8, 10, 10, 10}
	for i, w := range want {
		if got := p.Backoff(i); got != w*time.Second {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w*time.Second)
		}
	}
}

func TestRecoveryPolicyValidation(t *testing.T) {
	if err := DefaultRecoveryPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultRecoveryPolicy()
	bad.MaxRetries = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative retries must be rejected")
	}
	bad = DefaultRecoveryPolicy()
	bad.BackoffCap = bad.BackoffBase / 2
	if err := bad.Validate(); err == nil {
		t.Fatal("cap below base must be rejected")
	}
	bad = DefaultRecoveryPolicy()
	bad.Watchdog.Timeout = bad.Watchdog.Interval
	if err := bad.Validate(); err == nil {
		t.Fatal("bad watchdog must be rejected")
	}
}

// TestFailureReportDeterminism is the regression test for the tentpole's
// core guarantee: the same seed produces a byte-identical FailureReport —
// any accidental dependence on map iteration order or wall-clock time in
// the injector, scheduler or report rendering breaks this.
func TestFailureReportDeterminism(t *testing.T) {
	run := func() string {
		rates := fault.Rates{
			NodeCrashPerHour: 20000, LWKPanicPerHour: 60000, LWKHangPerHour: 30000,
			IHKReserveFailProb: 0.2, IKCTimeoutProb: 0.15, LWKOOMProb: 0.15,
		}
		pol := DefaultRecoveryPolicy()
		pol.MaxRetries = 4
		rs := newRS(t, rates, pol, 20211114)
		for i := 0; i < 4; i++ {
			_, _ = rs.Submit(recoveryWorkload(), testGeometry, 8, McKernel, int64(100+i))
		}
		return rs.Report.String()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("reports differ between identical runs:\n--- first\n%s--- second\n%s", first, second)
	}
	if (&fault.FailureReport{}).String() == first {
		t.Fatal("report is empty; experiment injected nothing")
	}
}
