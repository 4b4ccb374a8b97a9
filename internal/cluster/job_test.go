package cluster

import (
	"errors"
	"testing"
	"time"

	"mkos/internal/bsp"
)

func jobWorkload() bsp.Workload {
	return bsp.Workload{
		Name: "job-test", Scaling: bsp.StrongScaling, RefNodes: 64,
		Steps: 20, StepCompute: 5 * time.Millisecond,
		WorkingSetPerRank: 256 << 20, MemAccessPeriod: 100 * time.Nanosecond,
	}
}

func TestJobSchedulerIntegrationStyles(t *testing.T) {
	if NewJobScheduler(OFP()).Integration != PrologueEpilogue {
		t.Fatal("OFP uses prologue/epilogue scripts (Sec. 5.1)")
	}
	if NewJobScheduler(Fugaku()).Integration != TCSIntegrated {
		t.Fatal("Fugaku uses tight TCS integration (Sec. 5.1)")
	}
}

func TestJobLifecycle(t *testing.T) {
	js := NewJobScheduler(Fugaku())
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	job, err := js.Submit(jobWorkload(), g, 64, Linux, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobCompleted {
		t.Fatalf("state = %s", job.State)
	}
	if job.Result.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
	if job.ID != 1 {
		t.Fatalf("ID = %d", job.ID)
	}
	if len(js.Completed()) != 1 {
		t.Fatal("completed list wrong")
	}
	// Second job gets a fresh ID.
	job2, err := js.Submit(jobWorkload(), g, 64, McKernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID != 2 {
		t.Fatalf("second ID = %d", job2.ID)
	}
}

func TestJobValidationFailures(t *testing.T) {
	js := NewJobScheduler(Fugaku())
	g := bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}
	job, err := js.Submit(jobWorkload(), g, 200000, Linux, 1)
	if !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("err = %v", err)
	}
	if job.State != JobFailed {
		t.Fatalf("state = %s", job.State)
	}
	if _, err := js.Submit(jobWorkload(), bsp.Geometry{RanksPerNode: 100, ThreadsPerRank: 100}, 4, Linux, 1); !errors.Is(err, ErrJobGeometry) {
		t.Fatalf("geometry err = %v", err)
	}
	if _, err := js.Submit(jobWorkload(), g, 0, Linux, 1); err == nil {
		t.Fatal("zero nodes must fail")
	}
}

func TestJobPrologueOverheadOnOFPOnly(t *testing.T) {
	g := bsp.Geometry{RanksPerNode: 16, ThreadsPerRank: 16}
	ofp := NewJobScheduler(OFP())
	mckJob, err := ofp.Submit(jobWorkload(), g, 16, McKernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mckJob.Overhead <= 0 {
		t.Fatal("OFP McKernel jobs must pay prologue/epilogue boot scripts")
	}
	linJob, err := ofp.Submit(jobWorkload(), g, 16, Linux, 1)
	if err != nil {
		t.Fatal(err)
	}
	if linJob.Overhead != 0 {
		t.Fatal("Linux jobs have no LWK boot overhead")
	}
	fugaku := NewJobScheduler(Fugaku())
	tcsJob, err := fugaku.Submit(jobWorkload(), bsp.Geometry{RanksPerNode: 4, ThreadsPerRank: 12}, 16, McKernel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tcsJob.Overhead != 0 {
		t.Fatal("TCS-integrated McKernel boot is not per-job script overhead")
	}
}

func TestJobStateStrings(t *testing.T) {
	for s, want := range map[JobState]string{
		JobQueued: "queued", JobRunning: "running",
		JobCompleted: "completed", JobFailed: "failed",
	} {
		if s.String() != want {
			t.Fatalf("%d = %s", s, s.String())
		}
	}
}
