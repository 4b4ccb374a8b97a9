package linux

import (
	"errors"
	"testing"

	"mkos/internal/kernel"
)

func TestCgroupHierarchy(t *testing.T) {
	root := NewRootCgroup(kernel.FullMask(8), []int{0, 1})
	sys, err := root.NewChild("system", kernel.NewCPUMask(6, 7), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "/system" {
		t.Fatalf("name = %s", sys.Name)
	}
	if _, err := root.NewChild("system", kernel.NewCPUMask(0), []int{0}); !errors.Is(err, ErrCgroupExists) {
		t.Fatalf("duplicate child err = %v", err)
	}
}

func TestCgroupSubsetEnforcement(t *testing.T) {
	root := NewRootCgroup(kernel.NewCPUMask(0, 1, 2, 3), []int{0})
	if _, err := root.NewChild("bad-cpus", kernel.NewCPUMask(4), []int{0}); err == nil {
		t.Fatal("cpuset outside parent must be rejected")
	}
	if _, err := root.NewChild("bad-mems", kernel.NewCPUMask(0), []int{5}); err == nil {
		t.Fatal("mems outside parent must be rejected")
	}
}

func TestCgroupAttachClampsAffinity(t *testing.T) {
	root := NewRootCgroup(kernel.FullMask(8), []int{0})
	app, _ := root.NewChild("app", kernel.NewCPUMask(0, 1, 2, 3), []int{0})
	task := kernel.NewTask(1, "a.out", kernel.AppTask, kernel.FullMask(8))
	if err := app.Attach(task); err != nil {
		t.Fatal(err)
	}
	if !task.Affinity.Equal(kernel.NewCPUMask(0, 1, 2, 3)) {
		t.Fatalf("affinity not clamped: %s", task.Affinity)
	}
	// A task whose affinity is disjoint from the cpuset adopts the cpuset.
	task2 := kernel.NewTask(2, "b.out", kernel.AppTask, kernel.NewCPUMask(7))
	if err := app.Attach(task2); err != nil {
		t.Fatal(err)
	}
	if !task2.Affinity.Equal(kernel.NewCPUMask(0, 1, 2, 3)) {
		t.Fatalf("disjoint affinity not replaced: %s", task2.Affinity)
	}
}
