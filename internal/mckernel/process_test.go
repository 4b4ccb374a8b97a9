package mckernel

import (
	"errors"
	"testing"
)

func TestExitRetiresThreads(t *testing.T) {
	in := fugakuInstance(t)
	child, err := in.Spawn("child", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Exit(child); err != nil {
		t.Fatal(err)
	}
	if !child.Exited {
		t.Fatal("child not exited")
	}
	for _, th := range child.Threads {
		if th.State != ThreadDone {
			t.Fatal("child threads must retire")
		}
	}
	// Double exit fails.
	if err := in.Exit(child); !errors.Is(err, ErrProcessExited) {
		t.Fatalf("double exit err = %v", err)
	}
}
