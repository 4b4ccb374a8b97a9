package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself instead of the tests when runMain
// re-executes the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("SIMCTL_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs simctl with args and the given stdout, returning its exit
// status.
func runMain(t *testing.T, stdout *os.File, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMCTL_TEST_MAIN=1")
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	t.Logf("simctl %v: exit %d, stderr:\n%s", args, cmd.ProcessState.ExitCode(), stderr.Bytes())
	return cmd.ProcessState.ExitCode()
}

// TestWriteErrorExits1 requires a failed write to stdout to fail the
// command: it once exited 0 with nothing written. The id command needs no
// daemon.
func TestWriteErrorExits1(t *testing.T) {
	args := []string{"id", "../../specs/ci-sweep.json"}
	out, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := runMain(t, out, args...); code != 0 {
		t.Fatalf("exit %d with a writable stdout, want 0", code)
	}
	if b, err := os.ReadFile(out.Name()); err != nil || !bytes.HasPrefix(b, []byte("id=")) {
		t.Fatalf("stdout %q (%v) lacks the campaign id", b, err)
	}
	// Every write to a read-only file fails.
	ro, err := os.Open(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if code := runMain(t, ro, args...); code != 1 {
		t.Fatalf("exit %d when every write to stdout fails, want 1", code)
	}
}
