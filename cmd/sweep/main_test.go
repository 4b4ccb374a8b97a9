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
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs sweep with args and the given stdout, returning its exit
// status.
func runMain(t *testing.T, stdout *os.File, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	t.Logf("sweep %v: exit %d, stderr:\n%s", args, cmd.ProcessState.ExitCode(), stderr.Bytes())
	return cmd.ProcessState.ExitCode()
}

// TestWriteErrorExits1 requires a failed write to stdout to fail the
// command: it once exited 0 without its summary line.
func TestWriteErrorExits1(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	blob := `{"name": "tiny", "seed": 1, "seeds": [1], "apps": [{"platform": "ofp", "app": "LQCD", "nodes": [8]}]}`
	if err := os.WriteFile(spec, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", spec, "-j", "1", "-outdir", filepath.Join(dir, "out")}
	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := runMain(t, out, args...); code != 0 {
		t.Fatalf("exit %d with a writable stdout, want 0", code)
	}
	if b, err := os.ReadFile(out.Name()); err != nil || !bytes.Contains(b, []byte("campaign tiny: 1 trials: 1 executed")) {
		t.Fatalf("stdout %q (%v) lacks the summary", b, err)
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
