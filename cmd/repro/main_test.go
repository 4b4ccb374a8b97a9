package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself instead of the tests when
// TestWriteErrorExits1 re-executes the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWriteErrorExits1 requires a failed write to stdout to fail the
// command: it once ran every stage and exited 0 with no report. The
// first stage's progress line is flushed before the stage runs, so a
// failing stdout stops the run there, with the write error on stderr.
// A full -quick run with a writable stdout takes several seconds; `make
// bench-models` runs it and fails on a nonzero exit.
func TestWriteErrorExits1(t *testing.T) {
	dir := t.TempDir()
	// Every write to a read-only file fails.
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	cmd := exec.Command(os.Args[0], "-quick", "-outdir", filepath.Join(dir, "out"))
	cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
	cmd.Stdout = ro
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	code := cmd.ProcessState.ExitCode()
	t.Logf("repro -quick: exit %d, stderr:\n%s", code, stderr.Bytes())
	if code != 1 {
		t.Fatalf("exit %d when every write to stdout fails, want 1", code)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("write /dev/stdout")) {
		t.Fatalf("stderr does not report the failed stdout write:\n%s", stderr.Bytes())
	}
}
