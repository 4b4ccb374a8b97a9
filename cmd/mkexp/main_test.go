package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"mkos/internal/core"
	"mkos/internal/sweep"
)

// TestFigure7Golden renders Figure 7 as `mkexp -figure 7` does and requires it byte for byte equal to the committed
// results/figure7.txt: a change to any model on the bsp.Run path that moves
// a printed digit fails here.
func TestFigure7Golden(t *testing.T) {
	want, err := os.ReadFile("../../results/figure7.txt")
	if err != nil {
		t.Fatal(err)
	}
	specs := core.Figure7Specs()
	c, err := figureCampaign(specs, defaultRuns, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sweep.Run(c, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	printFigures(&got, o, specs, false)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Figure 7 differs from results/figure7.txt\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestMain runs the command itself instead of the tests when runMain
// re-executes the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("MKEXP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs mkexp with args and the given stdout, returning its exit
// status.
func runMain(t *testing.T, stdout *os.File, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MKEXP_TEST_MAIN=1")
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	t.Logf("mkexp %v: exit %d, stderr:\n%s", args, cmd.ProcessState.ExitCode(), stderr.Bytes())
	return cmd.ProcessState.ExitCode()
}

// TestWriteErrorExits1 requires a failed write to stdout to fail the
// command: it once exited 0 with a truncated figure.
func TestWriteErrorExits1(t *testing.T) {
	args := []string{"-platform", "fugaku", "-app", "GAMERA", "-nodes", "16", "-runs", "1", "-j", "1"}
	out, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := runMain(t, out, args...); code != 0 {
		t.Fatalf("exit %d with a writable stdout, want 0", code)
	}
	if b, err := os.ReadFile(out.Name()); err != nil || !bytes.Contains(b, []byte("# Figure custom: GAMERA")) {
		t.Fatalf("stdout %q (%v) lacks the figure", b, err)
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
