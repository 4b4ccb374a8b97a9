package runner

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// commands are the report-writing commands, the ones that start through
// Main.
var commands = []string{"faultexp", "fwq", "lwkctl", "mkexp", "noiseprofile", "repro", "simctl", "sweep", "tablegen"}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildCommands builds every command, once per test binary, and returns
// the directory holding them.
func buildCommands(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "runner-bin"); buildErr != nil {
			return
		}
		build := []string{"build", "-o", binDir + string(filepath.Separator)}
		for _, c := range commands {
			build = append(build, "mkos/cmd/"+c)
		}
		if out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), build...).CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// TestInterruptMessageNamesWhatStops interrupts a command that runs no
// campaign, simctl waiting for a daemon that never answers, and checks
// that it exits 130 and tells the operator what the signal stopped, not
// that a campaign is being canceled.
func TestInterruptMessageNamesWhatStops(t *testing.T) {
	bin := buildCommands(t)
	asked := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case asked <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	defer srv.Close()
	cmd := exec.Command(filepath.Join(bin, "simctl"), "-addr", srv.URL, "wait-up")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first health check arrives from inside run, after Main has
	// installed the signal handler.
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("simctl never asked the daemon")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Errorf("exit %d after SIGINT, want 130; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "received interrupt: abandoning the request to simd") || strings.Contains(msg, "campaign") {
		t.Errorf("stderr does not name what the interrupt stopped:\n%s", msg)
	}
}

// TestWriteErrorExits1 builds every report-writing command and runs each
// once with a writable stdout, which must exit 0 with its report, and once
// with a read-only file as stdout, which must exit 1 and name the failed
// write. Each command once exited 0 with a truncated or missing report.
func TestWriteErrorExits1(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	blob := `{"name": "tiny", "seed": 1, "seeds": [1], "apps": [{"platform": "ofp", "app": "LQCD", "nodes": [8]}]}`
	if err := os.WriteFile(spec, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		args []string
		want string // in the writable run's stdout; "" skips that run
	}{
		{"faultexp", []string{"-jobs", "1", "-nodes", "2", "-j", "1"}, "failure report, heaviest McKernel point"},
		{"fwq", []string{"-platform", "fugaku", "-os", "mckernel", "-minutes", "0.05"}, "noise rate (Eq.2)"},
		{"lwkctl", []string{"-cores", "4", "-spawn", "solver:2"}, "shutdown complete"},
		{"mkexp", []string{"-platform", "fugaku", "-app", "GAMERA", "-nodes", "16", "-runs", "1", "-j", "1"}, "# Figure custom: GAMERA"},
		{"noiseprofile", []string{"-series", "-minutes", "0.01"}, "# Figure 3 noise-length time series"},
		// repro flushes each stage's progress line before the stage runs,
		// so a failing stdout stops it before the first stage. A writable
		// -quick run takes several seconds; `make bench-models` runs it and
		// fails on a nonzero exit.
		{"repro", []string{"-quick", "-outdir", filepath.Join(dir, "repro-out")}, ""},
		// The id command needs no daemon.
		{"simctl", []string{"id", "../../../specs/ci-sweep.json"}, "id="},
		{"sweep", []string{"-spec", spec, "-j", "1", "-outdir", filepath.Join(dir, "sweep-out")}, "campaign tiny: 1 trials: 1 executed"},
		{"tablegen", []string{"-nodes", "1", "-minutes", "0.01"}, "Table 2: Effectiveness"},
	}

	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.name
	}
	if !slices.Equal(names, commands) {
		t.Fatalf("rows %v, want one per command, in order: %v", names, commands)
	}
	bin := buildCommands(t)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "out.txt")
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if r.want != "" {
				out, err := os.OpenFile(path, os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer out.Close()
				if code, _ := runCommand(t, filepath.Join(bin, r.name), out, r.args); code != 0 {
					t.Fatalf("exit %d with a writable stdout, want 0", code)
				}
				if b, err := os.ReadFile(path); err != nil || !bytes.Contains(b, []byte(r.want)) {
					t.Fatalf("stdout %q (%v) lacks %q", b, err, r.want)
				}
			}
			// Every write to a read-only file fails.
			ro, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ro.Close()
			code, stderr := runCommand(t, filepath.Join(bin, r.name), ro, r.args)
			if code != 1 {
				t.Fatalf("exit %d when every write to stdout fails, want 1", code)
			}
			if !strings.Contains(stderr, "write /dev/stdout") {
				t.Fatalf("stderr does not report the failed stdout write:\n%s", stderr)
			}
		})
	}
}

// runCommand runs the binary at path with args and the given stdout,
// returning its exit status and stderr.
func runCommand(t *testing.T, path string, stdout *os.File, args []string) (int, string) {
	t.Helper()
	cmd := exec.Command(path, args...)
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	code := cmd.ProcessState.ExitCode()
	t.Logf("%s %v: exit %d, stderr:\n%s", filepath.Base(path), args, code, stderr.Bytes())
	return code, stderr.String()
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestExitCode checks, in process, the status Main exits with and that
// what run wrote is flushed however it ends.
func TestExitCode(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	report := func(err error) func(context.Context, *bufio.Writer) error {
		return func(_ context.Context, out *bufio.Writer) error {
			fmt.Fprint(out, "report")
			return err
		}
	}
	interrupted := func(ctx context.Context, out *bufio.Writer) error {
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			return errors.New("context not canceled by SIGINT")
		}
		return report(fmt.Errorf("interrupted: %w", ctx.Err()))(ctx, out)
	}
	for _, c := range []struct {
		name string
		run  func(context.Context, *bufio.Writer) error
		code int
	}{
		{"success", report(nil), 0},
		{"returned error", report(errors.New("trial failed")), 1},
		{"interrupted", interrupted, 130},
	} {
		var out bytes.Buffer
		if code := exitCode(context.Background(), &out, "stopping the test", c.run); code != c.code || out.String() != "report" {
			t.Errorf("%s: exit %d, stdout %q; want %d, %q", c.name, code, out.String(), c.code, "report")
		}
	}
	if code := exitCode(context.Background(), failWriter{}, "stopping the test", report(nil)); code != 1 {
		t.Errorf("failed flush: exit %d, want 1", code)
	}
}
