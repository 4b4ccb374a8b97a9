package cli_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mkos/internal/lint/cli"
)

// writeModule lays out a throwaway module for the loader; package paths
// under it ("fakemod/...") are deterministic by the ops-allowlist rule,
// so a planted time.Now is a finding.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fakemod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanSrc = `package a

func A(n int) int { return n + 1 }
`

const dirtySrc = `package b

import "time"

func B() time.Time { return time.Now() }
`

// allowSrc carries a well-formed directive for a check that a -checks
// subset leaves out: it is valid and silences nothing.
const allowSrc = `package d

import "context"

func D() context.Context {
	//simlint:allow ctxflow — a root context for the demo, not a request path
	return context.Background()
}
`

const brokenSrc = `package c

func C() int { return undefinedSymbol }
`

// TestExitCodeContract pins the go-vet-style contract: 0 clean, 1
// findings, 2 usage or internal error.
func TestExitCodeContract(t *testing.T) {
	clean := writeModule(t, map[string]string{"a/a.go": cleanSrc})
	dirty := writeModule(t, map[string]string{"a/a.go": cleanSrc, "b/b.go": dirtySrc})
	broken := writeModule(t, map[string]string{"c/c.go": brokenSrc})
	allowed := writeModule(t, map[string]string{"d/d.go": allowSrc})

	tests := []struct {
		name      string
		args      []string
		want      int
		stdoutHas string
		stderrHas string
	}{
		{name: "clean tree", args: []string{"-dir", clean, "./..."}, want: cli.ExitClean},
		{name: "findings", args: []string{"-dir", dirty}, want: cli.ExitFindings,
			stdoutHas: "[forbidden] package fakemod/b calls time.Now"},
		{name: "findings as json", args: []string{"-json", "-dir", dirty}, want: cli.ExitFindings,
			stdoutHas: `"check": "forbidden"`},
		{name: "findings as file:line list", args: []string{"-l", "-dir", dirty}, want: cli.ExitFindings,
			stdoutHas: "b.go:5"},
		{name: "check subset skips the finding", args: []string{"-checks", "maporder", "-dir", dirty},
			want: cli.ExitClean},
		{name: "check subset keeps other checks' directives valid",
			args: []string{"-checks", "maporder", "-dir", allowed}, want: cli.ExitClean},
		{name: "unknown flag", args: []string{"-nope"}, want: cli.ExitError},
		{name: "unknown check", args: []string{"-checks", "nosuch", "-dir", clean}, want: cli.ExitError,
			stderrHas: `unknown check "nosuch"`},
		{name: "unsupported package pattern", args: []string{"-dir", clean, "pkg/a"}, want: cli.ExitError,
			stderrHas: "unsupported package pattern"},
		{name: "missing module root", args: []string{"-dir", filepath.Join(clean, "nosuchdir")},
			want: cli.ExitError},
		{name: "type error is internal", args: []string{"-dir", broken}, want: cli.ExitError,
			stderrHas: "type-checking"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := cli.Run(tt.args, &stdout, &stderr)
			if got != tt.want {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tt.want, stdout.String(), stderr.String())
			}
			if tt.stdoutHas != "" && !strings.Contains(stdout.String(), tt.stdoutHas) {
				t.Errorf("stdout missing %q:\n%s", tt.stdoutHas, stdout.String())
			}
			if tt.stderrHas != "" && !strings.Contains(stderr.String(), tt.stderrHas) {
				t.Errorf("stderr missing %q:\n%s", tt.stderrHas, stderr.String())
			}
		})
	}
}

// simSrc is a miniature engine under an internal/sim path suffix, enough
// for the simtime analyzer to recognize schedulers and produce a
// suggested fix.
const simSrc = `package sim

type Time int64
type Duration int64

type Engine struct{}

func (e *Engine) Now() Time                                    { return 0 }
func (e *Engine) Schedule(d Duration, n string, f func(*Engine)) {}
`

// fixableSrc carries a stale-capture finding whose fix (use(t0) ->
// use(e2.Now())) leaves t0 alive via the outer return, so the rewritten
// package still compiles.
const fixableSrc = `package m

import "fakemod/internal/sim"

func Bad(e *sim.Engine) sim.Time {
	t0 := e.Now()
	e.Schedule(10, "x", func(e2 *sim.Engine) {
		use(t0)
	})
	return t0
}

func use(t sim.Time) {}
`

// fixGolden pins the -json document byte-for-byte under -fix: stable
// field order (check, file, line, col, message, then fix with message,
// edits, applied) and the applied mark on the rewritten finding. $DIR
// stands for the throwaway module root.
const fixGolden = `{
  "findings": [
    {
      "check": "forbidden",
      "file": "$DIR/b/b.go",
      "line": 5,
      "col": 29,
      "message": "package fakemod/b calls time.Now: simulated time must come from the engine (sim.Engine.Now, sim.Timer); the host clock is legal only in ops-side packages (internal/sweep, cmd/*)"
    },
    {
      "check": "simtime",
      "file": "$DIR/m/m.go",
      "line": 8,
      "col": 7,
      "message": "handler uses t0, a Now() value captured before the Schedule call: by the time the event fires the clock has advanced — read the engine's clock inside the handler (e.Now())",
      "fix": {
        "message": "read the live clock: replace t0 with e2.Now()",
        "edits": 1,
        "applied": true
      }
    }
  ]
}
`

// TestFixContract drives simlint -fix end to end: the JSON document
// matches the golden (field order is part of the contract), the fixable
// finding is rewritten on disk, the unfixable forbidden finding keeps the
// exit at 1, and a second -fix run changes nothing (idempotence). A tree
// whose only finding is fixable exits 0 after the rewrite.
func TestFixContract(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/sim/sim.go": simSrc,
		"m/m.go":              fixableSrc,
		"b/b.go":              dirtySrc,
	})
	var stdout, stderr bytes.Buffer
	if got := cli.Run([]string{"-fix", "-json", "-dir", dir}, &stdout, &stderr); got != cli.ExitFindings {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			got, cli.ExitFindings, stdout.String(), stderr.String())
	}
	got := strings.ReplaceAll(stdout.String(), dir, "$DIR")
	if got != fixGolden {
		t.Errorf("-fix -json document differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, fixGolden)
	}
	rewritten, err := os.ReadFile(filepath.Join(dir, "m", "m.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rewritten), "use(e2.Now())") {
		t.Errorf("-fix did not rewrite the stale capture:\n%s", rewritten)
	}

	// Idempotence: a second -fix run applies nothing and leaves every
	// byte in place.
	stdout.Reset()
	stderr.Reset()
	if got := cli.Run([]string{"-fix", "-dir", dir}, &stdout, &stderr); got != cli.ExitFindings {
		t.Fatalf("second -fix exit = %d, want %d\nstderr:\n%s", got, cli.ExitFindings, stderr.String())
	}
	if !strings.Contains(stderr.String(), "applied 0 fix(es)") {
		t.Errorf("second -fix run applied something:\n%s", stderr.String())
	}
	again, err := os.ReadFile(filepath.Join(dir, "m", "m.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, again) {
		t.Errorf("second -fix run changed the file")
	}

	// A tree whose only finding has a fix comes out clean.
	onlyFixable := writeModule(t, map[string]string{
		"internal/sim/sim.go": simSrc,
		"m/m.go":              fixableSrc,
	})
	stdout.Reset()
	stderr.Reset()
	if got := cli.Run([]string{"-fix", "-dir", onlyFixable}, &stdout, &stderr); got != cli.ExitClean {
		t.Fatalf("fixable-only exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			got, cli.ExitClean, stdout.String(), stderr.String())
	}
}

// TestJSONDocumentShape checks the CI artifact is a well-formed document
// with the fields the annotation step indexes.
func TestJSONDocumentShape(t *testing.T) {
	dirty := writeModule(t, map[string]string{"b/b.go": dirtySrc})
	var stdout, stderr bytes.Buffer
	if got := cli.Run([]string{"-json", "-dir", dirty}, &stdout, &stderr); got != cli.ExitFindings {
		t.Fatalf("exit = %d, want %d; stderr: %s", got, cli.ExitFindings, stderr.String())
	}
	var doc struct {
		Findings []struct {
			Check   string `json:"check"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Message string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("decoding JSON output: %v\n%s", err, stdout.String())
	}
	if len(doc.Findings) != 1 {
		t.Fatalf("findings = %d, want 1:\n%s", len(doc.Findings), stdout.String())
	}
	f := doc.Findings[0]
	if f.Check != "forbidden" || f.Line != 5 || !strings.HasSuffix(f.File, "b.go") || f.Message == "" {
		t.Errorf("unexpected finding: %+v", f)
	}
}
