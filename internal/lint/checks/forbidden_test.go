package checks_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"mkos/internal/lint/checks"
)

// TestForbiddenFixtures applies the rules table to in-memory files. Each
// want entry is a substring of one violation, in report order; no want
// means the file is accepted.
func TestForbiddenFixtures(t *testing.T) {
	tests := []struct {
		name, pkg, src string
		want           []string
	}{
		// math/rand, in every package.
		{"rand import in a deterministic package", "mkos/internal/fake/globalrand", `package globalrand
import "math/rand"
func seededInline() int { return rand.New(rand.NewSource(7)).Intn(10) }`,
			[]string{"package mkos/internal/fake/globalrand imports math/rand: all randomness must flow through sim.Rand"}},
		{"top-level draws", "mkos/internal/fake/globalrand", `package globalrand
import "math/rand"
func bad() {
	_ = rand.Intn(10)
	rand.Shuffle(2, func(i, j int) {})
	_ = rand.Int63()
}`, []string{"imports math/rand"}},
		{"unseeded rand.New", "mkos/internal/fake/globalrand", `package globalrand
import "math/rand"
func bad() { src := rand.NewSource(42); _ = rand.New(src) }`, []string{"imports math/rand"}},
		{"rand import in the sim package", "mkos/internal/sim", `package sim
import "math/rand"
func NewSeeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func bad() int { return rand.Int() }`, []string{"package mkos/internal/sim imports math/rand"}},
		{"rand v2 import under a cmd", "mkos/cmd/fake", `package main
import rand "math/rand/v2"
func main() { _ = rand.N(3) }`, []string{"imports math/rand/v2"}},
		{"sim.Rand draws", "mkos/internal/fake/draws", `package draws
import "mkos/internal/sim"
func draw(r *sim.Rand) float64 { return r.Float64() }`, nil},

		// The host clock, in deterministic packages.
		{"clock reads and waits in a deterministic package", "mkos/internal/fake/walltime", `package walltime
import "time"
const tick = 10 * time.Millisecond
func bad() time.Duration {
	t0 := time.Now()
	time.Sleep(tick)
	tm := time.NewTimer(tick)
	tm.Stop()
	<-time.After(tick)
	_ = time.Tick(tick)
	time.NewTicker(tick).Stop()
	_ = time.Until(t0)
	return time.Since(t0)
}`, []string{
			"package mkos/internal/fake/walltime calls time.Now: simulated time must come from the engine",
			"calls time.Sleep", "calls time.NewTimer", "calls time.After", "calls time.Tick",
			"calls time.NewTicker", "calls time.Until", "calls time.Since",
		}},
		{"time.Now in noise", "mkos/internal/noise", `package noise
import "time"
func seed() int64 { return time.Now().UnixNano() }`, []string{"package mkos/internal/noise calls time.Now"}},
		{"time.Since in sim, past a directive", "mkos/internal/sim", `package sim
import "time"
func elapsed(t0 time.Time) time.Duration {
	//simlint:allow forbidden — a directive exempts no row
	return time.Since(t0)
}`, []string{"package mkos/internal/sim calls time.Since"}},
		{"time.AfterFunc in bsp through a renamed import", "mkos/internal/bsp", `package bsp
import clock "time"
func arm(f func()) { clock.AfterFunc(clock.Second, f) }`, []string{"package mkos/internal/bsp calls time.AfterFunc"}},
		{"clock read in a cancel hook", "mkos/internal/fake/hook", `package hook
import "time"
func install(d time.Duration, set func(func() bool)) {
	deadline := time.Now().Add(d)
	set(func() bool { return time.Now().After(deadline) })
}`, []string{"calls time.Now", "calls time.Now"}},
		{"clock read in sweep campaigns", "mkos/internal/sweep/campaigns", `package campaigns
import "time"
var start = time.Now()`, []string{"package mkos/internal/sweep/campaigns calls time.Now"}},
		{"pure time values and arithmetic", "mkos/internal/fake/walltime", `package walltime
import "time"
func good(d time.Duration, t time.Time) (time.Duration, time.Time) {
	return d + time.Millisecond, t.Add(d).Round(time.Second)
}
var epoch = time.Unix(0, 0)`, nil},
		{"clock reads under a cmd", "mkos/cmd/fake", `package main
import "time"
func main() { start := time.Now(); time.Sleep(time.Millisecond); _ = time.Since(start) }`, nil},
		{"clock reads in the sweep orchestrator", "mkos/internal/sweep", `package sweep
import "time"
func deadline(d time.Duration) <-chan time.Time { return time.After(d) }`, nil},

		// internal/telemetry/ops, in deterministic packages.
		{"ops and ops log in a deterministic package", "mkos/internal/fake/opsbound", `package opsbound
import (
	"context"
	"mkos/internal/telemetry/ops"
	oplog "mkos/internal/telemetry/ops/log"
)
func bad(ctx context.Context) { _, s := ops.Start(ctx, "span"); s.End(); _ = oplog.ParseLevel }`,
			[]string{
				"package mkos/internal/fake/opsbound imports mkos/internal/telemetry/ops: the ops flight recorder",
				"imports mkos/internal/telemetry/ops/log",
			}},
		{"ops import in bsp", "mkos/internal/bsp", `package bsp
import "mkos/internal/telemetry/ops" //simlint:allow opsbound — a directive exempts no row
var _ = ops.Instant`, []string{"package mkos/internal/bsp imports mkos/internal/telemetry/ops"}},
		{"ops import in sweep campaigns", "mkos/internal/sweep/campaigns", `package campaigns
import (
	"context"
	"mkos/internal/telemetry/ops"
)
func bad(ctx context.Context) { ops.Instant(ctx, "instant") }`,
			[]string{"package mkos/internal/sweep/campaigns imports mkos/internal/telemetry/ops"}},
		{"ops log import in sweep campaigns", "mkos/internal/sweep/campaigns", `package campaigns
import oplog "mkos/internal/telemetry/ops/log"
var _ = oplog.ParseLevel`, []string{"imports mkos/internal/telemetry/ops/log"}},
		{"ops import under a cmd", "mkos/cmd/fake", `package main
import (
	"context"
	"mkos/internal/telemetry/ops"
)
func main() { _, s := ops.Start(context.Background(), "cli-span"); s.End() }`, nil},
		{"ops import in the sweep orchestrator", "mkos/internal/sweep", `package sweep
import "mkos/internal/telemetry/ops"
var _ = ops.Instant`, nil},
		{"ops log imports ops", "mkos/internal/telemetry/ops/log", `package log
import "mkos/internal/telemetry/ops"
var _ = ops.Instant`, nil},

		// os.Exit and log.Fatal*, under cmd/.
		{"log.Fatal in a repro helper", "mkos/cmd/repro", `package main
import "log"
func mustApp(err error) { if err != nil { log.Fatal(err) } }`,
			[]string{"package mkos/cmd/repro calls log.Fatal: return the error to runner.Main"}},
		{"os.Exit in tablegen", "mkos/cmd/tablegen", `package main
import "os"
func main() { os.Exit(1) }`, []string{"package mkos/cmd/tablegen calls os.Exit"}},
		{"log.Fatalf and Fatalln through a renamed import", "mkos/cmd/fwq", `package main
import stdlog "log"
func check(err error) { stdlog.Fatalf("%v", err); stdlog.Fatalln(err) }
var _ = func() int { stdlog.Fatal("init"); return 0 }()`,
			[]string{"calls log.Fatalf", "calls log.Fatalln", "calls log.Fatal"}},
		{"simctl usage exit in main", "mkos/cmd/simctl", `package main
import "os"
func main() { os.Exit(2) }`, nil},
		{"simctl exit outside main", "mkos/cmd/simctl", `package main
import "os"
func oneArg() { os.Exit(1) }`, []string{"package mkos/cmd/simctl calls os.Exit"}},
		{"runner owns its exit", "mkos/cmd/internal/runner", `package runner
import "os"
func Main() { os.Exit(0) }`, nil},
		{"simd owns its exits", "mkos/cmd/simd", `package main
import "log"
func main() { log.Fatal("provide -store DIR") }`, nil},
		{"simlint owns its exit", "mkos/cmd/simlint", `package main
import "os"
func main() { os.Exit(1) }`, nil},
		{"log.Print and a local Exit method", "mkos/cmd/fake", `package main
import "log"
type proc struct{}
func (proc) Exit(int) {}
func main() { log.Print("ok"); var p proc; p.Exit(1) }`, nil},
		{"os.Exit outside cmd", "mkos/internal/fake/exit", `package exit
import "os"
func Die() { os.Exit(1) }`, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "fixture.go", tt.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			got := checks.Violations(tt.pkg, f)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d violations, want %d: %v", len(got), len(tt.want), got)
			}
			for i, v := range got {
				if !strings.Contains(v.Message, tt.want[i]) {
					t.Errorf("violation %d at %v: %q lacks %q", i, fset.Position(v.Pos), v.Message, tt.want[i])
				}
			}
		})
	}
}

// TestTreeObeysRulesTable applies the rules table to every non-test Go
// file of the module from syntax alone, skipping testdata and hidden or
// _-prefixed directories as the go tool does. It honors no
// //simlint:allow directive: an exception is a row of the table.
func TestTreeObeysRulesTable(t *testing.T) {
	const module = "mkos"
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, v := range checks.Violations(pkg, f) {
			t.Errorf("%v: %s", fset.Position(v.Pos), v.Message)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d files under %s: not the module root", files, root)
	}
}
