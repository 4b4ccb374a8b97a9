package checks_test

import (
	"testing"

	"mkos/internal/lint/analysis"
	"mkos/internal/lint/checks"
	"mkos/internal/lint/linttest"
)

// Each corpus demonstrates at least one caught violation (want-comment)
// and one accepted suppression (//simlint:allow with no want).

func TestMaporder(t *testing.T) {
	linttest.Run(t, checks.Maporder, "testdata/maporder", "mkos/internal/fake/maporder")
}

func TestSimtime(t *testing.T) {
	linttest.Run(t, checks.Simtime, "testdata/simtime", "mkos/internal/fake/simtime")
}

// TestSuppressionHandling exercises the directive grammar and scoping
// against a real analyzer: missing reason fails, unknown check name
// fails, an own-line directive covers the complete next statement
// (however many lines it spans), and a trailing directive covers only
// its line.
func TestSuppressionHandling(t *testing.T) {
	linttest.Run(t, checks.Forbidden, "testdata/suppress", "mkos/internal/fake/suppress")
}

func TestLockguard(t *testing.T) {
	linttest.Run(t, checks.Lockguard, "testdata/lockguard", "mkos/internal/fake/lockguard")
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, checks.Ctxflow, "testdata/ctxflow", "mkos/internal/fake/ctxflow")
}

// TestCtxflowFix checks the Background-to-parameter rewrite against its
// golden output.
func TestCtxflowFix(t *testing.T) {
	linttest.RunFix(t, checks.Ctxflow, "testdata/ctxflow_fix", "mkos/internal/fake/ctxflowfix")
}

// TestSimtimeFix checks the stale-capture-to-live-clock rewrite against
// its golden output; the handler that discards its engine parameter gets
// a finding but no fix.
func TestSimtimeFix(t *testing.T) {
	linttest.RunFix(t, checks.Simtime, "testdata/simtime_fix", "mkos/internal/fake/simtimefix")
}

func TestOpstaint(t *testing.T) {
	linttest.Run(t, checks.Opstaint, "testdata/opstaint", "mkos/internal/fake/opstaint")
}

// TestOpstaintCrossPackage loads the defining corpus and its importer
// through one loader, in dependency order: the taint fact exported for
// taintsrc.Elapsed is the only thing connecting the importer's Schedule
// argument to the host clock.
func TestOpstaintCrossPackage(t *testing.T) {
	linttest.RunDirs(t, []*analysis.Analyzer{checks.Opstaint},
		linttest.Dir{Path: "testdata/opstaint_src", PkgPath: "mkos/internal/simd/taintsrc"},
		linttest.Dir{Path: "testdata/opstaint_import", PkgPath: "mkos/internal/fake/importer"},
	)
}
