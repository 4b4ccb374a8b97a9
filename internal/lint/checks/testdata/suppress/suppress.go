// Package suppress is the corpus for //simlint:allow directive
// handling: malformed directives are themselves findings, and a valid
// directive covers exactly the next statement (own-line) or its own
// line (trailing). Its findings are ctxflow's context.Background()
// minted outside package main; forbidden takes no directive at all.
package suppress

import (
	"context"
	"time"
)

func missingReason() {
	//simlint:allow ctxflow // want "missing its reason"
	ctx := context.Background() // want "minted outside package main"
	_ = ctx
}

func wrongCheckName() {
	//simlint:allow ctxflw — typo in the check name // want "unknown check \"ctxflw\""
	ctx := context.Background() // want "minted outside package main"
	_ = ctx
}

// retiredCheckName: the host-clock rule is a row of the forbidden table,
// so walltime names no check.
func retiredCheckName() {
	//simlint:allow walltime — the analyzer became a table row // want "unknown check \"walltime\""
	ctx := context.Background() // want "minted outside package main"
	_ = ctx
}

// forbiddenTakesNoDirective: the rules table's exceptions are its rows,
// so a directive naming forbidden is malformed and silences nothing.
func forbiddenTakesNoDirective() {
	//simlint:allow forbidden — a directive exempts no row // want "cannot silence check \"forbidden\""
	t := time.Now() // want "calls time\\.Now"
	_ = t
}

func scopedToNextStatementOnly() {
	//simlint:allow ctxflow — corpus example: first statement is covered, second is not
	c0 := context.Background()
	c1 := context.Background() // want "minted outside package main"
	_, _ = c0, c1
}

func trailingCoversItsLineOnly() {
	c0 := context.Background() //simlint:allow ctxflow — corpus example: trailing form covers this line
	c1 := context.Background() // want "minted outside package main"
	_, _ = c0, c1
}

// multiLineStatementFullyCovered pins the own-line scope to the complete
// statement: the directive sits above a call whose arguments span four
// lines, and every finding inside it — including one on the last line —
// is suppressed. The statement after it is not.
func multiLineStatementFullyCovered() {
	//simlint:allow ctxflow — corpus example: the whole multi-line statement is covered
	consume(
		context.Background(),
		context.Background(),
		context.Background())
	ctx := context.Background() // want "minted outside package main"
	_ = ctx
}

// multiLineBlockFullyCovered does the same for a statement with a nested
// block: an if whose body spans lines.
func multiLineBlockFullyCovered(cond bool) {
	//simlint:allow ctxflow — corpus example: the directive covers the if statement and its body
	if cond {
		ctx := context.Background()
		_ = ctx
	}
	ctx := context.Background() // want "minted outside package main"
	_ = ctx
}

func consume(a, b, c context.Context) {}
