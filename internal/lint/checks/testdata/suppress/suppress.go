// Package suppress is the corpus for //simlint:allow directive
// handling: malformed directives are themselves findings, and a valid
// directive covers exactly the next statement (own-line) or its own
// line (trailing).
package suppress

import "time"

func missingReason() {
	//simlint:allow forbidden // want "missing its reason"
	t := time.Now() // want "calls time\\.Now"
	_ = t
}

func wrongCheckName() {
	//simlint:allow waltime — typo in the check name // want "unknown check \"waltime\""
	t := time.Now() // want "calls time\\.Now"
	_ = t
}

// retiredCheckName: the host-clock rule is a row of the forbidden table,
// so walltime names no check.
func retiredCheckName() {
	//simlint:allow walltime — the analyzer became a table row // want "unknown check \"walltime\""
	t := time.Now() // want "calls time\\.Now"
	_ = t
}

func scopedToNextStatementOnly() {
	//simlint:allow forbidden — corpus example: first statement is covered, second is not
	t0 := time.Now()
	t1 := time.Now() // want "calls time\\.Now"
	_, _ = t0, t1
}

func trailingCoversItsLineOnly() {
	t0 := time.Now() //simlint:allow forbidden — corpus example: trailing form covers this line
	t1 := time.Now() // want "calls time\\.Now"
	_, _ = t0, t1
}

// multiLineStatementFullyCovered pins the own-line scope to the complete
// statement: the directive sits above a call whose arguments span four
// lines, and every finding inside it — including one on the last line —
// is suppressed. The statement after it is not.
func multiLineStatementFullyCovered() {
	//simlint:allow forbidden — corpus example: the whole multi-line statement is covered
	consume(
		time.Now(),
		time.Now(),
		time.Now())
	t := time.Now() // want "calls time\\.Now"
	_ = t
}

// multiLineBlockFullyCovered does the same for a statement with a nested
// block: an if whose body spans lines.
func multiLineBlockFullyCovered(cond bool) {
	//simlint:allow forbidden — corpus example: the directive covers the if statement and its body
	if cond {
		t := time.Now()
		_ = t
	}
	t := time.Now() // want "calls time\\.Now"
	_ = t
}

func consume(a, b, c time.Time) {}
