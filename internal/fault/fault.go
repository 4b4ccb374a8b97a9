// Package fault is the failure-injection subsystem: the operational side of
// Sec. 5's "experiences" that the performance models alone cannot express.
// Running a lightweight kernel in production means living with McKernel
// instances that panic or hang at scale, IHK reservations that fail in job
// prologue scripts, and fatal LWK memory exhaustion (McKernel has no demand
// paging, so overcommit kills the job instead of swapping). Fugaku's TCS
// integration had to detect dead LWKs and fall back to Linux. This package
// provides a deterministic fault injector (same seed, same fault schedule), a
// heartbeat/watchdog detection model that distinguishes fail-stop from
// fail-silent faults, and the FailureReport the recovery experiments print.
package fault

import (
	"fmt"
	"time"

	"mkos/internal/sim"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// NodeCrash is a whole-node fail-stop: hardware fault or host Linux
	// panic. Applies to both OS configurations.
	NodeCrash Kind = iota
	// LWKPanic is a McKernel kernel panic: fail-stop, with a console
	// message the monitor sees at its next sweep.
	LWKPanic
	// LWKHang is a McKernel livelock or scheduler hang: fail-silent, only
	// the watchdog timeout notices it.
	LWKHang
	// IHKReserveFail is a prologue-time resource reservation failure:
	// ihk reserve cpu/mem fails in the job prologue script (Sec. 5.1).
	IHKReserveFail
	// IKCTimeout is a lost inter-kernel message: a delegated system call
	// never returns, so the application stalls silently.
	IKCTimeout
	// LWKOOM is McKernel memory exhaustion. With no demand paging an
	// over-committed allocation is fatal, not reclaimable (Sec. 5.2).
	LWKOOM

	// NumKinds counts the fault kinds; reports index arrays by Kind to stay
	// free of map iteration order.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case LWKPanic:
		return "lwk-panic"
	case LWKHang:
		return "lwk-hang"
	case IHKReserveFail:
		return "ihk-reserve-fail"
	case IKCTimeout:
		return "ikc-timeout"
	case LWKOOM:
		return "lwk-oom"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FailStop reports whether the fault announces itself (death notification,
// console panic): the monitor learns of it at its next heartbeat sweep. The
// alternative is fail-silent: the node looks alive but makes no progress, and
// only the watchdog timeout uncovers it.
func (k Kind) FailStop() bool {
	switch k {
	case NodeCrash, LWKPanic, LWKOOM, IHKReserveFail:
		return true
	default:
		return false
	}
}

// LWKOnly reports whether the fault can only strike a McKernel node. Native
// Linux nodes suffer only NodeCrash — the basis of the graceful-degradation
// tradeoff: falling back to Linux trades noise for robustness.
func (k Kind) LWKOnly() bool { return k != NodeCrash }

// Rates configures how often each kind strikes. Time-based kinds are
// per-node-hour exponential arrival rates; the rest are per-attempt
// probabilities.
type Rates struct {
	// NodeCrashPerHour is the per-node-hour rate of whole-node crashes.
	NodeCrashPerHour float64
	// LWKPanicPerHour is the per-node-hour rate of McKernel panics.
	LWKPanicPerHour float64
	// LWKHangPerHour is the per-node-hour rate of McKernel hangs.
	LWKHangPerHour float64
	// IHKReserveFailProb is the per-node probability that the prologue's
	// IHK reservation fails.
	IHKReserveFailProb float64
	// IKCTimeoutProb is the per-node per-attempt probability of a lost IKC
	// message stalling the job.
	IKCTimeoutProb float64
	// LWKOOMProb is the per-node per-attempt probability that the job's
	// allocations exhaust the LWK partition.
	LWKOOMProb float64
}

// Fault is one injected failure: kind, victim node, and offset from the
// attempt's run start.
type Fault struct {
	Kind Kind
	Node int // global node index
	At   sim.Duration
}

// Injector deterministically samples fault schedules. Every decision is drawn
// from a stream derived from (seed, job, attempt, node), so schedules do not
// depend on call order, on which other jobs ran first, or on anything outside
// the seed — same seed, same fault schedule, same report.
type Injector struct {
	Rates Rates
	seed  int64
}

// NewInjector builds an injector for a rate configuration.
func NewInjector(rates Rates, seed int64) *Injector {
	return &Injector{Rates: rates, seed: seed}
}

// Seed returns the injector's seed (recorded in reports).
func (in *Injector) Seed() int64 { return in.seed }

func (in *Injector) stream(jobID, attempt, node int, label string) *sim.Rand {
	return sim.NewRand(in.seed).DeriveNamed(
		fmt.Sprintf("fault/%s/j%d/a%d/n%d", label, jobID, attempt, node))
}

// Prologue returns the nodes (ascending) whose IHK reservation fails during
// this attempt's prologue script. Only meaningful for McKernel attempts;
// native Linux jobs run no IHK prologue.
func (in *Injector) Prologue(jobID, attempt int, nodes []int) []int {
	if in.Rates.IHKReserveFailProb <= 0 {
		return nil
	}
	var out []int
	for _, n := range nodes {
		if in.stream(jobID, attempt, n, "prologue").Bernoulli(in.Rates.IHKReserveFailProb) {
			out = append(out, n)
		}
	}
	return out
}

// Runtime returns the faults striking during an attempt of nominal length
// runtime, earliest first (ties broken by node then kind, keeping the order
// deterministic). lwk selects whether LWK-only kinds can fire.
func (in *Injector) Runtime(jobID, attempt int, nodes []int, lwk bool, runtime sim.Duration) []Fault {
	if runtime <= 0 {
		return nil
	}
	var out []Fault
	for _, n := range nodes {
		rng := in.stream(jobID, attempt, n, "runtime")
		// Fixed sampling order per node: every kind always draws, so one
		// rate change never perturbs another kind's schedule.
		out = appendArrival(out, rng, NodeCrash, n, in.Rates.NodeCrashPerHour, runtime)
		panicAt := appendArrival(nil, rng, LWKPanic, n, in.Rates.LWKPanicPerHour, runtime)
		hangAt := appendArrival(nil, rng, LWKHang, n, in.Rates.LWKHangPerHour, runtime)
		ikc := appendProb(nil, rng, IKCTimeout, n, in.Rates.IKCTimeoutProb, runtime)
		oom := appendProb(nil, rng, LWKOOM, n, in.Rates.LWKOOMProb, runtime)
		if lwk {
			out = append(out, panicAt...)
			out = append(out, hangAt...)
			out = append(out, ikc...)
			out = append(out, oom...)
		}
	}
	sortFaults(out)
	return out
}

// appendArrival samples an exponential time-to-failure for a per-node-hour
// rate and appends a fault if it lands inside the attempt.
func appendArrival(out []Fault, rng *sim.Rand, k Kind, node int, perHour float64, runtime sim.Duration) []Fault {
	if perHour <= 0 {
		// Burn a draw anyway so rates are independent knobs.
		_ = rng.Float64()
		return out
	}
	ttf := sim.Duration(rng.Exp(float64(time.Hour) / perHour))
	if ttf < runtime {
		out = append(out, Fault{Kind: k, Node: node, At: ttf})
	}
	return out
}

// appendProb samples a per-attempt Bernoulli fault with a uniform strike time.
func appendProb(out []Fault, rng *sim.Rand, k Kind, node int, p float64, runtime sim.Duration) []Fault {
	hit := rng.Bernoulli(p)
	at := sim.Duration(rng.Uniform(0, float64(runtime)))
	if p > 0 && hit {
		out = append(out, Fault{Kind: k, Node: node, At: at})
	}
	return out
}

// sortFaults orders by (At, Node, Kind); insertion sort keeps it allocation
// free and stable for the small per-attempt schedules.
func sortFaults(fs []Fault) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && faultLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func faultLess(a, b Fault) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Kind < b.Kind
}
