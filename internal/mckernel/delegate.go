package mckernel

import (
	"fmt"
	"time"

	"mkos/internal/kernel"
	"mkos/internal/sim"
	"mkos/internal/telemetry"
)

// Delegator executes system calls as discrete events on a simulation
// engine, modelling the full offload pipeline of Sec. 5: the calling thread
// blocks, an IKC message crosses to Linux, the proxy process wakes and
// issues the real call, and the response returns over IKC before the thread
// is rescheduled. Local (performance-sensitive) calls complete in the LWK
// without touching the channel.
//
// The Instance.SyscallCost method gives the closed-form latency; Delegator
// exists for workloads that need call *ordering* and concurrency — e.g. a
// proxy serializing delegated calls from many threads, which adds queueing
// delay the closed form cannot express.
type Delegator struct {
	inst   *Instance
	engine *sim.Engine

	// Node is the global node index used to key telemetry trace events; zero
	// for single-node experiments.
	Node int

	// proxyBusyUntil serializes delegated calls through the single-threaded
	// proxy event loop.
	proxyBusyUntil sim.Time

	localCalls     uint64
	delegatedCalls uint64
	queueingTime   time.Duration
}

// NewDelegator binds an instance to an engine.
func NewDelegator(inst *Instance, engine *sim.Engine) *Delegator {
	return &Delegator{inst: inst, engine: engine}
}

// proxyQueueBuckets buckets proxy queueing delay in microseconds.
var proxyQueueBuckets = telemetry.ExpBuckets(0.5, 2, 12)

// Issue schedules syscall sc from thread th at the current simulated time;
// done is invoked when the call completes, with the thread runnable again.
// The thread must be running. Telemetry goes to the host kernel's sink.
func (d *Delegator) Issue(th *Thread, sc kernel.Syscall, done func(at sim.Time)) error {
	if th.State != ThreadRunning {
		return fmt.Errorf("mckernel: syscall %v from non-running tid %d", sc, th.TID)
	}
	sink := d.inst.Host.Sink
	if sc.PerformanceSensitive() {
		// Served in the LWK: the thread never blocks, the call is pure
		// service time on its own core.
		d.localCalls++
		sink.Counter("mckernel.syscall.local").Inc()
		cost := localSyscallCosts().Cost(sc)
		if sink.TraceEnabled() {
			sink.Span("mckernel", "lwk:"+sc.String(), d.Node, th.Core, d.engine.Now(), cost)
		}
		d.engine.Schedule(cost, "lwk:"+sc.String(), func(e *sim.Engine) {
			done(e.Now())
		})
		return nil
	}
	// Delegated: block the thread, ride the IKC, queue at the proxy.
	d.delegatedCalls++
	sink.Counter("mckernel.syscall.delegated").Inc()
	sink.Counter("mckernel.ikc.messages").Add(2) // request + response crossing
	if err := d.inst.Scheduler.Block(th); err != nil {
		return err
	}
	ikc := d.inst.IKC
	arriveAtProxy := d.engine.Now().Add(ikc.OneWay + ikc.WakeLatency)
	start := arriveAtProxy
	if d.proxyBusyUntil.After(start) {
		queued := d.proxyBusyUntil.Sub(start)
		d.queueingTime += queued
		sink.Histogram("mckernel.proxy.queueing_us", proxyQueueBuckets).
			Observe(float64(queued) / float64(time.Microsecond))
		start = d.proxyBusyUntil
	}
	service := d.inst.Host.SyscallCosts().Cost(sc)
	d.proxyBusyUntil = start.Add(service)
	finish := d.proxyBusyUntil.Add(ikc.OneWay)
	if sink.TraceEnabled() {
		now := d.engine.Now()
		sink.Span("mckernel", "offload:"+sc.String(), d.Node, th.Core, now, finish.Sub(now),
			telemetry.Arg{Key: "tid", Val: fmt.Sprint(th.TID)})
	}
	d.engine.ScheduleAt(finish, "proxy:"+sc.String(), func(e *sim.Engine) {
		// Response arrived: wake the thread on its core.
		if err := d.inst.Scheduler.Wake(th); err != nil {
			panic(fmt.Sprintf("mckernel: waking tid %d: %v", th.TID, err))
		}
		done(e.Now())
	})
	return nil
}

// Stats returns (local, delegated, total proxy queueing time).
func (d *Delegator) Stats() (local, delegated uint64, queueing time.Duration) {
	return d.localCalls, d.delegatedCalls, d.queueingTime
}
