package mckernel

import (
	"errors"
	"fmt"
)

// ErrProcessExited reports an operation on a process that has exited.
var ErrProcessExited = errors.New("mckernel: process has exited")

// Exit terminates a process: threads retire from the scheduler. The
// address-space teardown triggers the TLB-flush burst Sec. 4.2.2
// describes — on McKernel the flush is confined to the process's own
// cores, while the Linux path broadcasts.
func (in *Instance) Exit(p *Process) error {
	if p.Exited {
		return fmt.Errorf("%w: pid %d", ErrProcessExited, p.PID)
	}
	for _, th := range p.Threads {
		in.Scheduler.Exit(th)
	}
	p.Exited = true
	return nil
}
