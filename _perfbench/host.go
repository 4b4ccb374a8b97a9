package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is USER_HZ, the unit of /proc/stat and /proc/<pid>/stat times; it
// is 100 on every Linux architecture Go supports.
const clkTck = 100

// hostSample is the machine-wide CPU account from the first line of
// /proc/stat, in ticks.
type hostSample struct {
	busy, steal, total int64
}

func readHost() (hostSample, error) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}, err
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostSample{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostSample{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	s := hostSample{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
	for _, x := range v {
		s.total += x
	}
	return s, nil
}

// hostNoise is the diagnosis record of one timed phase: how much CPU the
// hypervisor stole and how much other tenants used. It annotates a run and
// is never used to drop, repeat or reweight one.
type hostNoise struct {
	StealFrac       float64 `json:"steal_frac"`
	OtherTenantCPUS float64 `json:"other_tenant_cpu_s"`
}

// noiseBetween charges the host's busy time to "other tenants" after
// removing the CPU this benchmark and the system under test used.
func noiseBetween(a, b hostSample, ours time.Duration) hostNoise {
	var n hostNoise
	if dt := b.total - a.total; dt > 0 {
		n.StealFrac = float64(b.steal-a.steal) / float64(dt)
	}
	n.OtherTenantCPUS = float64(b.busy-a.busy)/clkTck - ours.Seconds()
	return n
}

// selfCPU is this process's user+sys time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts this process's peak-RSS count (VmHWM) from its
// current RSS, so the peak covers the timed phase only.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakRSSMB is this process's peak resident set since the last
// resetPeakRSS.
func selfPeakRSSMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// treeCPU reads utime+stime+cutime+cstime of pid: the process's own CPU
// plus that of every child it has reaped.
func treeCPU(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis start at field 3 (state).
	s := string(blob)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 15 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, x := range f[11:15] { // fields 14-17
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clkTck, nil
}
