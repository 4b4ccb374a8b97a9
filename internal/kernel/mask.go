// Package kernel provides abstractions shared by the Linux and McKernel
// models: CPU affinity masks, tasks, IRQ descriptors, the system-call
// vocabulary and POSIX-style signals.
package kernel

import (
	"fmt"
	"math/bits"
	"strings"
)

// CPUMask is a set of CPU (core) IDs, the kernel's cpumask_t. The models in
// this repository never exceed a few hundred cores per node, so a slice of
// words suffices.
type CPUMask struct {
	words []uint64
}

// NewCPUMask returns a mask with the listed cores set.
func NewCPUMask(cores ...int) CPUMask {
	var m CPUMask
	for _, c := range cores {
		m.Set(c)
	}
	return m
}

// FullMask returns a mask with cores [0, n) set.
func FullMask(n int) CPUMask {
	var m CPUMask
	for c := 0; c < n; c++ {
		m.Set(c)
	}
	return m
}

func (m *CPUMask) ensure(word int) {
	for len(m.words) <= word {
		m.words = append(m.words, 0)
	}
}

// Set adds core c.
func (m *CPUMask) Set(c int) {
	if c < 0 {
		return
	}
	m.ensure(c / 64)
	m.words[c/64] |= 1 << (c % 64)
}

// Count returns the number of cores in the mask.
func (m CPUMask) Count() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no cores are set.
func (m CPUMask) Empty() bool { return m.Count() == 0 }

// Cores returns the set cores in ascending order.
func (m CPUMask) Cores() []int {
	var out []int
	for wi, w := range m.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << b
		}
	}
	return out
}

// Intersect returns m ∩ o.
func (m CPUMask) Intersect(o CPUMask) CPUMask {
	var out CPUMask
	n := len(m.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out.words = make([]uint64, n)
	for i := 0; i < n; i++ {
		out.words[i] = m.words[i] & o.words[i]
	}
	return out
}

// Union returns m ∪ o.
func (m CPUMask) Union(o CPUMask) CPUMask {
	var out CPUMask
	n := len(m.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	out.words = make([]uint64, n)
	for i := range out.words {
		var a, b uint64
		if i < len(m.words) {
			a = m.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		out.words[i] = a | b
	}
	return out
}

// Equal reports set equality.
func (m CPUMask) Equal(o CPUMask) bool {
	n := len(m.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(m.words) {
			a = m.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// First returns the lowest set core, or -1 if empty.
func (m CPUMask) First() int {
	for wi, w := range m.words {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String formats the mask as a compact range list, e.g. "0-3,68-71".
func (m CPUMask) String() string {
	cores := m.Cores()
	if len(cores) == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	start, prev := cores[0], cores[0]
	flush := func() {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&sb, "%d", start)
		} else {
			fmt.Fprintf(&sb, "%d-%d", start, prev)
		}
	}
	for _, c := range cores[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return sb.String()
}
