package linux

import (
	"errors"
	"fmt"

	"mkos/internal/kernel"
)

// ErrCgroupExists reports a sub-group name already in use.
var ErrCgroupExists = errors.New("linux: cgroup already exists")

// Cgroup is a simplified v1-style control group with the cpuset
// controller, which is what Fugaku's isolation uses (Sec. 4.1.1, 4.2).
// Docker creates these under the hood for containers.
type Cgroup struct {
	Name   string
	Parent *Cgroup

	// cpuset controller
	CPUs kernel.CPUMask
	Mems []int // allowed NUMA domains

	children map[string]*Cgroup
}

// NewRootCgroup creates the root group spanning the given CPUs and domains.
func NewRootCgroup(cpus kernel.CPUMask, mems []int) *Cgroup {
	return &Cgroup{
		Name: "/", CPUs: cpus, Mems: mems,
		children: make(map[string]*Cgroup),
	}
}

// NewChild creates a sub-group. The child's cpuset must be a subset of the
// parent's, as the kernel enforces.
func (c *Cgroup) NewChild(name string, cpus kernel.CPUMask, mems []int) (*Cgroup, error) {
	if _, ok := c.children[name]; ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrCgroupExists, c.Name, name)
	}
	if !cpus.Intersect(c.CPUs).Equal(cpus) {
		return nil, fmt.Errorf("linux: cgroup %q cpuset %s not a subset of parent %s",
			name, cpus, c.CPUs)
	}
	allowed := make(map[int]bool, len(c.Mems))
	for _, m := range c.Mems {
		allowed[m] = true
	}
	for _, m := range mems {
		if !allowed[m] {
			return nil, fmt.Errorf("linux: cgroup %q mems %v not a subset of parent %v", name, mems, c.Mems)
		}
	}
	child := &Cgroup{
		Name: c.Name + name, Parent: c, CPUs: cpus, Mems: mems,
		children: make(map[string]*Cgroup),
	}
	c.children[name] = child
	return child, nil
}

// Attach places a task in this cgroup by clamping its affinity to the
// group's cpuset.
func (c *Cgroup) Attach(t *kernel.Task) error {
	eff := t.Affinity.Intersect(c.CPUs)
	if eff.Empty() {
		eff = c.CPUs
	}
	return t.SetAffinity(eff)
}
