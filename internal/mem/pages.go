// Package mem models the physical-memory substrate of a compute node: NUMA
// domains (including Fugaku's virtual NUMA split of system vs. application
// memory), a buddy allocator with a fragmentation metric, multi-size page
// mappings (64 KiB base pages, 2 MiB contiguous-bit pages, 512 MiB huge
// pages) and the hugeTLBfs boot-time pool.
package mem

import "fmt"

// PageSize enumerates the page sizes of the modelled systems.
type PageSize int64

// Page sizes used by the two platforms (Sec. 4.1.3): x86_64 uses 4 KiB base
// pages and 2 MiB THP; RHEL on A64FX uses a 64 KiB base page, a 2 MiB page
// via the contiguous bit, and a 512 MiB regular huge page.
const (
	Page4K   PageSize = 4 << 10
	Page64K  PageSize = 64 << 10
	Page2M   PageSize = 2 << 20
	Page512M PageSize = 512 << 20
)

// String formats the page size in conventional units.
func (p PageSize) String() string {
	switch {
	case p >= 1<<30 && p%(1<<30) == 0:
		return fmt.Sprintf("%dG", int64(p)>>30)
	case p >= 1<<20 && p%(1<<20) == 0:
		return fmt.Sprintf("%dM", int64(p)>>20)
	case p >= 1<<10 && p%(1<<10) == 0:
		return fmt.Sprintf("%dK", int64(p)>>10)
	default:
		return fmt.Sprintf("%dB", int64(p))
	}
}

// Bytes returns the size in bytes.
func (p PageSize) Bytes() int64 { return int64(p) }

// PagesFor returns how many pages of this size cover n bytes.
func (p PageSize) PagesFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + int64(p) - 1) / int64(p)
}

// Align rounds n up to a multiple of the page size.
func (p PageSize) Align(n int64) int64 {
	return p.PagesFor(n) * int64(p)
}

// Region is a span of physical memory handed out by an allocator.
type Region struct {
	Base  int64
	Bytes int64
	NUMA  int
	Order int // buddy order the region was carved from
}

// End returns the first byte past the region.
func (r Region) End() int64 { return r.Base + r.Bytes }
