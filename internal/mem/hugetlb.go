package mem

import "fmt"

// HugeTLBfs models the Linux persistent-huge-page facility for one page
// size: an optional boot-time reserved pool plus optional runtime overcommit
// (surplus pages taken from the buddy allocator).
type HugeTLBfs struct {
	Page PageSize

	reserved     int64 // pool pages configured at boot
	reservedFree int64
	overcommit   bool

	buddy *Buddy // source of surplus pages
}

// HugeTLBConfig configures a HugeTLBfs instance.
type HugeTLBConfig struct {
	Page         PageSize
	ReservedPool int64 // pages reserved at boot (shrinks general memory)
	Overcommit   bool  // allow surplus pages from the buddy allocator
}

// NewHugeTLBfs builds the facility. When a pool is reserved, the pages are
// carved out of buddy immediately, mirroring how boot-time reservation
// limits the normal pages available to small-allocation workloads.
func NewHugeTLBfs(cfg HugeTLBConfig, buddy *Buddy) (*HugeTLBfs, error) {
	if cfg.Page <= 0 {
		return nil, fmt.Errorf("mem: bad huge page size %d", cfg.Page)
	}
	h := &HugeTLBfs{
		Page:       cfg.Page,
		overcommit: cfg.Overcommit,
		buddy:      buddy,
	}
	for i := int64(0); i < cfg.ReservedPool; i++ {
		if _, err := buddy.Alloc(cfg.Page.Bytes()); err != nil {
			return nil, fmt.Errorf("mem: reserving huge page %d/%d: %w", i, cfg.ReservedPool, err)
		}
		h.reserved++
		h.reservedFree++
	}
	return h, nil
}
