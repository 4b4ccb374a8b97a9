package mem

import "fmt"

// HugeTLBfs models the Linux persistent-huge-page facility for one page
// size. Its one modeled effect is the optional boot-time reserved pool,
// carved out of general memory; without one, huge pages are surplus taken
// from the buddy allocator at runtime (overcommit).
type HugeTLBfs struct {
	Page PageSize
}

// HugeTLBConfig configures a HugeTLBfs instance.
type HugeTLBConfig struct {
	Page         PageSize
	ReservedPool int64 // pages reserved at boot (shrinks general memory)
}

// NewHugeTLBfs builds the facility. When a pool is reserved, the pages are
// carved out of buddy immediately, mirroring how boot-time reservation
// limits the normal pages available to small-allocation workloads.
func NewHugeTLBfs(cfg HugeTLBConfig, buddy *Buddy) (*HugeTLBfs, error) {
	if cfg.Page <= 0 {
		return nil, fmt.Errorf("mem: bad huge page size %d", cfg.Page)
	}
	for i := int64(0); i < cfg.ReservedPool; i++ {
		if _, err := buddy.Alloc(cfg.Page.Bytes()); err != nil {
			return nil, fmt.Errorf("mem: reserving huge page %d/%d: %w", i, cfg.ReservedPool, err)
		}
	}
	return &HugeTLBfs{Page: cfg.Page}, nil
}
