package mem

import "testing"

func newHugeBuddy(t *testing.T) *Buddy {
	t.Helper()
	// 256 MiB, 64 KiB base pages, order 12 => 256 MiB max block... too big;
	// order 11 gives 128 MiB blocks; choose order 5 (2 MiB) so huge pages
	// are exactly max-order blocks.
	b, err := NewBuddy(0, 256<<20, 64<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHugeTLBReservedPool(t *testing.T) {
	b := newHugeBuddy(t)
	if _, err := NewHugeTLBfs(HugeTLBConfig{Page: Page2M, ReservedPool: 10}, b); err != nil {
		t.Fatal(err)
	}
	// Reservation must shrink general memory (the paper's stated downside).
	if b.FreeBytes() != 256<<20-10*(2<<20) {
		t.Fatalf("free after reservation = %d", b.FreeBytes())
	}
}

func TestHugeTLBOvercommit(t *testing.T) {
	b := newHugeBuddy(t)
	if _, err := NewHugeTLBfs(HugeTLBConfig{Page: Page2M}, b); err != nil {
		t.Fatal(err)
	}
	// Fugaku config: no boot pool, pages come from the buddy at runtime.
	if b.FreeBytes() != 256<<20 {
		t.Fatal("overcommit-only config must not reserve at boot")
	}
}

func TestHugeTLBBadConfig(t *testing.T) {
	b := newHugeBuddy(t)
	if _, err := NewHugeTLBfs(HugeTLBConfig{Page: 0}, b); err == nil {
		t.Fatal("zero page size must fail")
	}
	// Pool bigger than memory must fail.
	if _, err := NewHugeTLBfs(HugeTLBConfig{Page: Page2M, ReservedPool: 1000}, b); err == nil {
		t.Fatal("oversized pool must fail")
	}
}
