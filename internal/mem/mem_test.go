package mem

import (
	"errors"
	"testing"
)

func TestPageSizeHelpers(t *testing.T) {
	if Page64K.String() != "64K" || Page2M.String() != "2M" || Page512M.String() != "512M" {
		t.Fatalf("String: %s %s %s", Page64K, Page2M, Page512M)
	}
	if PageSize(1<<30).String() != "1G" {
		t.Fatalf("1G String: %s", PageSize(1<<30))
	}
	if PageSize(123).String() != "123B" {
		t.Fatalf("raw String: %s", PageSize(123))
	}
	if Page4K.PagesFor(0) != 0 || Page4K.PagesFor(-5) != 0 {
		t.Fatal("PagesFor non-positive must be 0")
	}
	if Page4K.PagesFor(1) != 1 || Page4K.PagesFor(4096) != 1 || Page4K.PagesFor(4097) != 2 {
		t.Fatal("PagesFor rounding wrong")
	}
	if Page2M.Align(1) != 2<<20 {
		t.Fatalf("Align: %d", Page2M.Align(1))
	}
}

func testLayout() MemoryLayout {
	return MemoryLayout{
		AppNodes: []int64{64 << 20, 64 << 20},
		SysNodes: []int64{32 << 20},
		BasePage: 64 << 10,
		MaxOrder: 8, // 16 MiB max block
	}
}

func TestPhysMemoryConstruction(t *testing.T) {
	pm, err := NewPhysMemory(testLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(pm.Nodes))
	}
	if len(pm.AppNodes()) != 2 || len(pm.SysNodes()) != 1 {
		t.Fatal("node kinds wrong")
	}
	if pm.TotalBytes() != 160<<20 {
		t.Fatalf("total = %d", pm.TotalBytes())
	}
	if pm.FreeBytes() != pm.TotalBytes() {
		t.Fatal("fresh memory must be all free")
	}
	if _, err := pm.Node(5); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("Node(5) err = %v", err)
	}
}

func TestPhysMemoryConstructionErrors(t *testing.T) {
	if _, err := NewPhysMemory(MemoryLayout{BasePage: 0}); err == nil {
		t.Fatal("zero base page must fail")
	}
	if _, err := NewPhysMemory(MemoryLayout{BasePage: 4096, MaxOrder: 8}); err == nil {
		t.Fatal("no domains must fail")
	}
	if _, err := NewPhysMemory(MemoryLayout{
		AppNodes: []int64{1 << 10}, BasePage: 64 << 10, MaxOrder: 8,
	}); err == nil {
		t.Fatal("domain smaller than max block must fail")
	}
}

func TestAllocKindVirtualNUMAIsolation(t *testing.T) {
	pm, err := NewPhysMemory(testLayout())
	if err != nil {
		t.Fatal(err)
	}
	// System allocations must land on the system domain when one exists.
	r, err := pm.AllocKind(SysNode, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Nodes[r.NUMA].Kind != SysNode {
		t.Fatalf("system allocation on %s domain %d", pm.Nodes[r.NUMA].Kind, r.NUMA)
	}
	// App allocations land on app domains.
	ra, err := pm.AllocKind(AppNode, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Nodes[ra.NUMA].Kind != AppNode {
		t.Fatalf("app allocation on %s domain", pm.Nodes[ra.NUMA].Kind)
	}
}

func TestAllocKindFallbackWithoutVirtualNUMA(t *testing.T) {
	layout := testLayout()
	layout.SysNodes = nil // OFP-style: no split
	pm, err := NewPhysMemory(layout)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pm.AllocKind(SysNode, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Nodes[r.NUMA].Kind != AppNode {
		t.Fatal("without virtual NUMA, system allocations must fall on app domains")
	}
}

func TestAllocKindSpillsAcrossDomains(t *testing.T) {
	pm, err := NewPhysMemory(testLayout())
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust domain 0, the next app allocation must spill to domain 1.
	var first Region
	for i := 0; ; i++ {
		r, err := pm.AllocKind(AppNode, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
		}
		if r.NUMA != first.NUMA {
			return // spilled
		}
		if i > 100 {
			t.Fatal("never spilled")
		}
	}
}

func TestPhysMemoryFreeRoundTrip(t *testing.T) {
	pm, _ := NewPhysMemory(testLayout())
	r, err := pm.AllocKind(AppNode, 5<<20)
	if err != nil {
		t.Fatal(err)
	}
	if want := pm.AppNodes()[0].ID; r.NUMA != want {
		t.Fatalf("NUMA = %d, want %d", r.NUMA, want)
	}
	if err := pm.Free(r); err != nil {
		t.Fatal(err)
	}
	if pm.FreeBytes() != pm.TotalBytes() {
		t.Fatal("leak after free")
	}
	r.NUMA = 99
	if err := pm.Free(r); err == nil {
		t.Fatal("free to bad domain must fail")
	}
}

func TestAppFragmentationMetric(t *testing.T) {
	pm, _ := NewPhysMemory(testLayout())
	if f := pm.AppFragmentation(8); f != 0 {
		t.Fatalf("pristine fragmentation = %v", f)
	}
	// Pin small blocks on both app domains and free neighbours.
	for _, node := range pm.AppNodes() {
		var regs []Region
		for i := 0; i < 8; i++ {
			r, err := node.Buddy.Alloc(64 << 10)
			if err != nil {
				t.Fatal(err)
			}
			r.NUMA = node.ID
			regs = append(regs, r)
		}
		for i := 0; i < len(regs); i += 2 {
			_ = pm.Free(regs[i])
		}
	}
	if f := pm.AppFragmentation(8); f <= 0 {
		t.Fatalf("expected positive app fragmentation, got %v", f)
	}
}

func TestMemoryClassFlatMode(t *testing.T) {
	// KNL-style layout: DDR app domain + MCDRAM fast domain.
	pm, err := NewPhysMemory(MemoryLayout{
		AppNodes:     []int64{96 << 20},
		FastAppNodes: []int64{16 << 20},
		BasePage:     4 << 10, MaxOrder: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The fast domain is a second application domain after the DDR one.
	if app := pm.AppNodes(); len(app) != 2 || app[1].Buddy.TotalBytes() != 16<<20 {
		t.Fatalf("app domains = %d, want DDR then MCDRAM", len(app))
	}
}
