package cpu

import (
	"testing"
	"time"
)

func TestKNLTopology(t *testing.T) {
	k := KNL()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.NumCores() != 68 {
		t.Fatalf("KNL cores = %d, want 68", k.NumCores())
	}
	if k.NumThreads() != 272 {
		t.Fatalf("KNL logical CPUs = %d, want 272", k.NumThreads())
	}
	if k.ISA != X86_64 {
		t.Fatalf("KNL ISA = %s", k.ISA)
	}
	if k.TLB.L2Entries != 64 {
		t.Fatalf("KNL L2 TLB = %d, want 64 (Table 1)", k.TLB.L2Entries)
	}
	if k.TLBIBroadcastPenalty != 0 {
		t.Fatal("x86 must not have broadcast TLBI")
	}
	if len(k.SysNUMADomains) != 0 {
		t.Fatal("OFP has no virtual NUMA split")
	}
}

func TestA64FXTopology(t *testing.T) {
	for _, assist := range []int{2, 4} {
		a := A64FX(assist)
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		wantCores := 48 + assist
		if a.NumCores() != wantCores {
			t.Fatalf("A64FX(%d) cores = %d, want %d", assist, a.NumCores(), wantCores)
		}
		if got := len(a.AppCores()); got != 48 {
			t.Fatalf("app cores = %d, want 48", got)
		}
		if got := len(a.AssistantCores()); got != assist {
			t.Fatalf("assistant cores = %d, want %d", got, assist)
		}
		if a.NumThreads() != wantCores { // no SMT (Table 1)
			t.Fatalf("threads = %d, want %d", a.NumThreads(), wantCores)
		}
		if a.TLB.L1Entries != 16 || a.TLB.L2Entries != 1024 {
			t.Fatalf("A64FX TLB = %d/%d, want 16/1024", a.TLB.L1Entries, a.TLB.L2Entries)
		}
		if a.TLBIBroadcastPenalty != 200*time.Nanosecond {
			t.Fatalf("TLBI penalty = %v, want 200ns", a.TLBIBroadcastPenalty)
		}
		if !a.HasSectorCache || !a.HasHWBarrier {
			t.Fatal("A64FX features missing")
		}
	}
}

func TestA64FXInvalidAssistantCountDefaults(t *testing.T) {
	a := A64FX(7)
	if got := len(a.AssistantCores()); got != 2 {
		t.Fatalf("invalid assistant count should default to 2, got %d", got)
	}
}

func TestA64FXCMGStructure(t *testing.T) {
	a := A64FX(2)
	perNUMA := map[int]int{}
	for _, c := range a.Cores {
		perNUMA[c.NUMA]++
	}
	for cmg := 0; cmg < 4; cmg++ {
		if perNUMA[cmg] != 12 {
			t.Fatalf("CMG %d has %d cores, want 12 (Sec. 4.1.4)", cmg, perNUMA[cmg])
		}
	}
	if perNUMA[4] != 2 {
		t.Fatalf("system NUMA domain has %d cores, want 2", perNUMA[4])
	}
}

func TestTopologyValidateCatchesErrors(t *testing.T) {
	bad := &Topology{Name: "empty", Frequency: 1e9}
	if bad.Validate() == nil {
		t.Fatal("empty topology must fail validation")
	}
	dup := &Topology{
		Name: "dup", Frequency: 1e9, NUMADomains: 1,
		Cores: []Core{
			{ID: 0, SMT: 1, ThreadIDs: []int{0}},
			{ID: 0, SMT: 1, ThreadIDs: []int{1}},
		},
	}
	if dup.Validate() == nil {
		t.Fatal("duplicate core IDs must fail validation")
	}
	badNUMA := &Topology{
		Name: "numa", Frequency: 1e9, NUMADomains: 1,
		Cores: []Core{{ID: 0, NUMA: 3, SMT: 1, ThreadIDs: []int{0}}},
	}
	if badNUMA.Validate() == nil {
		t.Fatal("out-of-range NUMA must fail validation")
	}
	badSMT := &Topology{
		Name: "smt", Frequency: 1e9, NUMADomains: 1,
		Cores: []Core{{ID: 0, SMT: 2, ThreadIDs: []int{0}}},
	}
	if badSMT.Validate() == nil {
		t.Fatal("thread list mismatch must fail validation")
	}
}

func TestCycles(t *testing.T) {
	a := A64FX(2) // 2 GHz
	if d := a.Cycles(2000); d != time.Microsecond {
		t.Fatalf("2000 cycles @2GHz = %v, want 1us", d)
	}
}

func TestTLBCoverageAdvantageOfA64FX(t *testing.T) {
	knl, a64 := KNL().TLB, A64FX(2).TLB
	page := int64(2 << 20) // 2 MB
	if a64.Coverage(page) <= knl.Coverage(page) {
		t.Fatal("A64FX must have larger TLB coverage than KNL (Sec. 3.2)")
	}
	// 1024 entries * 2MB = 2GB coverage.
	if got := a64.Coverage(page); got != 2<<30 {
		t.Fatalf("A64FX 2MB coverage = %d, want 2GiB", got)
	}
}

func TestMissRatioMonotonicity(t *testing.T) {
	cfg := A64FX(2).TLB
	page := int64(64 << 10)
	prev := -1.0
	for ws := int64(1 << 20); ws <= 64<<30; ws *= 4 {
		mr := cfg.MissRatio(ws, page)
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio out of range: %v", mr)
		}
		if mr < prev {
			t.Fatalf("miss ratio not monotone in working set at %d: %v < %v", ws, mr, prev)
		}
		prev = mr
	}
}

func TestMissRatioZeroWithinCoverage(t *testing.T) {
	cfg := A64FX(2).TLB
	page := int64(2 << 20)
	if mr := cfg.MissRatio(1<<30, page); mr != 0 {
		t.Fatalf("working set within coverage must have 0 miss ratio, got %v", mr)
	}
}

func TestMissRatioLargerPagesHelp(t *testing.T) {
	cfg := KNL().TLB
	ws := int64(16 << 30)
	small := cfg.MissRatio(ws, 4<<10)
	large := cfg.MissRatio(ws, 2<<20)
	if large >= small {
		t.Fatalf("larger pages must reduce miss ratio: 4K=%v 2M=%v", small, large)
	}
}

func TestTranslationOverhead(t *testing.T) {
	cfg := KNL().TLB
	oh := cfg.TranslationOverhead(16<<30, 4<<10, 100*time.Nanosecond)
	if oh <= 0 {
		t.Fatal("big working set with small pages must have positive overhead")
	}
	if cfg.TranslationOverhead(16<<30, 4<<10, 0) != 0 {
		t.Fatal("zero access period must yield zero overhead")
	}
}

func TestShootdownCosts(t *testing.T) {
	a64 := A64FX(2)
	_, remBroadcast := ShootdownCost(a64, ShootdownBroadcast)
	if remBroadcast != 200*time.Nanosecond {
		t.Fatalf("broadcast per-remote = %v", remBroadcast)
	}
	initIPI, remIPI := ShootdownCost(a64, ShootdownIPI)
	if remIPI <= remBroadcast {
		t.Fatal("software IPI shootdown must be slower per remote than HW broadcast (Sec. 4.2.2)")
	}
	if initIPI <= 0 {
		t.Fatal("IPI initiator cost must be positive")
	}
	_, remLocal := ShootdownCost(a64, ShootdownLocalOnly)
	if remLocal != 0 {
		t.Fatal("local-only must not stall remote cores")
	}
	// x86 broadcast degenerates to IPI.
	knl := KNL()
	ib, rb := ShootdownCost(knl, ShootdownBroadcast)
	ii, ri := ShootdownCost(knl, ShootdownIPI)
	if ib != ii || rb != ri {
		t.Fatal("x86 broadcast must equal IPI method")
	}
}

func TestShootdownMethodString(t *testing.T) {
	for m, want := range map[ShootdownMethod]string{
		ShootdownBroadcast: "broadcast-tlbi",
		ShootdownIPI:       "ipi",
		ShootdownLocalOnly: "local-only",
		ShootdownMethod(9): "unknown",
	} {
		if m.String() != want {
			t.Fatalf("String(%d) = %s", m, m.String())
		}
	}
}

func TestPMUAccounting(t *testing.T) {
	var p PMU
	p.AccountUser(time.Millisecond, 1000)
	p.AccountKernel(time.Microsecond, 50)
	s := p.Read(false)
	if s.InstrUser != 1000 || s.InstrKernel != 50 {
		t.Fatalf("instr counts wrong: %+v", s)
	}
	if s.TimeUser != time.Millisecond || s.TimeKernel != time.Microsecond {
		t.Fatalf("time split wrong: %+v", s)
	}
	if p.ReadsViaIPI != 0 {
		t.Fatal("local read must not count as IPI")
	}
	p.Read(true)
	if p.ReadsViaIPI != 1 {
		t.Fatal("remote read must count as IPI")
	}
}

func TestClassify(t *testing.T) {
	before := Snapshot{InstrKernel: 100}
	osCase := Snapshot{InstrKernel: 200}
	if got := Classify(before, osCase, time.Microsecond); got != "os-processing" {
		t.Fatalf("Classify = %s", got)
	}
	hwCase := Snapshot{InstrKernel: 100}
	if got := Classify(before, hwCase, time.Microsecond); got != "hw-contention" {
		t.Fatalf("Classify = %s", got)
	}
	if got := Classify(before, hwCase, 0); got != "none" {
		t.Fatalf("Classify = %s", got)
	}
}

func TestSectorCache(t *testing.T) {
	sc := NewSectorCache(16)
	if sc.AppInterferenceFactor(true) <= 1 {
		t.Fatal("unpartitioned cache must show OS interference")
	}
	if sc.AppInterferenceFactor(false) != 1 {
		t.Fatal("idle OS must not interfere")
	}
	if err := sc.Partition(2); err != nil {
		t.Fatal(err)
	}
	if sc.AppInterferenceFactor(true) != 1 {
		t.Fatal("partitioned cache must isolate the application")
	}
	if err := sc.Partition(0); err == nil {
		t.Fatal("0 system ways must be rejected")
	}
	if err := sc.Partition(16); err == nil {
		t.Fatal("all-system split must be rejected")
	}
}

func TestHWBarrier(t *testing.T) {
	hw := HWBarrier{Available: true}
	sw := HWBarrier{Available: false}
	if hw.Latency(1) != 0 || sw.Latency(1) != 0 {
		t.Fatal("single participant barrier must be free")
	}
	if hw.Latency(48) >= sw.Latency(48) {
		t.Fatal("hardware barrier must beat software barrier (Sec. 4.1.5)")
	}
	if sw.Latency(48) <= sw.Latency(2) {
		t.Fatal("software barrier must grow with participants")
	}
	if hw.Latency(48) != hw.Latency(12) {
		t.Fatal("hardware barrier must be flat in participants")
	}
}
