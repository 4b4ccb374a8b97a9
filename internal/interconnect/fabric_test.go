package interconnect

import (
	"testing"
	"time"
)

func TestHopsScaling(t *testing.T) {
	tofu, opa := TofuD(), OmniPath()
	if tofu.Hops(1) != 0 || opa.Hops(1) != 0 {
		t.Fatal("single node must be 0 hops")
	}
	// Hops must be monotone in node count.
	for _, f := range []*Fabric{tofu, opa} {
		prev := 0
		for _, n := range []int{2, 64, 1024, 8192, 158976} {
			h := f.Hops(n)
			if h < prev {
				t.Fatalf("%s: hops not monotone at %d", f.Name, n)
			}
			prev = h
		}
	}
	// A 6-D torus at Fugaku scale stays shallow.
	if tofu.Hops(158976) > 20 {
		t.Fatalf("TofuD diameter %d too deep", tofu.Hops(158976))
	}
}

func TestPointToPoint(t *testing.T) {
	f := TofuD()
	lat0, err := f.PointToPoint(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lat0 <= 0 {
		t.Fatal("zero-byte message still has latency")
	}
	lat1M, _ := f.PointToPoint(1<<20, 2)
	if lat1M <= lat0 {
		t.Fatal("bandwidth term missing")
	}
	if _, err := f.PointToPoint(-1, 2); err == nil {
		t.Fatal("negative bytes must fail")
	}
}

func TestBarrierScaling(t *testing.T) {
	tofu, opa := TofuD(), OmniPath()
	if tofu.Barrier(1) != 0 {
		t.Fatal("single-node barrier must be free")
	}
	if tofu.Barrier(8192) <= tofu.Barrier(2) {
		t.Fatal("barrier must grow with nodes")
	}
	// Hardware collectives make Tofu barriers much cheaper than OPA's.
	if tofu.Barrier(8192) >= opa.Barrier(8192) {
		t.Fatalf("Tofu HW barrier %v must beat OPA software %v",
			tofu.Barrier(8192), opa.Barrier(8192))
	}
}

func TestAllreduce(t *testing.T) {
	f := OmniPath()
	if d, _ := f.Allreduce(8, 1); d != 0 {
		t.Fatal("single-node allreduce must be free")
	}
	small, err := f.Allreduce(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	big, _ := f.Allreduce(64<<20, 1024)
	if big <= small {
		t.Fatal("large allreduce must cost more")
	}
	// Latency-bound region scales with log(n).
	d1k, _ := f.Allreduce(8, 1024)
	d8k, _ := f.Allreduce(8, 8192)
	if d8k <= d1k {
		t.Fatal("allreduce must grow with node count")
	}
	if _, err := f.Allreduce(-1, 4); err == nil {
		t.Fatal("negative bytes must fail")
	}
	// Tiny payloads on Tofu ride the barrier network.
	tofu := TofuD()
	tiny, _ := tofu.Allreduce(8, 8192)
	opaTiny, _ := f.Allreduce(8, 8192)
	if tiny >= opaTiny {
		t.Fatalf("Tofu tiny allreduce %v must beat OPA %v", tiny, opaTiny)
	}
}

func TestHaloExchange(t *testing.T) {
	f := TofuD()
	one, err := f.HaloExchange(64<<10, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	six, _ := f.HaloExchange(64<<10, 6, 64)
	if six <= one {
		t.Fatal("more faces must cost more NIC time")
	}
	if _, err := f.HaloExchange(-5, 6, 64); err == nil {
		t.Fatal("negative bytes must fail")
	}
	// Zero faces is repaired to one.
	z, _ := f.HaloExchange(64<<10, 0, 64)
	if z != one {
		t.Fatal("0 faces must behave like 1")
	}
}

func TestFabricLatencyRegimes(t *testing.T) {
	// Sanity: microsecond-class small messages on both fabrics.
	for _, f := range []*Fabric{TofuD(), OmniPath()} {
		p2p, _ := f.PointToPoint(8, 2)
		if p2p > 10*time.Microsecond || p2p < 100*time.Nanosecond {
			t.Fatalf("%s small message latency %v implausible", f.Name, p2p)
		}
	}
}
