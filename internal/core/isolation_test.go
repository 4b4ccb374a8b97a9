package core

import (
	"testing"

	"mkos/internal/apps"
	"mkos/internal/cluster"
	"mkos/internal/cpu"
)

func TestMemorySystemContention(t *testing.T) {
	m := cpu.A64FXMemory()
	// Below saturation: no slowdown.
	fs, err := m.Contend([]float64{300e9, 300e9})
	if err != nil {
		t.Fatal(err)
	}
	if fs[0] != 1 || fs[1] != 1 {
		t.Fatalf("unsaturated slowdowns = %v", fs)
	}
	// Above saturation: proportional scaling.
	fs, err = m.Contend([]float64{800e9, 800e9})
	if err != nil {
		t.Fatal(err)
	}
	want := 1600e9 / 1024e9
	if fs[0] < want-1e-9 || fs[0] > want+1e-9 {
		t.Fatalf("saturated slowdown = %v, want %v", fs[0], want)
	}
	if _, err := m.Contend(nil); err == nil {
		t.Fatal("empty demands must fail")
	}
	// Negative demand treated as zero.
	fs, _ = m.Contend([]float64{-5, 100e9})
	if fs[0] != 1 {
		t.Fatal("negative demand mishandled")
	}
	if m.SlowdownWith(600e9, 600e9) <= 1 {
		t.Fatal("oversubscription must slow the primary")
	}
	if m.SlowdownWith(100e9, 100e9) != 1 {
		t.Fatal("light load must not slow anybody")
	}
}

// TestTenantNoiseProfileNamesUnique checks that the shared-kernel tenant's
// bleed source joins every OS profile without colliding with a source name
// already there, which Profile.Add refuses.
func TestTenantNoiseProfileNamesUnique(t *testing.T) {
	tenant := AnalyticsTenant()
	for _, platform := range []apps.PlatformName{apps.OnFugaku, apps.OnOFP} {
		app, err := apps.ByName("GeoFEM", platform)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []cluster.OSKind{cluster.Linux, cluster.McKernel} {
			machine, _, err := PlatformFor(platform).Machine(kind, app.Geometry)
			if err != nil {
				t.Fatal(err)
			}
			p := tenantNoiseOS{OS: machine.OS, tenant: tenant, cores: machine.Cores}.NoiseProfile()
			seen := map[string]bool{}
			for _, s := range p.Sources {
				if seen[s.Name] {
					t.Fatalf("%s %v: source %q appears twice", platform, kind, s.Name)
				}
				seen[s.Name] = true
			}
			if !seen["tenant-"+tenant.Name] || len(p.Sources) != len(machine.OS.NoiseProfile().Sources)+1 {
				t.Fatalf("%s %v: tenant profile %d sources, want the OS's plus tenant-%s",
					platform, kind, len(p.Sources), tenant.Name)
			}
		}
	}
}

func TestIsolationModeString(t *testing.T) {
	if CgroupIsolation.String() != "cgroups" || MultikernelIsolation.String() != "multikernel" {
		t.Fatal("mode strings wrong")
	}
}

// TestMultikernelIsolatesBetter is the future-work claim (Sec. 8, [37]):
// under co-location the multi-kernel keeps the primary within a whisker of
// its stand-alone runtime, while cgroup isolation leaks tenant interference.
func TestMultikernelIsolatesBetter(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs")
	}
	cg, mk, err := CompareIsolation(apps.OnFugaku, "GeoFEM", 256, AnalyticsTenant(), 9)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("co-location slowdown: cgroups=%.4f multikernel=%.4f", cg.Slowdown, mk.Slowdown)
	if cg.Slowdown <= 1.0 {
		t.Error("cgroup co-location must cost something")
	}
	if mk.Slowdown < 1.0 {
		t.Error("slowdown below 1 is impossible")
	}
	if mk.Slowdown >= cg.Slowdown {
		t.Errorf("multikernel (%.4f) must isolate better than cgroups (%.4f)",
			mk.Slowdown, cg.Slowdown)
	}
	// Multi-kernel residual interference is bandwidth-only and small for
	// GeoFEM-class traffic.
	if mk.Slowdown > 1.05 {
		t.Errorf("multikernel slowdown %.4f too large for BW-only interference", mk.Slowdown)
	}
}

// TestIsolationBandwidthBoundTenant verifies a bandwidth-hungry tenant hurts
// both schemes (no OS can partition the memory system), while a kernel-noisy
// but bandwidth-light tenant hurts only cgroups.
func TestIsolationBandwidthBoundTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs")
	}
	hog := Tenant{Name: "bw-hog", BandwidthDemand: 900e9,
		KernelActivity: 10 * 1000, KernelActivityEvery: 10 * 1e9}
	cg, mk, err := CompareIsolation(apps.OnFugaku, "LQCD", 128, hog, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bw-hog: cgroups=%.4f multikernel=%.4f", cg.Slowdown, mk.Slowdown)
	if mk.Slowdown <= 1.01 {
		t.Error("a 900 GB/s tenant must slow the primary even under the multi-kernel")
	}
	// The two schemes should be close: bandwidth dominates, kernel bleed is
	// negligible for this tenant.
	if cg.Slowdown-mk.Slowdown > 0.05 {
		t.Errorf("bw-bound tenant: schemes should be close (cg %.4f, mk %.4f)",
			cg.Slowdown, mk.Slowdown)
	}
}

func TestRunIsolationValidation(t *testing.T) {
	if _, err := RunIsolation(apps.OnFugaku, CgroupIsolation, "NoSuchApp", 16, AnalyticsTenant(), 1); err == nil {
		t.Fatal("unknown app must fail")
	}
}
