package sweep_test

import (
	"fmt"
	"testing"

	"mkos/internal/sweep"
)

// cpuTrial is a deterministic CPU-bound unit sized around a few milliseconds
// — the same order as a reduced-scale simulation trial — so the worker-count
// sub-benchmarks measure orchestration scaling, not trivial dispatch.
func cpuTrial(seed int64) float64 {
	x := uint64(seed)
	acc := 0.0
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		acc += float64(x>>40) * 1e-9
	}
	return acc
}

func benchCampaign(trials int) *sweep.Campaign {
	c := &sweep.Campaign{Name: "bench", Seed: 1}
	for i := 0; i < trials; i++ {
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("bench/n%03d", i),
			Spec: synthSpec{ID: i, Scale: 1},
			Run: func(t *sweep.T) (any, error) {
				v := cpuTrial(t.Seed)
				t.Sink.Counter("bench.trials").Inc()
				return map[string]float64{"v": v}, nil
			},
		})
	}
	return c
}

// BenchmarkCampaignWorkers runs a 32-trial CPU-bound campaign at -j 1/2/4/8.
// On an idle 8-core runner the j8/j1 wall-clock ratio is the subsystem's
// headline speedup (results/BENCH_sweep.json records the trajectory; a
// 1-core container necessarily reports ~1x).
func BenchmarkCampaignWorkers(b *testing.B) {
	const trials = 32
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := sweep.Run(benchCampaign(trials), sweep.Options{Workers: j})
				if err != nil {
					b.Fatal(err)
				}
				if o.Executed != trials {
					b.Fatalf("executed %d trials, want %d", o.Executed, trials)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkCampaignCacheHit measures the warm-cache path: every trial loads
// from disk, none execute.
func BenchmarkCampaignCacheHit(b *testing.B) {
	dir := b.TempDir()
	opts := sweep.Options{Workers: 4, CacheDir: dir, Version: "bench-v1"}
	if _, err := sweep.Run(benchCampaign(8), opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := sweep.Run(benchCampaign(8), opts)
		if err != nil {
			b.Fatal(err)
		}
		if o.Cached != 8 {
			b.Fatalf("cached %d trials, want 8", o.Cached)
		}
	}
}
