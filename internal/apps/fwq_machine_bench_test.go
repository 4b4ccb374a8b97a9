package apps_test

import (
	"testing"
	"time"

	"mkos/internal/apps"
	"mkos/internal/cluster"
)

// BenchmarkFWQMachine runs one sequential full-machine FWQ campaign on the
// Fugaku preset per OS: 1,536 nodes, a 2 s FWQ run at the paper's 6.5 ms
// quantum, and the worst-100 re-run. Run it with -benchmem: what it
// measures is mostly per-node storage, which a shard reuses.
func BenchmarkFWQMachine(b *testing.B) {
	for _, kind := range []cluster.OSKind{cluster.Linux, cluster.McKernel} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg, err := cluster.Fugaku().MachineFWQ(kind, 1536, 0, 2*time.Second, 1, 1, 100)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := apps.FWQMachine(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
