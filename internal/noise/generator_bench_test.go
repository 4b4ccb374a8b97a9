package noise_test

import (
	"testing"
	"time"

	"mkos/internal/cluster"
	"mkos/internal/noise"
	"mkos/internal/sim"
)

// BenchmarkGeneratorNode is the per-node kernel of a full-machine FWQ
// campaign and of BSP step-noise sampling: one Fugaku node's timeline at a
// 2 s horizon, drawn from a fresh node seed on a reused Generator, Timeline
// and event buffer, so every source stream is reseeded in place.
func BenchmarkGeneratorNode(b *testing.B) {
	for _, os := range []struct {
		name string
		kind cluster.OSKind
	}{{"linux", cluster.Linux}, {"mckernel", cluster.McKernel}} {
		b.Run(os.name, func(b *testing.B) {
			node, err := cluster.Fugaku().NewNode(os.kind)
			if err != nil {
				b.Fatal(err)
			}
			g := node.OS().NoiseProfile().Generator()
			var tl noise.Timeline
			var buf []noise.Interruption
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = g.NodeInto(&tl, buf, 2*time.Second, sim.NewRand(int64(i)))
			}
		})
	}
}
