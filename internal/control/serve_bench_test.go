package control

import (
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// BenchmarkServeFattree16 times a cycle whose construction is a cache hit
// — only the unhealthy set changes — so what it measures is the serve
// phase: pinger selection, route expansion and the matrix, Fattree(16).
func BenchmarkServeFattree16(b *testing.B) {
	f := topo.MustFattree(16)
	c := New(f, DefaultConfig())
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		b.Fatal(err)
	}
	sick := map[topo.NodeID]bool{f.ServerID[0][0][0]: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RunCycle(sick); err != nil {
			b.Fatal(err)
		}
	}
}
