package control

import (
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// BenchmarkServeFattree16 times the serve phase on Fattree(16). unhealthy
// is a cycle whose construction is a cache hit — only the unhealthy set
// changes — so every work order is rebuilt: pinger selection, route
// expansion and the matrix. flap is one switch link down and back up, each
// with its cycle, which rebuilds only the work orders the link's paths
// touch.
func BenchmarkServeFattree16(b *testing.B) {
	f := topo.MustFattree(16)
	c := New(f, DefaultConfig())
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		b.Fatal(err)
	}
	b.Run("unhealthy", func(b *testing.B) {
		sick := []map[topo.NodeID]bool{{f.ServerID[0][0][0]: true}, nil}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.RunCycle(sick[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flap", func(b *testing.B) {
		links := f.SwitchLinks()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := []topo.LinkID{links[(i*37)%len(links)]}
			for _, step := range [][2][]topo.LinkID{{l, nil}, {nil, l}} {
				if _, err := c.ApplyChurn(step[0], step[1]); err != nil {
					b.Fatal(err)
				}
				if err := c.RunCycle(nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
