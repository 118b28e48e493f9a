package shard

import (
	"fmt"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// benchSharded measures distributed construction. Each shard models one
// controller process with a fixed compute budget (Workers: 1), and
// Sequential mode times the shards one at a time so that per-shard elapsed
// is an uncontended measurement even on a small benchmark box. Every
// iteration builds a fresh coordinator, whose store holds nothing, and
// times its first cycle: a later cycle on one coordinator dispatches
// nothing. Two numbers come out:
//
//   - ns/op: the cost of emulating the whole cycle on one box (every
//     shard's work plus merge, run back to back);
//   - critical-path-ms: the slowest shard's construction time — the wall
//     clock a real N-controller deployment would see, which is the figure
//     the shards=N progression is about.
func benchSharded(b *testing.B, k int, shards int) {
	f := topo.MustFattree(k)
	ps := route.NewFattreePaths(f)
	opt := Options{
		Shards:     shards,
		Sequential: true,
		PMC:        pmc.Options{Alpha: 2, Beta: 1, Workers: 1},
		TTL:        time.Hour,
	}
	var crit time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(ps, f.NumLinks(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := c.Construct()
		b.StopTimer()
		c.Stop()
		if err != nil {
			b.Fatal(err)
		}
		crit = res.CriticalPath
		b.StartTimer()
	}
	b.ReportMetric(float64(crit.Microseconds())/1000.0, "critical-path-ms")
}

// BenchmarkShardedConstructFattree16 is the acceptance benchmark: the
// critical path with 4 shards must come in at least 2x below 1 shard.
// Fattree(16) decomposes into 8 equal components, so the capacity-capped
// assignment gives every shard exactly 8/N of the work.
func BenchmarkShardedConstructFattree16(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchSharded(b, 16, n) })
	}
}

// BenchmarkShardedConstructFattree24 is the scale target from the ROADMAP
// (11.9M candidate paths, 12 components). Not part of the CI smoke; run
// explicitly with -bench ShardedConstructFattree24 -benchtime 1x.
func BenchmarkShardedConstructFattree24(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchSharded(b, 24, n) })
	}
}
