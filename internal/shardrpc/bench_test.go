package shardrpc

import (
	"net/http/httptest"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/topo"
)

// benchTransport measures one full distributed construction cycle on
// Fattree(16) — 8 components over 4 shards, Workers 1 per shard,
// Sequential so per-shard elapsed is uncontended — with the shard fleet
// in-process or behind real loopback HTTP services. Every iteration
// builds a fresh coordinator, whose store holds nothing, and times its
// first cycle; the shard services keep no selections, so they serve each
// iteration alike. The delta between sub-benchmarks is the transport's
// whole cost: encode of the component slices, the HTTP round trips, and
// decode of the selections. critical-path-ms is the modeled N-machine
// wall clock; wire-MB-out-per-cycle is what the coordinator ships per
// construction cycle (counted at the connection, headers included), the
// number the binary codec exists to shrink.
func benchTransport(b *testing.B, loopback bool) {
	f := topo.MustFattree(16)
	ps := route.NewFattreePaths(f)
	const shards = 4
	var urls []string
	if loopback {
		for i := 0; i < shards; i++ {
			ts := httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
			b.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
		}
	}
	var crit time.Duration
	var out int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opt := shard.Options{
			Shards:     shards,
			Sequential: true,
			PMC:        pmc.Options{Alpha: 2, Beta: 1, Workers: 1},
			TTL:        time.Hour,
		}
		var rpcClients []*Client
		for i, u := range urls {
			cl := Dial(i, u, ClientOptions{})
			rpcClients = append(rpcClients, cl)
			opt.Clients = append(opt.Clients, cl)
		}
		if loopback {
			opt.Shards = 0
		}
		sumOut := func() (total int64) {
			for _, cl := range rpcClients {
				total += cl.bytesOut.Value()
			}
			return total
		}
		c, err := shard.New(ps, f.NumLinks(), opt)
		if err != nil {
			b.Fatal(err)
		}
		before := sumOut()
		b.StartTimer()
		res, err := c.Construct()
		b.StopTimer()
		out += sumOut() - before
		c.Stop()
		if err != nil {
			b.Fatal(err)
		}
		crit = res.CriticalPath
		b.StartTimer()
	}
	b.ReportMetric(float64(crit.Microseconds())/1000.0, "critical-path-ms")
	if loopback && b.N > 0 {
		b.ReportMetric(float64(out)/1e6/float64(b.N), "wire-MB-out-per-cycle")
	}
}

// BenchmarkTransportFattree16 is the CI smoke for the transport: the
// loopback run must complete with a critical path comparable to
// in-process, and its per-cycle wire volume is reported so a payload
// regression is visible per push.
func BenchmarkTransportFattree16(b *testing.B) {
	b.Run("inproc", func(b *testing.B) { benchTransport(b, false) })
	b.Run("loopback-binary", func(b *testing.B) { benchTransport(b, true) })
}
