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
// in-process (wire == "") or behind real loopback HTTP services speaking
// the given codec. The delta between sub-benchmarks is the transport's
// whole cost: encode of the component slices, the HTTP round trips, and
// decode of the selections. critical-path-ms is the modeled N-machine
// wall clock; wire-MB-out-per-cycle is what the coordinator ships per
// construction cycle (counted at the connection, headers included), the
// number the binary codec exists to shrink.
func benchTransport(b *testing.B, wire string) {
	f := topo.MustFattree(16)
	ps := route.NewFattreePaths(f)
	const shards = 4
	opt := shard.Options{
		Shards:     shards,
		Sequential: true,
		PMC:        pmc.Options{Alpha: 2, Beta: 1, Workers: 1},
		TTL:        time.Hour,
	}
	var rpcClients []*Client
	if wire != "" {
		opt.Shards = 0
		for i := 0; i < shards; i++ {
			srv := NewServer(ps, f.NumLinks())
			ts := httptest.NewServer(srv.Handler())
			b.Cleanup(ts.Close)
			cl := Dial(i, ts.URL, ClientOptions{Wire: wire})
			rpcClients = append(rpcClients, cl)
			opt.Clients = append(opt.Clients, cl)
		}
	}
	c, err := shard.New(ps, f.NumLinks(), opt)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	sumOut := func() (total int64) {
		for _, cl := range rpcClients {
			total += cl.bytesOut.Value()
		}
		return total
	}
	b.ResetTimer()
	outBefore := sumOut()
	var crit time.Duration
	for i := 0; i < b.N; i++ {
		res, err := c.Construct()
		if err != nil {
			b.Fatal(err)
		}
		crit = res.CriticalPath
	}
	b.ReportMetric(float64(crit.Microseconds())/1000.0, "critical-path-ms")
	if wire != "" && b.N > 0 {
		b.ReportMetric(float64(sumOut()-outBefore)/1e6/float64(b.N), "wire-MB-out-per-cycle")
	}
}

// BenchmarkTransportFattree16 is the CI smoke for the transport: the
// loopback runs must complete with a critical path comparable to
// in-process, and the per-cycle wire volume of both codecs is reported
// side by side so a payload regression (either codec bloating, or the
// negotiation silently falling back to JSON) is visible per push.
func BenchmarkTransportFattree16(b *testing.B) {
	b.Run("inproc", func(b *testing.B) { benchTransport(b, "") })
	b.Run("loopback-json", func(b *testing.B) { benchTransport(b, WireJSON) })
	b.Run("loopback-binary", func(b *testing.B) { benchTransport(b, WireBinary) })
}
