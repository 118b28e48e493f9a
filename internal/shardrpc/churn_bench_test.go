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

// benchChurnWire measures what the coordinator ships over the transport
// for a single-link churn cycle against a full construction cycle, on a
// loopback shard fleet. The full cycle dispatches every component; a
// churn cycle dispatches none — the coordinator repairs the dirty
// component from its stored pristine selection and answers a restored
// one by lookup — so it ships nothing, and churn-wire-MB-out reads 0. A
// different link churns each iteration.
func benchChurnWire(b *testing.B) {
	f := topo.MustFattree(16)
	ps := route.NewFattreePaths(f)
	const shards = 4
	opt := shard.Options{
		Sequential: true,
		PMC:        pmc.Options{Alpha: 2, Beta: 1, Workers: 1},
		TTL:        time.Hour,
	}
	var rpcClients []*Client
	for i := 0; i < shards; i++ {
		srv := NewServer(ps, f.NumLinks())
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		cl := Dial(i, ts.URL, ClientOptions{})
		rpcClients = append(rpcClients, cl)
		opt.Clients = append(opt.Clients, cl)
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

	// Cold full cycle: every component dispatched.
	before := sumOut()
	if _, err := c.Construct(); err != nil {
		b.Fatal(err)
	}
	fullBytes := sumOut() - before

	links := f.SwitchLinks()
	b.ResetTimer()
	var churnBytes int64
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		if _, err := c.ApplyChurn([]topo.LinkID{l}, nil); err != nil {
			b.Fatal(err)
		}
		before := sumOut()
		if _, err := c.Construct(); err != nil {
			b.Fatal(err)
		}
		churnBytes = sumOut() - before
		if _, err := c.ApplyChurn(nil, []topo.LinkID{l}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Construct(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fullBytes)/1e6, "full-wire-MB-out")
	b.ReportMetric(float64(churnBytes)/1e6, "churn-wire-MB-out")
	if fullBytes > 0 {
		b.ReportMetric(float64(churnBytes)/float64(fullBytes), "churn-vs-full-wire-ratio")
	}
}

// BenchmarkChurnWireFattree16 reports the wire cost of a single-link churn
// cycle next to a full cycle: 0 against ~1 MB on Fattree(16), since the
// coordinator repairs a flap itself.
func BenchmarkChurnWireFattree16(b *testing.B) {
	b.Run("loopback-binary", benchChurnWire)
}
