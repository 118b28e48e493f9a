package shardrpc

import (
	"hash/fnv"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/topo"
)

// hashSelection digests a selection exactly as the pmc and shard pin tests
// do, so the constants below are directly comparable across packages.
func hashSelection(sel []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sel {
		for i := 0; i < 8; i++ {
			b[i] = byte(s >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashVerdicts digests a localization outcome: (link, explained, rate bits)
// per verdict plus the window counters.
func hashVerdicts(res *pll.Result) uint64 {
	h := fnv.New64a()
	w64 := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range res.Bad {
		w64(uint64(v.Link))
		w64(uint64(v.Explained))
		w64(math.Float64bits(v.Rate))
	}
	w64(uint64(res.LossyPaths))
	w64(uint64(res.UnexplainedPaths))
	return h.Sum64()
}

// syntheticWindow fabricates one deterministic measurement window over the
// probe matrix, mirroring the shard package's fixture: every path through
// the first nBad covered links loses 20% of its probes, plus sparse 0.5%
// background noise.
func syntheticWindow(p *route.Probes, nBad int) []pll.Observation {
	lossy := make([]bool, p.NumPaths())
	seen := 0
	for l := 0; l < p.NumLinks && seen < nBad; l++ {
		rows := p.PathsThrough(topo.LinkID(l))
		if len(rows) == 0 {
			continue
		}
		seen++
		for _, r := range rows {
			lossy[r] = true
		}
	}
	obs := make([]pll.Observation, p.NumPaths())
	for i := range obs {
		obs[i] = pll.Observation{Path: i, Sent: 200}
		switch {
		case lossy[i]:
			obs[i].Lost = 40
		case i%17 == 0:
			obs[i].Lost = 1
		}
	}
	return obs
}

// startLoopbackShards boots n real HTTP shard services over their own
// materializations of ps and dials a transport client at each.
func startLoopbackShards(t testing.TB, ps route.PathSet, numLinks, n int) []shard.ShardClient {
	t.Helper()
	clients := make([]shard.ShardClient, n)
	for i := 0; i < n; i++ {
		srv := NewServer(ps, numLinks)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		clients[i] = Dial(i, ts.URL, ClientOptions{})
	}
	return clients
}

// TestLoopbackMatchesInProcess is the transport's core guarantee, pinned
// the same two ways as the in-process plane: a coordinator whose shards
// are real loopback HTTP services must produce construction selections
// bit-identical to the single-controller engine, and a window localized
// over the wire must equal the local PLL pass —
// and to the recorded fingerprints, which are the same constants
// internal/shard and internal/pmc pin. Nothing about the transport may
// perturb a single bit of output.
func TestLoopbackMatchesInProcess(t *testing.T) {
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	cases := []struct {
		name      string
		ps        route.PathSet
		numLinks  int
		opt       pmc.Options
		wantSel   uint64
		wantLocal uint64
	}{
		{
			"Fattree8/lazy", route.NewFattreePaths(f8), f8.NumLinks(),
			pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry},
			0x527da8262b65b8c5, 0x401e57d28d149cb0,
		},
		{
			"Fattree8/symmetry", route.NewFattreePaths(f8), f8.NumLinks(),
			pmc.Options{Alpha: 2, Beta: 1},
			0x9ec67bc163cdc6e5, 0x34c504045541deea,
		},
		{
			"BCube41/lazy", route.NewBCubePaths(b41), b41.NumLinks(),
			pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry},
			0xedc0ad7cc1cc073b, 0xf863861539a440a4,
		},
	}
	for _, tc := range cases {
		ref, err := pmc.Construct(tc.ps, tc.numLinks, tc.opt)
		if err != nil {
			t.Fatalf("%s: single-controller construct: %v", tc.name, err)
		}
		if h := hashSelection(ref.Selected); h != tc.wantSel {
			t.Fatalf("%s: single-controller hash %#016x, pinned %#016x", tc.name, h, tc.wantSel)
		}
		probes := route.NewProbes(tc.ps, ref.Selected, tc.numLinks)
		obs := syntheticWindow(probes, 3)
		refLoc, err := pll.Localize(probes, obs, pll.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: single-controller localize: %v", tc.name, err)
		}
		if h := hashVerdicts(refLoc); h != tc.wantLocal {
			t.Fatalf("%s: single-controller localization hash %#016x, pinned %#016x", tc.name, h, tc.wantLocal)
		}

		for _, n := range []int{2, 3} {
			clients := startLoopbackShards(t, tc.ps, tc.numLinks, n)
			c, err := shard.New(tc.ps, tc.numLinks, shard.Options{
				Clients: clients, PMC: tc.opt, TTL: time.Minute,
			})
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", tc.name, n, err)
			}
			t.Cleanup(c.Stop)

			res, err := c.Construct()
			if err != nil {
				t.Fatalf("%s/shards=%d: loopback construct: %v", tc.name, n, err)
			}
			if res.Retries != 0 {
				t.Errorf("%s/shards=%d: clean cycle took %d retries", tc.name, n, res.Retries)
			}
			if !reflect.DeepEqual(res.Selected, ref.Selected) {
				t.Errorf("%s/shards=%d: loopback selection differs from single controller (hash %#016x vs pinned %#016x)",
					tc.name, n, hashSelection(res.Selected), tc.wantSel)
			}
			// Each shard solves the leader of every class it was handed,
			// so evals grow with the shard count, up to one solve per
			// class per shard.
			if res.Stats.ScoreEvals > int64(n)*ref.Stats.ScoreEvals || res.Stats.Components != ref.Stats.Components {
				t.Errorf("%s/shards=%d: merged stats diverge over the wire: evals %d vs %d single-controller, components %d vs %d",
					tc.name, n, res.Stats.ScoreEvals, ref.Stats.ScoreEvals,
					res.Stats.Components, ref.Stats.Components)
			}
			if !res.Stats.CoverageMet || !res.Stats.IdentMet {
				t.Errorf("%s/shards=%d: merged targets not met over the wire", tc.name, n)
			}

			got := remoteLocalize(t, clients[0].(*Client), probes, obs, pll.DefaultConfig())
			if !sameVerdicts(got, refLoc) {
				t.Errorf("%s/shards=%d: loopback localization differs: hash %#016x vs pinned %#016x",
					tc.name, n, hashVerdicts(got), tc.wantLocal)
			}
		}
	}
}

// TestPingReportsEngineFingerprint checks the liveness probe carries the
// matrix signature a coordinator needs to verify engine agreement.
func TestPingReportsEngineFingerprint(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	srv := NewServer(ps, f.NumLinks())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	coord, err := shard.New(ps, f.NumLinks(), shard.Options{Shards: 1, TTL: time.Minute,
		PMC: pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	if srv.MatrixSig() != coord.MatrixSig() {
		t.Fatalf("independently materialized engines disagree on the matrix: server %#016x, coordinator %#016x",
			srv.MatrixSig(), coord.MatrixSig())
	}
}

// TestFlapsSendNoConstructOverLoopback: once the first cycle has filled
// the coordinator's selection store, flapping links down and back up sends
// the loopback shard services no /construct request — the services' own
// construct-op count stays where the boot left it. Each down-flap is
// repaired in the coordinator, each up-flap answered by lookup, and every
// up-flap serves the first cycle's selection again.
func TestFlapsSendNoConstructOverLoopback(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	var clients []shard.ShardClient
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
		t.Cleanup(ts.Close)
		clients = append(clients, Dial(i, ts.URL, ClientOptions{}))
	}
	constructs := serverOps.With("construct")
	before := constructs.Count()
	c, err := shard.New(ps, f.NumLinks(), shard.Options{Clients: clients, PMC: pmc.Options{Alpha: 3, Beta: 1}, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	first, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	booted := constructs.Count()
	if booted == before {
		t.Fatal("the first cycle sent the shard services no construct")
	}
	const pairs = 12
	for _, l := range f.SwitchLinks()[:pairs] {
		for _, down := range []bool{true, false} {
			var err error
			if down {
				_, err = c.ApplyChurn([]topo.LinkID{l}, nil)
			} else {
				_, err = c.ApplyChurn(nil, []topo.LinkID{l})
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Construct()
			if err != nil {
				t.Fatal(err)
			}
			if !down && !reflect.DeepEqual(res.Selected, first.Selected) {
				t.Fatalf("link %d back up: the selection differs from the first cycle's", l)
			}
		}
	}
	if n := constructs.Count() - booted; n != 0 {
		t.Fatalf("%d flap pairs sent the shard services %d constructs after boot, want 0", pairs, n)
	}
}
