package shard

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// hashSelection digests a selection exactly as the pmc pin tests do, so the
// constants below are directly comparable with incremental_test.go.
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
// probe matrix: every path through the first nBad covered links loses 20%
// of its probes (solid failures), plus sparse 0.5% background noise.
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

func newTestCoordinator(t *testing.T, ps route.PathSet, numLinks int, n int, opt pmc.Options) *Coordinator {
	t.Helper()
	c, err := New(ps, numLinks, Options{Shards: n, PMC: opt, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestShardedMatchesSingleController is the subsystem's core guarantee,
// pinned two ways: the merged selection must equal the single-controller
// engine exactly (structural comparison), and must match recorded
// fingerprints (regression pin — the selection hashes are the same
// constants pmc's incremental_test.go pins, since the sharded plane must
// reproduce that exact output). The localization hash pins what one PLL
// pass over the selected matrix gives on a synthetic window.
func TestShardedMatchesSingleController(t *testing.T) {
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
		if len(refLoc.Bad) == 0 {
			t.Fatalf("%s: synthetic window localized nothing; test is vacuous", tc.name)
		}
		if h := hashVerdicts(refLoc); h != tc.wantLocal {
			t.Fatalf("%s: single-controller localization hash %#016x, pinned %#016x", tc.name, h, tc.wantLocal)
		}

		for _, n := range []int{2, 3, 4} {
			c := newTestCoordinator(t, tc.ps, tc.numLinks, n, tc.opt)
			res, err := c.Construct()
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", tc.name, n, err)
			}
			if !reflect.DeepEqual(res.Selected, ref.Selected) {
				t.Errorf("%s/shards=%d: merged selection differs from single controller (%d vs %d paths, hash %#016x vs %#016x)",
					tc.name, n, len(res.Selected), len(ref.Selected),
					hashSelection(res.Selected), hashSelection(ref.Selected))
			}
			// Each shard solves the leader of every class it was handed,
			// so evals grow with the shard count, up to one solve per class
			// per shard.
			if res.Stats.ScoreEvals > int64(n)*ref.Stats.ScoreEvals || res.Stats.Components != ref.Stats.Components {
				t.Errorf("%s/shards=%d: merged stats diverge: evals %d vs %d single-controller, components %d vs %d",
					tc.name, n, res.Stats.ScoreEvals, ref.Stats.ScoreEvals,
					res.Stats.Components, ref.Stats.Components)
			}
			if !res.Stats.CoverageMet || !res.Stats.IdentMet {
				t.Errorf("%s/shards=%d: merged targets not met: coverage=%v ident=%v",
					tc.name, n, res.Stats.CoverageMet, res.Stats.IdentMet)
			}
		}
	}
}

// TestShardDeathReassignsMinimally kills one shard and checks the watchdog
// → reassignment path: after the TTL expires the dead shard owns nothing,
// the next cycle's merged selection is still identical to the single
// controller, and the movement is minimal. (Capacity-capped rendezvous can
// in general also displace survivors when the cap changes; in this pinned
// instance — Fattree(8), 4 components, 3→2 shards — it does not, and the
// test locks that in.)
func TestShardDeathReassignsMinimally(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}
	c, err := New(ps, f.NumLinks(), Options{
		Shards: 3, PMC: opt,
		TTL: 150 * time.Millisecond, HeartbeatEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	before := c.Assignment()
	if c.Components() != 4 {
		t.Fatalf("Fattree(8) should decompose into 4 components, got %d", c.Components())
	}
	victim := int(before[0])
	victimComps := 0
	for _, s := range before {
		if int(s) == victim {
			victimComps++
		}
	}

	c.Kill(victim)
	deadline := time.Now().Add(10 * time.Second)
	for {
		u := c.Unhealthy()
		if len(u) == 1 && u[0] == victim {
			break
		}
		if len(u) > 1 {
			t.Fatalf("live shards marked unhealthy: %v", u)
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never noticed shard %d dying", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != victimComps {
		t.Errorf("reassignment moved %d components, want exactly the victim's %d", res.Moved, victimComps)
	}
	if res.Alive != 2 {
		t.Errorf("alive = %d, want 2", res.Alive)
	}
	after := c.Assignment()
	for ci := range after {
		if int(after[ci]) == victim {
			t.Errorf("component %d still assigned to dead shard %d", ci, victim)
		}
		if int(before[ci]) != victim && after[ci] != before[ci] {
			t.Errorf("component %d moved from live shard %d to %d — rendezvous should not move survivors",
				ci, before[ci], after[ci])
		}
	}

	ref, err := pmc.Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Errorf("post-failover selection differs from single controller")
	}
	if !res.Stats.CoverageMet {
		t.Errorf("post-failover coverage not met")
	}
}

// TestAllShardsDead pins the degraded-mode error.
func TestAllShardsDead(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	c, err := New(ps, f.NumLinks(), Options{
		Shards: 2, PMC: pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry},
		TTL: 50 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Kill(0)
	c.Kill(1)
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Unhealthy()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("shards never went unhealthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Construct(); err == nil {
		t.Fatal("Construct with every shard dead should fail")
	}
}

// TestMidCycleKillDegradesToReassignment kills a shard after the liveness
// grant but before dispatch — the watchdog has no idea — and requires the
// same cycle to finish complete and bit-identical by quarantining the dead
// shard on its dispatch error. Revive then lifts the quarantine and the
// shard reclaims its components.
func TestMidCycleKillDegradesToReassignment(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}
	ref, err := pmc.Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, ps, f.NumLinks(), 3, opt)
	before := c.Assignment()
	victim := int(before[0])
	c.Kill(victim) // TTL is a minute: only the dispatch can notice

	res, err := c.Construct()
	if err != nil {
		t.Fatalf("construct across mid-cycle kill: %v", err)
	}
	if res.Retries < 1 || res.Alive != 2 {
		t.Errorf("kill cycle: retries=%d alive=%d, want >=1 and 2", res.Retries, res.Alive)
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Errorf("post-kill merge differs from single controller — partial merge served")
	}
	for ci, s := range c.Assignment() {
		if int(s) == victim {
			t.Errorf("component %d still assigned to killed shard %d", ci, victim)
		}
	}

	c.Revive(victim)
	res, err = c.Construct()
	if err != nil {
		t.Fatalf("construct after revive: %v", err)
	}
	if res.Alive != 3 || res.Retries != 0 {
		t.Errorf("revived cycle: alive=%d retries=%d, want 3 and 0", res.Alive, res.Retries)
	}
	if !reflect.DeepEqual(c.Assignment(), before) {
		t.Errorf("post-revive assignment differs from original — shard did not reclaim its components")
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Errorf("post-revive merge differs from single controller")
	}
}

// TestMaterializeStageObservesOwnBlocks: the materialize stage observes
// the coordinator's own MaterializeCSR, once per New, and nothing after it:
// neither another owner's matrix nor a cycle, a churn step or a repaired
// cycle, over a Fattree whose rows are generated or a VL2 matrix stored
// whole when it is made.
func TestMaterializeStageObservesOwnBlocks(t *testing.T) {
	f, v := topo.MustFattree(8), topo.MustVL2(4, 4, 1)
	opt := Options{Shards: 1, PMC: pmc.Options{Alpha: 3, Beta: 1}, TTL: time.Minute}
	before := stageMaterialize.Count()
	observed := func(step string, want uint64) {
		t.Helper()
		if n := stageMaterialize.Count() - before; n != want {
			t.Fatalf("after %s: %d materialize observations, want %d", step, n, want)
		}
	}
	for i, tc := range []struct {
		name     string
		ps       route.PathSet
		numLinks int
	}{
		{"Fattree(8)", route.NewFattreePaths(f), f.NumLinks()},
		{"VL2(4,4,1)", route.NewVL2Paths(v), v.NumLinks()},
	} {
		news := uint64(i + 1)
		c, err := New(tc.ps, tc.numLinks, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		observed(tc.name+" New", news)
		comps := route.MaterializeCSR(tc.ps).Pristine(tc.numLinks).Comps
		observed(tc.name+" another matrix", news)
		for i := 0; i < 2; i++ {
			if _, err := c.Construct(); err != nil {
				t.Fatal(err)
			}
			observed(tc.name+" a cycle", news)
		}
		down := comps[len(comps)-1].Links[0]
		if _, err := c.ApplyChurn([]topo.LinkID{down}, nil); err != nil {
			t.Fatal(err)
		}
		observed(tc.name+" a churn step", news)
		if _, err := c.Construct(); err != nil {
			t.Fatal(err)
		}
		observed(tc.name+" a repaired cycle", news)
	}
}
