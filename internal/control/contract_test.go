package control

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// hashMatrix digests a served matrix — every route's ID and link set, in
// order — through FNV-1a, independent of route's own fingerprint function.
func hashMatrix(m *Matrix) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range m.Paths {
		w(uint64(p.PathID))
		w(uint64(len(p.Links)))
		for _, l := range p.Links {
			w(uint64(l))
		}
	}
	return h.Sum64()
}

// assertContract checks the paper's contract on what c serves: every live
// switch link covered alpha times, the matrix beta-identifiable over them,
// and no served route across a down link.
func assertContract(t *testing.T, c *Controller, down map[topo.LinkID]bool, ctx string) {
	t.Helper()
	var live []topo.LinkID
	for _, l := range c.F.SwitchLinks() {
		if !down[l] {
			live = append(live, l)
		}
	}
	for _, p := range c.matrix.Paths {
		for _, l := range p.Links {
			if down[l] {
				t.Fatalf("%s: served route %d crosses down link %d", ctx, p.PathID, l)
			}
		}
	}
	v := pmc.Verify(c.ProbeMatrix(), live, c.Cfg.Beta >= 2)
	if v.MinCoverage < c.Cfg.Alpha || !v.Identifiable(c.Cfg.Beta) {
		t.Fatalf("%s: served matrix breaks the (%d,%d) contract: min coverage %d, 1-identifiable %v, 2-identifiable %v, %v",
			ctx, c.Cfg.Alpha, c.Cfg.Beta, v.MinCoverage, v.Identifiable1, v.Identifiable2, v.Collisions)
	}
}

// TestServedContractThroughChurn checks the contract where it is served:
// cold, then each seeded switch link down and back up, on every kind of
// fleet. After every cycle the served matrix must verify over the links
// still up; an incremental cycle must serve exactly what a controller
// started from scratch with the link already down serves; and the link
// coming back must restore the cold matrix. The cold matrices are pinned.
func TestServedContractThroughChurn(t *testing.T) {
	for _, tc := range []struct {
		k, alpha, beta, flaps int
		coldHash              uint64
	}{
		{8, 3, 1, 4, 0x479169d3546c28a5},
		{6, 1, 2, 3, 0x22ef54e5acd1a8e4},
	} {
		f := topo.MustFattree(tc.k)
		ps := route.NewFattreePaths(f)
		cfg := DefaultConfig()
		cfg.Alpha, cfg.Beta = tc.alpha, tc.beta
		rng := rand.New(rand.NewSource(int64(tc.k)))
		links := append([]topo.LinkID(nil), f.SwitchLinks()...)
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		links = links[:tc.flaps]

		// The from-scratch answers, unsharded: one with nothing down, one
		// per seeded link.
		scratch := func(down ...topo.LinkID) *Controller {
			scfg := cfg
			scfg.DownLinks = down
			c := New(f, scfg)
			t.Cleanup(c.Close)
			if err := c.RunCycle(nil); err != nil {
				t.Fatalf("Fattree(%d): from-scratch controller with %v down: %v", tc.k, down, err)
			}
			return c
		}
		cold := scratch()
		coldSig := route.ProbesSignature(cold.ProbeMatrix())
		if got := hashMatrix(cold.matrix); got != tc.coldHash {
			t.Errorf("Fattree(%d) (%d,%d): served matrix hash %#016x, pinned %#016x — the served selection changed",
				tc.k, tc.alpha, tc.beta, got, tc.coldHash)
		}
		withDown := make(map[topo.LinkID]*Controller, len(links))
		for _, l := range links {
			withDown[l] = scratch(l)
		}

		loopback := func(c *Config) {
			for i := 0; i < 2; i++ {
				ts := httptest.NewServer(shardrpc.NewServer(ps, f.NumLinks()).Handler())
				t.Cleanup(ts.Close)
				c.ShardEndpoints = append(c.ShardEndpoints, ts.URL)
			}
		}
		for _, fleet := range []struct {
			name  string
			shape func(*Config)
		}{
			{"1 shard", func(*Config) {}},
			{"3 shards", func(c *Config) { c.Shards = 3 }},
			{"loopback", loopback},
		} {
			ctx := fmt.Sprintf("Fattree(%d) (%d,%d) on %s", tc.k, tc.alpha, tc.beta, fleet.name)
			fcfg := cfg
			fleet.shape(&fcfg)
			c := New(f, fcfg)
			t.Cleanup(c.Close)
			cycle := func(down, up []topo.LinkID) {
				t.Helper()
				if _, err := c.ApplyChurn(down, up); err != nil {
					t.Fatalf("%s: churn: %v", ctx, err)
				}
				if err := c.RunCycle(nil); err != nil {
					t.Fatalf("%s: cycle: %v", ctx, err)
				}
			}
			cycle(nil, nil)
			assertContract(t, c, nil, ctx+", cold")
			assertSameServing(t, c, cold, ctx+", cold")
			for _, l := range links {
				one := []topo.LinkID{l}
				cycle(one, nil)
				assertContract(t, c, map[topo.LinkID]bool{l: true}, fmt.Sprintf("%s, link %d down", ctx, l))
				assertSameServing(t, c, withDown[l], fmt.Sprintf("%s, link %d down", ctx, l))
				cycle(nil, one)
				assertContract(t, c, nil, fmt.Sprintf("%s, link %d back up", ctx, l))
				if route.ProbesSignature(c.ProbeMatrix()) != coldSig {
					t.Fatalf("%s: link %d down and up did not restore the cold matrix", ctx, l)
				}
			}
		}
	}
}

// TestFlapIsRepaired: one switch link going down on Fattree(8) is answered
// by repairing the dirty component from its pristine parent's stored
// selection, with no class solved, and coming back up restores it from the
// coordinator's store. In both directions
// control_pinglists_changed moves by exactly the number of nodes whose
// pinglist version moved: the pingers the flap reprograms.
func TestFlapIsRepaired(t *testing.T) {
	f := topo.MustFattree(8)
	c := New(f, DefaultConfig())
	t.Cleanup(c.Close)
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	versions := func() map[topo.NodeID]int {
		out := make(map[topo.NodeID]int)
		for _, n := range c.PingerNodes() {
			out[n] = c.PinglistFor(n).Version
		}
		return out
	}
	one := []topo.LinkID{f.SwitchLinks()[0]}
	for _, step := range []struct {
		name     string
		down, up []topo.LinkID
		repaired int
	}{
		{"down", one, nil, 1},
		{"up", nil, one, 0},
	} {
		before, counted := versions(), pinglistsChanged.Value()
		if _, err := c.ApplyChurn(step.down, step.up); err != nil {
			t.Fatal(err)
		}
		if err := c.RunCycle(nil); err != nil {
			t.Fatal(err)
		}
		if st := c.PMCStats(); st.Repaired != step.repaired || st.Classes != 0 {
			t.Fatalf("%s: %d components repaired, %d classes solved; want %d and 0", step.name, st.Repaired, st.Classes, step.repaired)
		}
		after := versions()
		moved := 0
		for n, v := range after {
			if before[n] != v {
				moved++
			}
		}
		for n := range before {
			if _, ok := after[n]; !ok {
				moved++
			}
		}
		if got := pinglistsChanged.Value() - counted; got != int64(moved) {
			t.Fatalf("%s: control_pinglists_changed moved by %d, %d nodes' pinglists changed", step.name, got, moved)
		}
		if moved == 0 || moved >= len(before)/2 {
			t.Fatalf("%s: the flap reprogrammed %d of %d pingers", step.name, moved, len(before))
		}
	}
}
