package shard

import (
	"testing"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// entangledServerMatrix fabricates a server-level probe matrix with the
// pathology the interior partition exists for: the ToR-level (interior)
// links form three independent groups, but one busy pinger's uplink
// appears on probes into every group, so the component partition
// collapses the whole matrix into a single part.
//
// Layout: 6 racks of 2 servers. Racks pair up into 3 groups; each group's
// inter-rack probes ride two dedicated interior links. Links are numbered
// uplinks first, then downlinks, then interiors — the greedy's candidate
// order (ascending link ID) therefore prefers server-edge links on exact
// ties, which is the adversarial direction for the interior plane's merge.
func entangledServerMatrix() *route.Probes {
	const racks, S = 6, 2
	up := func(r, s int) topo.LinkID { return topo.LinkID(r*S + s) }
	down := func(r, s int) topo.LinkID { return topo.LinkID(racks*S + r*S + s) }
	ia := func(g int) topo.LinkID { return topo.LinkID(2*racks*S + 2*g) }
	ib := func(g int) topo.LinkID { return topo.LinkID(2*racks*S + 2*g + 1) }
	numLinks := 2*racks*S + racks

	var paths [][]topo.LinkID
	// Inter-rack probes within each group: server s of the even rack to
	// server t of the odd rack, via the group's interior pair.
	for g := 0; g < racks/2; g++ {
		r, rp := 2*g, 2*g+1
		for s := 0; s < S; s++ {
			for t := 0; t < S; t++ {
				paths = append(paths, []topo.LinkID{up(r, s), ia(g), ib(g), down(rp, t)})
			}
		}
	}
	// The entangling probes: server (0,0) also pings into every other
	// group, so its uplink bridges all three interior groups in the
	// component partition.
	for g := 1; g < racks/2; g++ {
		paths = append(paths, []topo.LinkID{up(0, 0), ia(g), ib(g), down(2*g+1, 0)})
	}
	// Intra-rack probes: two links, both server-edge.
	for r := 0; r < racks; r++ {
		paths = append(paths, []topo.LinkID{up(r, 0), down(r, 1)})
	}
	return route.NewProbesFromLinks(paths, numLinks)
}

// solidWindow marks every path through bad as 20% lossy (200 sent, 40
// lost) and everything else clean.
func solidWindow(p *route.Probes, bad topo.LinkID) []pll.Observation {
	lossy := make([]bool, p.NumPaths())
	for _, r := range p.PathsThrough(bad) {
		lossy[r] = true
	}
	obs := make([]pll.Observation, p.NumPaths())
	for i := range obs {
		obs[i] = pll.Observation{Path: i, Sent: 200}
		if lossy[i] {
			obs[i].Lost = 40
		}
	}
	return obs
}

func TestExactPolicyCollapsesEntangledServerMatrix(t *testing.T) {
	p := entangledServerMatrix()
	pl := NewPlane(p, []int{0, 1, 2, 3})
	st := pl.Stats()
	if st.Parts != 1 || st.Partitions != 1 {
		t.Fatalf("component plane on entangled server matrix: parts=%d partitions=%d, want 1/1 (the collapse the interior partition exists for)",
			st.Parts, st.Partitions)
	}
	if st.CutLinks != 0 || st.MaxReplication != 1 {
		t.Fatalf("component plane cut links = %d, max replication = %d, want 0/1", st.CutLinks, st.MaxReplication)
	}
}

func TestApproxPolicySplitsEntangledServerMatrix(t *testing.T) {
	p := entangledServerMatrix()
	pl := NewPlaneFrom(p, []int{0, 1, 2, 3}, route.InteriorPartition(p))
	st := pl.Stats()
	// 3 interior groups + 6 intra-rack residual parts.
	if st.Parts != 9 {
		t.Fatalf("approx parts = %d, want 9 (3 interior groups + 6 intra-rack)", st.Parts)
	}
	if st.Partitions < 2 {
		t.Fatalf("approx partitions = %d, want >= 2 (capacity-capped assignment of 9 parts over 4 shards)", st.Partitions)
	}
	if st.CutLinks < 1 || st.MaxReplication < 2 {
		t.Fatalf("approx cut links = %d, max replication = %d; the entangling uplink must be cut", st.CutLinks, st.MaxReplication)
	}
	// Every path must keep an owner: cutting links must never orphan
	// observations.
	for i := 0; i < p.NumPaths(); i++ {
		if pl.Owner(i) < 0 {
			t.Fatalf("path %d lost its owner on the interior plane", i)
		}
	}
	// The cut set must agree with its replication index.
	for _, c := range pl.CutLinks() {
		if c.Parts < 2 {
			t.Fatalf("cut link %d has replication %d, want >= 2", c.Link, c.Parts)
		}
		if got := pl.cutRepl[c.Link]; got != c.Parts {
			t.Fatalf("cut link %d: CutLinks says %d shards, index says %d", c.Link, c.Parts, got)
		}
	}
}

// TestApproxDifferentialSolidFailures is the accuracy-bound differential:
// for a solid failure on every covered link, the approximate merged
// verdict is compared with one global pll.Localize. Divergence is only
// allowed where the partition predicts it — on cut links or links sharing
// an observed path with one — and the merge's disagreement count must stay
// under the bound the exported replication counts imply.
func TestApproxDifferentialSolidFailures(t *testing.T) {
	p := entangledServerMatrix()
	pl := NewPlaneFrom(p, []int{0, 1, 2, 3}, route.InteriorPartition(p))
	cfg := pll.DefaultConfig()

	// cutRows marks every observed path that crosses a cut link; bound is
	// the worst-case disagreement the replication counts allow.
	cutRows := make(map[int]bool)
	bound := 0
	for _, c := range pl.CutLinks() {
		bound += c.Parts - 1
		for _, r := range p.PathsThrough(c.Link) {
			cutRows[int(r)] = true
		}
	}
	nearCut := func(l topo.LinkID) bool {
		if _, ok := pl.cutRepl[l]; ok {
			return true
		}
		for _, r := range p.PathsThrough(l) {
			if cutRows[int(r)] {
				return true
			}
		}
		return false
	}

	for l := 0; l < p.NumLinks; l++ {
		bad := topo.LinkID(l)
		if len(p.PathsThrough(bad)) == 0 {
			continue
		}
		window := solidWindow(p, bad)
		merged, ms, err := pl.LocalizeCycleStats(nil, window, cfg)
		if err != nil {
			t.Fatalf("link %d: merged localize: %v", l, err)
		}
		global, err := pll.Localize(p, window, cfg)
		if err != nil {
			t.Fatalf("link %d: global localize: %v", l, err)
		}
		if merged.UnexplainedPaths != 0 {
			t.Errorf("link %d: merged pass left %d lossy paths unexplained", l, merged.UnexplainedPaths)
		}
		if len(merged.Bad) == 0 {
			t.Errorf("link %d: solid failure produced no merged verdict", l)
		}
		inMerged := make(map[topo.LinkID]bool, len(merged.Bad))
		for _, v := range merged.Bad {
			inMerged[v.Link] = true
		}
		inGlobal := make(map[topo.LinkID]bool, len(global.Bad))
		for _, v := range global.Bad {
			inGlobal[v.Link] = true
		}
		for link := range inMerged {
			if !inGlobal[link] && !nearCut(link) {
				t.Errorf("link %d: merged flags %d, global does not, and %d is nowhere near a cut link", l, link, link)
			}
		}
		for link := range inGlobal {
			if !inMerged[link] && !nearCut(link) {
				t.Errorf("link %d: global flags %d, merged does not, and %d is nowhere near a cut link", l, link, link)
			}
		}
		if ms.Disagreements > bound {
			t.Errorf("link %d: %d disagreements exceed the replication bound %d", l, ms.Disagreements, bound)
		}
	}
}

// TestApproxCutLinkDisagreementCounter drives the one window shape where
// the owning shards of a cut link must disagree — loss confined to the cut
// link's paths on a single shard — and checks the merge counts it, bounded
// by replication - 1.
func TestApproxCutLinkDisagreementCounter(t *testing.T) {
	p := entangledServerMatrix()
	pl := NewPlaneFrom(p, []int{0, 1, 2, 3}, route.InteriorPartition(p))
	cuts := pl.CutLinks()
	if len(cuts) == 0 {
		t.Fatal("no cut links on the entangled matrix")
	}
	// Pick the most-replicated cut link (the entangling uplink).
	cut := cuts[0]
	for _, c := range cuts {
		if c.Parts > cut.Parts {
			cut = c
		}
	}
	rows := p.PathsThrough(cut.Link)
	firstOwner := pl.Owner(int(rows[0]))
	lossy := make([]bool, p.NumPaths())
	for _, r := range rows {
		if pl.Owner(int(r)) == firstOwner {
			lossy[r] = true
		}
	}
	window := make([]pll.Observation, p.NumPaths())
	for i := range window {
		window[i] = pll.Observation{Path: i, Sent: 200}
		if lossy[i] {
			window[i].Lost = 40
		}
	}
	_, ms, err := pl.LocalizeCycleStats(nil, window, pll.DefaultConfig())
	if err != nil {
		t.Fatalf("localize: %v", err)
	}
	if ms.Disagreements < 1 {
		t.Fatalf("loss on one shard's slice of a %d-way cut link produced no disagreement", cut.Parts)
	}
	if ms.Disagreements > cut.Parts-1 {
		t.Fatalf("disagreements = %d exceed replication-1 = %d for the driven cut link", ms.Disagreements, cut.Parts-1)
	}
}

// TestExactPolicyStaysBitIdentical pins the component plane's guarantee on
// the entangled matrix: one partition, merged verdicts byte-for-byte equal
// to the global pass, zero reconciliation.
func TestExactPolicyStaysBitIdentical(t *testing.T) {
	p := entangledServerMatrix()
	pl := NewPlane(p, []int{0, 1, 2, 3})
	cfg := pll.DefaultConfig()
	for l := 0; l < p.NumLinks; l++ {
		bad := topo.LinkID(l)
		if len(p.PathsThrough(bad)) == 0 {
			continue
		}
		window := solidWindow(p, bad)
		merged, ms, err := pl.LocalizeCycleStats(nil, window, cfg)
		if err != nil {
			t.Fatalf("link %d: merged: %v", l, err)
		}
		global, err := pll.Localize(p, window, cfg)
		if err != nil {
			t.Fatalf("link %d: global: %v", l, err)
		}
		if ms.Reconciled != 0 || ms.Disagreements != 0 {
			t.Fatalf("link %d: component plane reconciled=%d disagreements=%d, want 0/0", l, ms.Reconciled, ms.Disagreements)
		}
		if hashVerdicts(merged) != hashVerdicts(global) {
			t.Fatalf("link %d: exact merged verdicts diverge from the global pass", l)
		}
	}
}

func TestPlaneCacheReusesUnchangedMatrix(t *testing.T) {
	p1 := entangledServerMatrix()
	p2 := entangledServerMatrix() // same content, fresh allocation
	alive := []int{0, 1, 2, 3}

	var pc PlaneCache
	if pc.Cached() != nil {
		t.Fatal("cache non-empty before first Get")
	}
	first, rebuilt := pc.Get(p1, alive)
	if !rebuilt {
		t.Fatal("first Get did not build")
	}
	again, rebuilt := pc.Get(p2, alive)
	if rebuilt || again != first {
		t.Fatal("identical matrix content in a fresh allocation rebuilt the plane — the signature cache must hit")
	}
	if pc.Cached() != first {
		t.Fatal("Cached() does not return the memoized plane")
	}

	// Any input change invalidates: alive set, matrix content.
	if _, rebuilt := pc.Get(p2, []int{0, 1}); !rebuilt {
		t.Fatal("alive-set change did not rebuild")
	}
	p3 := entangledServerMatrix()
	p3.PathLinks = p3.PathLinks[:len(p3.PathLinks)-1]
	p3 = route.NewProbesFromLinks(p3.PathLinks, p3.NumLinks)
	if _, rebuilt := pc.Get(p3, []int{0, 1}); !rebuilt {
		t.Fatal("matrix content change did not rebuild")
	}
}

// TestInteriorPlaneCutsTheEntanglingLink: two interior groups {4,5} and
// {6,7} and an intra-rack row {0,8}, entangled by server-edge link 0. Over
// three shards each of the three interior parts gets its own shard, so link
// 0 is the one cut link, shared by all three.
func TestInteriorPlaneCutsTheEntanglingLink(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 4, 5, 2},
		{1, 4, 5, 2},
		{0, 6, 7, 3},
		{0, 8},
	}, 9)
	pl := NewPlaneFrom(p, []int{0, 1, 2}, route.InteriorPartition(p))
	cuts := pl.CutLinks()
	if len(cuts) != 1 || cuts[0] != (route.CutLink{Link: 0, Parts: 3}) {
		t.Fatalf("cut links = %+v, want exactly link 0 across 3 shards", cuts)
	}
	if st := pl.Stats(); st.Parts != 3 || st.Partitions != 3 || st.MaxReplication != 3 {
		t.Fatalf("stats = %+v, want 3 parts on 3 shards, max replication 3", st)
	}
}
