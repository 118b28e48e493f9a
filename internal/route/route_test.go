package route

import (
	"slices"
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// TestFattreeOriginalPathCounts pins the "# of original paths" column of
// paper Table 2 for Fattree: ordered ToR pairs times cores.
func TestFattreeOriginalPathCounts(t *testing.T) {
	cases := []struct {
		k    int
		want int
	}{
		{12, 184032},
		{24, 11902464},
	}
	for _, c := range cases {
		f := topo.MustFattree(c.k)
		ps := NewFattreePaths(f)
		if got := ps.Len(); got != c.want {
			t.Errorf("Fattree(%d): %d paths, want %d", c.k, got, c.want)
		}
	}
}

// TestVL2OriginalPathCounts pins VL2 path counts. VL2(40,24,40) matches
// Table 2 exactly (4,588,800 ordered-pair paths). The paper's VL2(20,12,20)
// entry (70,800) is the unordered-pair count — the only row of Table 2 with
// that convention — so here it appears doubled.
func TestVL2OriginalPathCounts(t *testing.T) {
	v := topo.MustVL2(40, 24, 40)
	ps := NewVL2Paths(v)
	if got := ps.Len(); got != 4588800 {
		t.Errorf("VL2(40,24,40): %d paths, want 4588800", got)
	}
	v2 := topo.MustVL2(20, 12, 20)
	ps2 := NewVL2Paths(v2)
	if got := ps2.Len(); got != 2*70800 {
		t.Errorf("VL2(20,12,20): %d paths, want %d (2x the paper's unordered count)", got, 2*70800)
	}
}

// TestBCubeOriginalPathCounts pins BCube path counts from Table 2.
func TestBCubeOriginalPathCounts(t *testing.T) {
	cases := []struct {
		n, k int
		want int
	}{
		{4, 2, 12096},
		{8, 2, 784896},
	}
	for _, c := range cases {
		b := topo.MustBCube(c.n, c.k)
		ps := NewBCubePaths(b)
		if got := ps.Len(); got != c.want {
			t.Errorf("BCube(%d,%d): %d paths, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestOrderedPairRoundTrip(t *testing.T) {
	n := 7
	seen := make(map[int]bool)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			idx := orderedPair(s, d, n)
			if idx < 0 || idx >= n*(n-1) {
				t.Fatalf("orderedPair(%d,%d) = %d out of range", s, d, idx)
			}
			if seen[idx] {
				t.Fatalf("orderedPair(%d,%d) = %d collides", s, d, idx)
			}
			seen[idx] = true
			s2, d2 := unpackPair(idx, n)
			if s2 != s || d2 != d {
				t.Fatalf("unpackPair(%d) = (%d,%d), want (%d,%d)", idx, s2, d2, s, d)
			}
		}
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("pair index space not dense: %d of %d", len(seen), n*(n-1))
	}
}

func TestFattreePathsEncodeDecode(t *testing.T) {
	f := topo.MustFattree(8)
	ps := NewFattreePaths(f)
	for _, i := range []int{0, 1, 1000, ps.Len() - 1} {
		s, d, c := ps.Decode(i)
		if got := ps.Encode(s, d, c); got != i {
			t.Fatalf("Encode(Decode(%d)) = %d", i, got)
		}
	}
}

// TestFattreePathsLinksValid checks every sampled path has 3 or 4 distinct
// switch-tier links.
func TestFattreePathsLinksValid(t *testing.T) {
	f := topo.MustFattree(8)
	ps := NewFattreePaths(f)
	var buf []topo.LinkID
	for i := 0; i < ps.Len(); i += 97 {
		buf = ps.AppendLinks(i, buf[:0])
		if len(buf) != 3 && len(buf) != 4 {
			t.Fatalf("path %d has %d links", i, len(buf))
		}
		for _, l := range buf {
			if f.Link(l).Tier == topo.TierServerEdge {
				t.Fatalf("path %d uses a server link", i)
			}
		}
	}
}

// TestFattreeComponentsMatchKernel verifies Observation 1 differentially: a
// k-ary Fattree's own decomposition — k/2 components, one per aggregation
// position — is exactly what the union-find kernel finds on its matrix, in
// the same form.
func TestFattreeComponentsMatchKernel(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10, 12, 16} {
		f := topo.MustFattree(k)
		ps := NewFattreePaths(f)
		got := ps.PristineComponents()
		if len(got) != f.Half() {
			t.Fatalf("Fattree(%d): %d components, want %d", k, len(got), f.Half())
		}
		if want := DecomposeCSR(MaterializeCSR(ps), f.NumLinks()); !equalComps(got, want) {
			t.Fatalf("Fattree(%d): the family's components differ from DecomposeCSR's", k)
		}
	}
}

// equalComps reports whether a and b are the same decomposition: equal
// links and equal paths, whichever form each component's paths are in.
func equalComps(a, b []Component) bool {
	return slices.EqualFunc(a, b, func(x, y Component) bool {
		return slices.Equal(x.Links, y.Links) && x.Paths.Equal(y.Paths)
	})
}

// TestVL2AndBCubeSingleComponent verifies the paper's observation that
// decomposition does not apply to VL2 and BCube.
func TestVL2AndBCubeSingleComponent(t *testing.T) {
	v := topo.MustVL2(8, 4, 2)
	vps := NewVL2Paths(v)
	if comps := DecomposeCSR(MaterializeCSR(vps), v.NumLinks()); len(comps) != 1 {
		t.Errorf("VL2: %d components, want 1", len(comps))
	}
	b := topo.MustBCube(4, 1)
	bps := NewBCubePaths(b)
	if comps := DecomposeCSR(MaterializeCSR(bps), b.NumLinks()); len(comps) != 1 {
		t.Errorf("BCube: %d components, want 1", len(comps))
	}
}

// TestSymmetryOrbitsPreserveStructure: orbit images of a path must be valid
// candidate paths with the same link count, and representatives must tile
// the whole set (every path is in exactly one representative's orbit).
func TestSymmetryOrbitsPreserveStructure(t *testing.T) {
	f := topo.MustFattree(4)
	ps := NewFattreePaths(f)
	covered := make([]int, ps.Len())
	var orbit []int
	nRep := 0
	for i := 0; i < ps.Len(); i++ {
		if !ps.isRepresentative(i) {
			continue
		}
		nRep++
		covered[i]++
		want := len(ps.AppendLinks(i, nil))
		orbit = ps.AppendOrbit(i, orbit[:0])
		for _, img := range orbit {
			covered[img]++
			if got := len(ps.AppendLinks(img, nil)); got != want {
				t.Fatalf("orbit image %d of %d has %d links, want %d", img, i, got, want)
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("path %d covered %d times by orbits, want exactly 1", i, c)
		}
	}
	if nRep*f.K != ps.Len() {
		t.Fatalf("representatives %d x k=%d != %d paths", nRep, f.K, ps.Len())
	}
}

func TestVL2SymmetryTiling(t *testing.T) {
	v := topo.MustVL2(8, 4, 1)
	ps := NewVL2Paths(v)
	covered := make([]int, ps.Len())
	var orbit []int
	for i := 0; i < ps.Len(); i++ {
		if !ps.isRepresentative(i) {
			continue
		}
		covered[i]++
		orbit = ps.AppendOrbit(i, orbit[:0])
		for _, img := range orbit {
			covered[img]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("VL2 path %d covered %d times, want 1", i, c)
		}
	}
}

func TestBCubeSymmetryTiling(t *testing.T) {
	b := topo.MustBCube(3, 1)
	ps := NewBCubePaths(b)
	covered := make([]int, ps.Len())
	var orbit []int
	for i := 0; i < ps.Len(); i++ {
		if !ps.isRepresentative(i) {
			continue
		}
		covered[i]++
		orbit = ps.AppendOrbit(i, orbit[:0])
		for _, img := range orbit {
			covered[img]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("BCube path %d covered %d times, want 1", i, c)
		}
	}
}

func TestMaterializeAndProbes(t *testing.T) {
	f := topo.MustFattree(4)
	ps := NewFattreePaths(f)
	sel := []int{0, 5, 10, 200}
	probes := NewProbes(ps, sel, f.NumLinks())
	if probes.NumPaths() != len(sel) {
		t.Fatalf("NumPaths = %d, want %d", probes.NumPaths(), len(sel))
	}
	for i, idx := range sel {
		want := ps.AppendLinks(idx, nil)
		if len(probes.PathLinks[i]) != len(want) {
			t.Fatalf("path %d: %d links, want %d", i, len(probes.PathLinks[i]), len(want))
		}
		for _, l := range want {
			found := false
			for _, pl := range probes.PathsThrough(l) {
				if int(pl) == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("inverted index misses path %d on link %d", i, l)
			}
		}
	}
	sps := Materialize(ps, sel)
	if sps.Len() != len(sel) {
		t.Fatalf("Materialize len = %d, want %d", sps.Len(), len(sel))
	}
	if sps.HopsLists == nil {
		t.Fatal("Materialize dropped hops from a HopsProvider")
	}
}

func TestECMPFattreePathDeterministicPerFlow(t *testing.T) {
	f := topo.MustFattree(4)
	src := f.ServerID[0][0][0]
	dst := f.ServerID[2][1][1]
	l1, h1 := ECMPFattreePath(f, src, dst, 12345)
	l2, _ := ECMPFattreePath(f, src, dst, 12345)
	if len(l1) != len(l2) {
		t.Fatal("same flow hash produced different paths")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same flow hash produced different paths")
		}
	}
	if len(l1) != 6 {
		t.Fatalf("inter-pod server path: %d links, want 6", len(l1))
	}
	if len(h1) != 5 {
		t.Fatalf("inter-pod server path: %d switch hops, want 5", len(h1))
	}
}

// TestECMPSpreadsFlows checks that varying the flow hash exercises every
// parallel path with roughly uniform frequency.
func TestECMPSpreadsFlows(t *testing.T) {
	f := topo.MustFattree(4)
	src := f.ServerID[0][0][0]
	dst := f.ServerID[3][0][0]
	coreSeen := map[topo.NodeID]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		_, hops := ECMPFattreePath(f, src, dst, uint64(i)*2654435761)
		coreSeen[hops[2]]++ // hop 2 is the core
	}
	if len(coreSeen) != f.NumCores() {
		t.Fatalf("ECMP used %d cores, want %d", len(coreSeen), f.NumCores())
	}
	for c, n := range coreSeen {
		frac := float64(n) / trials
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("core %d gets %.1f%% of flows, want ~25%%", c, 100*frac)
		}
	}
}

func TestECMPSameEdgePath(t *testing.T) {
	f := topo.MustFattree(4)
	src := f.ServerID[0][0][0]
	dst := f.ServerID[0][0][1]
	links, hops := ECMPFattreePath(f, src, dst, 99)
	if len(links) != 2 || len(hops) != 1 {
		t.Fatalf("same-edge path: %d links %d hops, want 2 and 1", len(links), len(hops))
	}
}

func TestFattreeServerPathViaCore(t *testing.T) {
	f := topo.MustFattree(4)
	src := f.ServerID[0][0][0]
	dst := f.ServerID[1][1][0]
	for c := 0; c < f.NumCores(); c++ {
		links, hops := FattreeServerPath(f, src, dst, c)
		if len(links) != 6 {
			t.Fatalf("core %d: %d links, want 6", c, len(links))
		}
		if hops[2] != f.CoreID[c] {
			t.Fatalf("core %d: path routed via %d", c, hops[2])
		}
	}
}

func TestCoverageHistogramAndEvenness(t *testing.T) {
	f := topo.MustFattree(4)
	ps := NewFattreePaths(f)
	sel := []int{0, 1, 2, 3}
	sub := Materialize(ps, sel)
	cov := CoverageHistogram(sub, f.NumLinks())
	if len(cov) == 0 {
		t.Fatal("empty coverage histogram")
	}
	gap := EvennessGap(cov, f.SwitchLinks())
	if gap <= 0 {
		t.Fatalf("4 paths cannot evenly cover all links; gap = %d", gap)
	}
}
