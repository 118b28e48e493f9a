package route_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// Two interior groups {4,5} and {6,7}, server-edge links 0-3, entangled by
// link 0 appearing on probes into both groups and on a 2-link intra-rack
// path. Link IDs: 0..3 server-edge, 4..7 interior, 8 spare downlink.
func partitionFixture() *route.Probes {
	paths := [][]topo.LinkID{
		{0, 4, 5, 2}, // group A probe from server-edge 0
		{1, 4, 5, 2}, // group A probe from server-edge 1
		{0, 6, 7, 3}, // group B probe from the same server-edge 0
		{0, 8},       // intra-rack: both links server-edge
	}
	return route.NewProbesFromLinks(paths, 9)
}

func TestInteriorPartitionCutsServerEdgeLinks(t *testing.T) {
	p := partitionFixture()
	pt := route.InteriorPartition(p)

	// Parts: interior group A {4,5}, interior group B {6,7}, and the
	// intra-rack residual {0,8}. Keys are the smallest link of each part in
	// the interior view, ascending: the intra-rack part keys on 0, the
	// interior groups on 4 and 6.
	if fmt.Sprint(pt.Keys) != "[0 4 6]" {
		t.Fatalf("Keys = %v, want [0 4 6]", pt.Keys)
	}
	// Path ownership: rows 0 and 1 ride group A, row 2 group B, row 3 the
	// intra-rack part.
	if pt.PathPart[0] != pt.PathPart[1] {
		t.Fatalf("group A rows split: parts %d and %d", pt.PathPart[0], pt.PathPart[1])
	}
	if pt.PathPart[0] == pt.PathPart[2] || pt.PathPart[0] == pt.PathPart[3] || pt.PathPart[2] == pt.PathPart[3] {
		t.Fatalf("parts not distinct: %v", pt.PathPart)
	}
	// Link 0 is cut: its rows land in all 3 parts.
	parts := make(map[int32]bool)
	for _, r := range p.PathsThrough(0) {
		parts[pt.PathPart[r]] = true
	}
	if len(parts) != 3 {
		t.Fatalf("link 0's rows span %d parts, want 3", len(parts))
	}
	// The component view keeps the entangled matrix whole.
	if cp := route.ComponentPartition(p); len(cp.Keys) != 1 {
		t.Fatalf("component partition has %d parts, want 1", len(cp.Keys))
	}
}

func TestInteriorPartitionLinklessPath(t *testing.T) {
	paths := [][]topo.LinkID{
		{0, 1, 2},
		{},
	}
	pt := route.InteriorPartition(route.NewProbesFromLinks(paths, 3))
	if pt.PathPart[1] != -1 {
		t.Fatalf("linkless path assigned part %d, want -1", pt.PathPart[1])
	}
	if len(pt.Keys) != 1 {
		t.Fatalf("%d parts, want 1", len(pt.Keys))
	}
}

// TestComponentPartitionMatchesDecompose is the partition differential:
// over random matrices (linkless rows included) and the served Fattree(8)
// matrix, ComponentPartition groups rows exactly as DecomposeCSR does, and
// no link's rows span two parts of it.
func TestComponentPartitionMatchesDecompose(t *testing.T) {
	matrices := map[string]*route.Probes{}
	rng := rand.New(rand.NewSource(3))
	for m := 0; m < 20; m++ {
		numLinks := 5 + rng.Intn(40)
		rows := make([][]topo.LinkID, 1+rng.Intn(60))
		for i := range rows {
			for _, l := range rng.Perm(numLinks)[:rng.Intn(min(5, numLinks))] {
				rows[i] = append(rows[i], topo.LinkID(l))
			}
		}
		matrices[fmt.Sprintf("random%d", m)] = route.NewProbesFromLinks(rows, numLinks)
	}
	ctl := control.New(topo.MustFattree(8), control.DefaultConfig())
	defer ctl.Close()
	if err := ctl.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	matrices["served Fattree(8)"] = ctl.ProbeMatrix()

	for name, p := range matrices {
		pt := route.ComponentPartition(p)
		comps := route.DecomposeCSR(route.MaterializeCSR(route.NewSlicePathSet(p.PathLinks, nil)), p.NumLinks)
		if len(pt.Keys) != len(comps) {
			t.Fatalf("%s: %d parts, DecomposeCSR has %d components", name, len(pt.Keys), len(comps))
		}
		want := make([]int32, p.NumPaths())
		for i := range want {
			want[i] = -1
		}
		for c := range comps {
			if pt.Keys[c] != comps[c].Key() {
				t.Fatalf("%s: part %d keyed %d, component keyed %d", name, c, pt.Keys[c], comps[c].Key())
			}
			for _, r := range comps[c].Paths.Append(nil) {
				want[r] = int32(c)
			}
		}
		for i := range want {
			if pt.PathPart[i] != want[i] {
				t.Fatalf("%s: row %d in part %d, DecomposeCSR puts it in %d", name, i, pt.PathPart[i], want[i])
			}
		}
		for l := 0; l < p.NumLinks; l++ {
			rows := p.PathsThrough(topo.LinkID(l))
			for _, r := range rows {
				if pt.PathPart[r] != pt.PathPart[rows[0]] {
					t.Fatalf("%s: link %d's rows span parts %d and %d", name, l, pt.PathPart[rows[0]], pt.PathPart[r])
				}
			}
		}
	}
}

func TestProbesSignatureContentKeyed(t *testing.T) {
	a := partitionFixture()
	b := partitionFixture()
	if route.ProbesSignature(a) != route.ProbesSignature(b) {
		t.Fatal("identical content in distinct allocations hashes differently")
	}
	c := route.NewProbesFromLinks([][]topo.LinkID{{0, 4, 5, 2}, {1, 4, 5, 2}, {0, 6, 7, 3}}, 9)
	if route.ProbesSignature(a) == route.ProbesSignature(c) {
		t.Fatal("dropping a row did not change the signature")
	}
	d := partitionFixture()
	d.SetIDs([]uint32{9, 8, 7, 6})
	if route.ProbesSignature(a) == route.ProbesSignature(d) {
		t.Fatal("sparse path IDs did not change the signature")
	}
}
