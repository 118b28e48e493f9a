package pmc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// perComponentOracle solves every component alone, with no memo, so no
// component can reuse another's rows, and merges the selections.
func perComponentOracle(t testing.TB, ps route.PathSet, csr *route.CSR, comps []route.Component, numLinks int, opt Options) []int {
	t.Helper()
	var sel []int
	for i := range comps {
		res, err := ConstructComponents(ps, csr, comps[i:i+1], numLinks, opt, nil)
		if err != nil {
			t.Fatalf("component %d alone: %v", i, err)
		}
		sel = append(sel, res.Selected...)
	}
	sort.Ints(sel)
	return sel
}

// checkClassReuse constructs comps with class reuse, through a fresh memo
// and then again through the same memo, and requires the per-component
// oracle's selection both times. It returns the first run's stats.
func checkClassReuse(t testing.TB, ps route.PathSet, csr *route.CSR, comps []route.Component, numLinks int, opt Options) Stats {
	t.Helper()
	want := perComponentOracle(t, ps, csr, comps, numLinks, opt)
	memo := NewMemo(0)
	var first Stats
	for run := 0; run < 2; run++ {
		res, err := ConstructComponents(ps, csr, comps, numLinks, opt, memo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Selected, want) {
			t.Fatalf("run %d: class reuse selected %d paths (hash %#016x), per-component oracle %d (hash %#016x)",
				run, len(res.Selected), hashSelection(res.Selected), len(want), hashSelection(want))
		}
		if run == 0 {
			first = res.Stats
		} else if res.Stats.Classes != 0 {
			t.Fatalf("second run through the memo solved %d classes, want 0", res.Stats.Classes)
		}
	}
	return first
}

// TestClassReuseMatchesPerComponentSolve: reusing a class leader's rows
// gives exactly what solving each component alone gives, on pristine
// Fattrees (one class), masked starts (the mask splits the classes) and
// single-component fabrics (nothing to share).
func TestClassReuseMatchesPerComponentSolve(t *testing.T) {
	for _, k := range []int{4, 8, 12} {
		f := topo.MustFattree(k)
		ps := route.NewFattreePaths(f)
		csr := route.MaterializeCSR(ps)
		comps := route.DecomposeCSR(csr, f.NumLinks())
		for _, ab := range [][2]int{{3, 1}, {1, 2}} {
			opt := Options{Alpha: ab[0], Beta: ab[1]}
			t.Run(fmt.Sprintf("Fattree%d/a%db%d/pristine", k, ab[0], ab[1]), func(t *testing.T) {
				if st := checkClassReuse(t, ps, csr, comps, f.NumLinks(), opt); st.Classes != 1 {
					t.Fatalf("%d pristine components solved as %d classes, want 1", len(comps), st.Classes)
				}
			})
		}
	}

	for _, k := range []int{4, 8} {
		f := topo.MustFattree(k)
		ps := route.NewFattreePaths(f)
		csr := route.MaterializeCSR(ps)
		pristine := route.DecomposeCSR(csr, f.NumLinks())
		rng := rand.New(rand.NewSource(int64(k)))
		links := f.SwitchLinks()
		for trial := 0; trial < 6; trial++ {
			down := make([]topo.LinkID, 0, 4)
			for _, i := range rng.Perm(len(links))[:1+trial%4] {
				down = append(down, links[i])
			}
			comps := route.DecomposeMasked(csr, f.NumLinks(), down)
			for _, ab := range [][2]int{{3, 1}, {1, 2}} {
				opt := Options{Alpha: ab[0], Beta: ab[1]}
				t.Run(fmt.Sprintf("Fattree%d/a%db%d/down%v", k, ab[0], ab[1], down), func(t *testing.T) {
					checkClassReuse(t, ps, csr, comps, f.NumLinks(), opt)
				})
			}
		}
		// The same local link down in two components: both are repaired from
		// their parents, which are one class with the untouched components.
		down := []topo.LinkID{pristine[0].Links[3], pristine[1].Links[3]}
		comps := route.DecomposeMasked(csr, f.NumLinks(), down)
		t.Run(fmt.Sprintf("Fattree%d/twin-masks", k), func(t *testing.T) {
			st := checkClassReuse(t, ps, csr, comps, f.NumLinks(), Options{Alpha: 3, Beta: 1})
			if st.Classes != 1 || st.Repaired != 2 {
				t.Fatalf("two twin-masked and %d untouched components: %d classes solved, %d repaired; want 1 and 2",
					len(comps)-2, st.Classes, st.Repaired)
			}
		})
	}

	v := topo.MustVL2(4, 4, 2)
	b := topo.MustBCube(4, 1)
	for _, fc := range []struct {
		name     string
		ps       route.PathSet
		numLinks int
	}{
		{"VL2(4,4,2)", route.NewVL2Paths(v), v.NumLinks()},
		{"BCube(4,1)", route.NewBCubePaths(b), b.NumLinks()},
	} {
		csr := route.MaterializeCSR(fc.ps)
		comps := route.DecomposeCSR(csr, fc.numLinks)
		for _, ab := range [][2]int{{3, 1}, {1, 2}} {
			t.Run(fmt.Sprintf("%s/a%db%d", fc.name, ab[0], ab[1]), func(t *testing.T) {
				checkClassReuse(t, fc.ps, csr, comps, fc.numLinks, Options{Alpha: ab[0], Beta: ab[1]})
			})
		}
	}
}

// TestClassReuseAcrossCalls: a memo entry solved on one component answers a
// later call for another component of its class, with no solve.
func TestClassReuseAcrossCalls(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := route.DecomposeCSR(csr, f.NumLinks())
	opt := Options{Alpha: 3, Beta: 1}
	memo := NewMemo(0)
	if _, err := ConstructComponents(ps, csr, comps[:1], f.NumLinks(), opt, memo); err != nil {
		t.Fatal(err)
	}
	res, err := ConstructComponents(ps, csr, comps[2:3], f.NumLinks(), opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	if want := perComponentOracle(t, ps, csr, comps[2:3], f.NumLinks(), opt); !reflect.DeepEqual(res.Selected, want) {
		t.Fatal("component 2 reusing component 0's rows diverges from solving it")
	}
	if st := memo.Stats(); res.Stats.Classes != 0 || res.Stats.ScoreEvals != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("classes %d, evals %d, memo hits/misses %d/%d; want 0, 0, 1/1",
			res.Stats.Classes, res.Stats.ScoreEvals, st.Hits, st.Misses)
	}
}

// twinPaths is a hand-built Symmetric: two components with identical
// component-local arenas whose orbit images differ. Component A is paths
// 0..3 over links 0..2, component B paths 4..7 over links 3..5, row for
// row the same local links; each component's first path is its only
// representative. A's representative maps onto all three other rows; B's
// onto its last row only.
type twinPaths struct{}

var twinRows = [][]topo.LinkID{
	{0, 1}, {1, 2}, {0, 2}, {0, 1, 2},
	{3, 4}, {4, 5}, {3, 5}, {3, 4, 5},
}

func (twinPaths) Len() int { return len(twinRows) }
func (twinPaths) AppendLinks(i int, buf []topo.LinkID) []topo.LinkID {
	return append(buf, twinRows[i]...)
}
func (twinPaths) Endpoints(i int) (topo.NodeID, topo.NodeID) {
	return topo.NodeID(i), topo.NodeID(i + 1)
}
func (twinPaths) IsRepresentative(i int) bool { return i%4 == 0 }
func (twinPaths) AppendOrbit(i int, buf []int) []int {
	if i == 0 {
		return append(buf, 1, 2, 3)
	}
	if i == 4 {
		return append(buf, 7)
	}
	return buf
}

// TestOrbitReplayRejectsFalseTwins: components that digest alike but answer
// an orbit query differently are not one class. The replay must refuse the
// reuse and both must be solved, each to its own per-component answer.
func TestOrbitReplayRejectsFalseTwins(t *testing.T) {
	ps := twinPaths{}
	csr := route.MaterializeCSR(ps)
	const numLinks = 6
	comps := route.DecomposeCSR(csr, numLinks)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(comps))
	}
	opt := Options{Alpha: 1, Beta: 1}
	localOf := []int32{0, 1, 2, 0, 1, 2}
	if digest(csr, &comps[0], localOf, ps) != digest(csr, &comps[1], localOf, ps) {
		t.Fatal("the twins must digest alike for the test to reach the replay")
	}
	st := checkClassReuse(t, ps, csr, comps, numLinks, opt)
	if st.Classes != 2 {
		t.Fatalf("false twins solved as %d classes, want 2", st.Classes)
	}
	oracle := perComponentOracle(t, ps, csr, comps, numLinks, opt)
	shifted := make([]int, 0, len(oracle))
	for _, p := range oracle {
		if p < 4 {
			shifted = append(shifted, p+4)
		}
	}
	if reflect.DeepEqual(shifted, oracle[len(oracle)-len(shifted):]) {
		t.Fatal("the twins select the same rows; the test cannot tell a wrong reuse from a right one")
	}
}

// shapeRows is three components of one shape — 3 links, 4 paths — in two
// classes: A over links 0..2 and 6..8, and B over links 3..5 between them,
// whose rows read differently.
var shapeRows = [][]topo.LinkID{
	{0, 1}, {1, 2}, {0, 2}, {0, 1, 2},
	{3}, {3, 4}, {4, 5}, {3, 5},
	{6, 7}, {7, 8}, {6, 8}, {6, 7, 8},
}

// TestShapeGroupSplitsClasses: the shape group's head solves A, B fails its
// one exact pass against A's entry and heads the next round, and the second
// A reuses the head's rows — two solves, and the selection of solving each
// component alone, with a memo and without.
func TestShapeGroupSplitsClasses(t *testing.T) {
	ps := route.NewSlicePathSet(shapeRows, nil)
	csr := route.MaterializeCSR(ps)
	const numLinks = 9
	comps := route.DecomposeCSR(csr, numLinks)
	if len(comps) != 3 {
		t.Fatalf("want 3 components, got %d", len(comps))
	}
	opt := Options{Alpha: 1, Beta: 1}
	want := perComponentOracle(t, ps, csr, comps, numLinks, opt)
	local := func(c route.Component) (rows []int) {
		for r, p := range c.Paths {
			if _, ok := slices.BinarySearch(want, int(p)); ok {
				rows = append(rows, r)
			}
		}
		return rows
	}
	if slices.Equal(local(comps[0]), local(comps[1])) {
		t.Fatal("A and B select the same rows; the test cannot tell a wrong reuse from a right one")
	}
	if st := checkClassReuse(t, ps, csr, comps, numLinks, opt); st.Classes != 2 {
		t.Fatalf("three components of two classes solved as %d classes through a memo, want 2", st.Classes)
	}
	res, err := ConstructComponents(ps, csr, comps, numLinks, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Selected, want) || res.Stats.Classes != 2 {
		t.Fatalf("without a memo: %d classes, selection equal to the per-component one: %v; want 2, true",
			res.Stats.Classes, reflect.DeepEqual(res.Selected, want))
	}
}

// FuzzClassReuse: on seeded Fattree(6/8) down-masks, and on the
// same-shape/different-content matrix of shapeRows, construction with
// class reuse selects exactly what solving each component alone does.
func FuzzClassReuse(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1))
	f.Add(uint8(1), uint8(2), int64(7))
	f.Add(uint8(0), uint8(4), int64(42))
	f.Add(uint8(1), uint8(0), int64(3))
	f.Add(uint8(2), uint8(0), int64(1))
	type fabric struct {
		ps       route.PathSet
		csr      *route.CSR
		numLinks int
		links    []topo.LinkID
	}
	var fabrics []fabric
	for _, k := range []int{6, 8} {
		ft := topo.MustFattree(k)
		ps := route.NewFattreePaths(ft)
		fabrics = append(fabrics, fabric{ps, route.MaterializeCSR(ps), ft.NumLinks(), ft.SwitchLinks()})
	}
	shapes := route.NewSlicePathSet(shapeRows, nil)
	fabrics = append(fabrics, fabric{shapes, route.MaterializeCSR(shapes), 9, []topo.LinkID{0, 1, 2, 3, 4, 5, 6, 7, 8}})
	f.Fuzz(func(t *testing.T, which, nDown uint8, seed int64) {
		fb := fabrics[int(which)%len(fabrics)]
		rng := rand.New(rand.NewSource(seed))
		var down []topo.LinkID
		for _, i := range rng.Perm(len(fb.links))[:int(nDown)%5] {
			down = append(down, fb.links[i])
		}
		comps := route.DecomposeMasked(fb.csr, fb.numLinks, down)
		checkClassReuse(t, fb.ps, fb.csr, comps, fb.numLinks, Options{Alpha: 3, Beta: 1})
	})
}
