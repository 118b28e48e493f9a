package pmc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// repairFabric is one Fattree's candidate matrix, for the repair tests.
type repairFabric struct {
	k        int
	ps       *route.FattreePaths
	csr      *route.CSR
	numLinks int
	links    []topo.LinkID
}

func newRepairFabric(k int) repairFabric {
	f := topo.MustFattree(k)
	ps := route.NewFattreePaths(f)
	return repairFabric{k, ps, route.MaterializeCSR(ps), f.NumLinks(), f.SwitchLinks()}
}

// seededDown picks n distinct switch links.
func seededDown(links []topo.LinkID, n int, seed int64) []topo.LinkID {
	var down []topo.LinkID
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(links))[:n] {
		down = append(down, links[i])
	}
	return down
}

// completeAll is what repair is defined to equal: the masked component's
// whole arena, the parent's selected paths it still has selected in row
// order, then the completion pass over every row when α or β is unmet. It
// returns the selection, how many paths were kept, and how many the
// completion pass added.
func completeAll(csr *route.CSR, comp *route.Component, parentSel []int, localOf []int32, opt Options) (sel []int, kept, added int) {
	ar := newArena(csr, comp, localOf)
	if err := ar.loadAll(); err != nil {
		panic(err)
	}
	ar.index() // sel notes a step's links through the inverted index
	cs := newComponentState(ar, len(comp.Links), opt)
	cs.beginStep()
	j := 0
	for r, pid := range comp.Paths.Append(nil) {
		for j < len(parentSel) && parentSel[j] < int(pid) {
			j++
		}
		if j < len(parentSel) && parentSel[j] == int(pid) {
			cs.sel(int32(r))
			kept++
		}
	}
	if !cs.done() {
		cs.pass(nil)
	}
	for r, pid := range comp.Paths.Append(nil) {
		if cs.selected.get(int32(r)) {
			sel = append(sel, int(pid))
		}
	}
	return sel, kept, len(sel) - kept
}

// checkRepair masks down out of fb and checks the construction:
//   - every masked component's repair equals completeAll, and serves its
//     kept paths plus the completion pass's additions, nothing more;
//   - the batch entry Repair, handed the parents' selections, answers each
//     masked component as construction does, and counts every repair;
//   - the flap from the pristine selection and back changes at most the
//     pristine paths through a down link plus those additions;
//   - Verify on the live links agrees with the reported targets.
//
// It returns the masked selection.
func checkRepair(t testing.TB, fb repairFabric, down []topo.LinkID, opt Options) []int {
	t.Helper()
	pristine := fb.csr.Pristine(fb.numLinks)
	base, err := ConstructComponents(fb.ps, fb.csr, pristine.Comps, fb.numLinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	comps := route.DecomposeMasked(fb.csr, fb.numLinks, down)
	res, err := ConstructComponents(fb.ps, fb.csr, comps, fb.numLinks, opt)
	if err != nil {
		t.Fatal(err)
	}

	localOf := make([]int32, fb.numLinks)
	repaired, additions := 0, 0
	var cut []route.Component
	var parents, wants [][]int
	for ci := range comps {
		comp := &comps[ci]
		p := pristine.Parent(comp)
		if p < 0 || comp.Paths.Len() == pristine.Comps[p].Paths.Len() {
			continue
		}
		repaired++
		parent, err := ConstructComponents(fb.ps, fb.csr, pristine.Comps[p:p+1], fb.numLinks, opt)
		if err != nil {
			t.Fatal(err)
		}
		setLocal(localOf, comps[ci:ci+1])
		want, kept, added := completeAll(fb.csr, comp, parent.Selected, localOf, opt)
		got, err := repair(fb.csr, pristine, comp, parent.Selected, localOf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.selected, want) {
			t.Fatalf("component %d: restricted completion selects %d paths, completion over all %d rows %d",
				ci, len(got.selected), comp.Paths.Len(), len(want))
		}
		if len(got.selected) > kept+added {
			t.Fatalf("component %d serves %d paths, more than %d kept + %d added", ci, len(got.selected), kept, added)
		}
		additions += added
		cut = append(cut, *comp)
		parents = append(parents, parent.Selected)
		wants = append(wants, want)
	}
	if res.Stats.Repaired != repaired {
		t.Fatalf("stats report %d repaired components, want %d", res.Stats.Repaired, repaired)
	}
	batch, st, err := Repair(fb.csr, cut, parents, fb.numLinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if !reflect.DeepEqual(r.Selected, wants[i]) {
			t.Fatalf("masked component %d: Repair selects %d paths, completion over all rows %d", i, len(r.Selected), len(wants[i]))
		}
	}
	if st.Repaired != repaired || st.Classes != 0 {
		t.Fatalf("Repair stats %+v, want %d repaired and no class solved", st, repaired)
	}

	through := 0
	var row []topo.LinkID
	for _, s := range base.Selected {
		row = fb.csr.AppendRow(s, row[:0])
		if slices.ContainsFunc(row, func(l topo.LinkID) bool { return slices.Contains(down, l) }) {
			through++
		}
	}
	changed := 0
	for _, s := range base.Selected {
		if _, ok := slices.BinarySearch(res.Selected, s); !ok {
			changed++
		}
	}
	for _, s := range res.Selected {
		if _, ok := slices.BinarySearch(base.Selected, s); !ok {
			changed++
		}
	}
	if changed > through+additions {
		t.Fatalf("the flap changes %d paths, more than %d through a down link + %d added", changed, through, additions)
	}

	var live []topo.LinkID
	for _, c := range comps {
		live = append(live, c.Links...)
	}
	slices.Sort(live)
	v := Verify(route.NewProbes(fb.ps, res.Selected, fb.numLinks), live, opt.Beta >= 2)
	if res.Stats.CoverageMet != (v.MinCoverage >= opt.Alpha) {
		t.Fatalf("stats say coverage met = %v, Verify min coverage %d (alpha %d)", res.Stats.CoverageMet, v.MinCoverage, opt.Alpha)
	}
	if res.Stats.CoverageMet && res.Stats.IdentMet && !v.Identifiable(opt.Beta) {
		t.Fatalf("stats say the targets are met, Verify finds the matrix not %d-identifiable: %v", opt.Beta, v.Collisions)
	}
	return res.Selected
}

// TestRepairIsRestrictedCompletion proves repair exact on Fattree(4/6/8)
// at (3,1) and (1,2) under seeded masks of one to four down links.
func TestRepairIsRestrictedCompletion(t *testing.T) {
	fabrics := make(map[int]repairFabric)
	for _, k := range []int{4, 6, 8} {
		fabrics[k] = newRepairFabric(k)
		for _, ab := range [][2]int{{3, 1}, {1, 2}} {
			opt := Options{Alpha: ab[0], Beta: ab[1]}
			for n := 1; n <= 4; n++ {
				down := seededDown(fabrics[k].links, n, int64(10*k+n))
				t.Run(fmt.Sprintf("Fattree%d/a%db%d/down%v", k, ab[0], ab[1], down), func(t *testing.T) {
					checkRepair(t, fabrics[k], down, opt)
				})
			}
		}
	}
	// Here a restricted pass's first sweep ends on a push where the pass
	// over every row would end on a parked row: without parkedTail the two
	// pick different rows on a tied score.
	down := seededDown(fabrics[6].links, 3, 46)
	t.Run(fmt.Sprintf("Fattree6/a3b1/down%v/parked-tail", down), func(t *testing.T) {
		checkRepair(t, fabrics[6], down, Options{Alpha: 3, Beta: 1})
	})
}

// TestRepairPinned pins two repaired selections, recorded after Verify
// passed on the live links: a change that moves them changes what a
// churned controller serves.
func TestRepairPinned(t *testing.T) {
	for _, c := range []struct {
		k, alpha, beta, n int
		want              uint64
	}{
		{8, 3, 1, 1, 0x595c6830535547d4},
		{6, 1, 2, 2, 0x2acb4764c6c1ed81},
	} {
		fb := newRepairFabric(c.k)
		sel := checkRepair(t, fb, seededDown(fb.links, c.n, 1), Options{Alpha: c.alpha, Beta: c.beta})
		if got := hashSelection(sel); got != c.want {
			t.Errorf("Fattree(%d) (%d,%d) with %d down: repaired selection hash %#016x, pinned %#016x", c.k, c.alpha, c.beta, c.n, got, c.want)
		}
	}
}

// TestRepairFromKeptRowsAlone: where the kept paths already meet α and β,
// repair offers the completion pass nothing and scores nothing.
func TestRepairFromKeptRowsAlone(t *testing.T) {
	fb := newRepairFabric(8)
	opt := Options{Alpha: 3, Beta: 1}
	pristine := fb.csr.Pristine(fb.numLinks)
	base, err := ConstructComponents(fb.ps, fb.csr, pristine.Comps, fb.numLinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	alone, completed := 0, 0
	for _, l := range fb.links {
		var cut []route.Component
		var parents [][]int
		for _, c := range route.DecomposeMasked(fb.csr, fb.numLinks, []topo.LinkID{l}) {
			if p := pristine.Parent(&c); c.Paths.Len() < pristine.Comps[p].Paths.Len() {
				cut = append(cut, c)
				parents = append(parents, selectionIn(base.Selected, pristine.Comps[p]))
			}
		}
		_, st, err := Repair(fb.csr, cut, parents, fb.numLinks, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.Repaired != 1 {
			t.Fatalf("link %d down: %d components repaired, want 1", l, st.Repaired)
		}
		if st.Candidates == 0 {
			if st.ScoreEvals != 0 {
				t.Fatalf("link %d down: no row offered, yet %d scores evaluated", l, st.ScoreEvals)
			}
			alone++
		} else {
			completed++
		}
	}
	if alone == 0 || completed == 0 {
		t.Fatalf("%d repairs from kept rows alone, %d completed; the test wants both", alone, completed)
	}
}

// selectionIn is the part of sel, ascending path indices, that is comp's.
func selectionIn(sel []int, comp route.Component) []int {
	var out []int
	for _, p := range sel {
		if comp.Paths.Find(int32(p)) >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// FuzzRepair: on seeded Fattree(4/6/8) down-masks, repair equals the
// completion pass over every row of the masked component, through
// construction and through Repair, within its bounds and under Verify.
func FuzzRepair(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), false)
	f.Add(uint8(1), uint8(1), int64(7), true)
	f.Add(uint8(2), uint8(3), int64(42), false)
	f.Add(uint8(2), uint8(2), int64(3), true)
	f.Add(uint8(1), uint8(2), int64(46), false) // the parked-tail case
	var fabrics []repairFabric
	for _, k := range []int{4, 6, 8} {
		fabrics = append(fabrics, newRepairFabric(k))
	}
	f.Fuzz(func(t *testing.T, which, nDown uint8, seed int64, beta2 bool) {
		fb := fabrics[int(which)%len(fabrics)]
		opt := Options{Alpha: 3, Beta: 1}
		if beta2 {
			opt = Options{Alpha: 1, Beta: 2}
		}
		checkRepair(t, fb, seededDown(fb.links, 1+int(nDown)%4, seed), opt)
	})
}

// TestRepairOffersRowsWithoutABitset: choosing the rows a Fattree(24)
// single-link repair offers its completion pass allocates less than one
// bit per candidate path of the matrix (csr.Len()/8 bytes), the size of
// the bitset the choice once marked: it walks the sorted rows through the
// deficient links against the masked component's paths. The whole repair
// allocates more, its completion pass's one arena over the offered rows,
// but under wholeRepairBound.
func TestRepairOffersRowsWithoutABitset(t *testing.T) {
	const wholeRepairBound = 4 << 20 // measured ≈ 2.8 MB
	fb := newRepairFabric(24)
	opt := Options{Alpha: 3, Beta: 1, Workers: 1}
	pristine := fb.csr.Pristine(fb.numLinks)
	parent, err := ConstructComponents(fb.ps, fb.csr, pristine.Comps[:1], fb.numLinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := route.NewIncremental(fb.csr, fb.numLinks, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := pristine.Comps[0].Links[0]
	diff, err := inc.Apply([]topo.LinkID{l}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 1 {
		t.Fatalf("link %d down cut component 0 into %d pieces, want 1", l, len(diff.Added))
	}
	comp := &diff.Added[0]
	localOf := make([]int32, fb.numLinks)
	setLocal(localOf, diff.Added)
	var kept []int32
	for _, pid := range parent.Selected {
		if r := comp.Paths.Find(int32(pid)); r >= 0 {
			kept = append(kept, r)
		}
	}
	cs, err := keptState(fb.csr, comp, kept, localOf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cs.done() {
		t.Fatalf("link %d down: the kept rows meet the targets; no row is offered", l)
	}
	deficient := cs.deficient()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub, _, _ := offered(pristine, comp, kept, deficient)
	runtime.ReadMemStats(&after)
	alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(fb.csr.Len()/8)

	runtime.ReadMemStats(&before)
	_, st, err := Repair(fb.csr, diff.Added, [][]int{parent.Selected}, fb.numLinks, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != len(sub) {
		t.Fatalf("Repair offered %d rows, the choice %d", st.Candidates, len(sub))
	}
	whole := after.TotalAlloc - before.TotalAlloc
	t.Logf("link %d down: %d of %d rows offered; choosing them allocated %d B (bound %d B), the whole repair %d B (bound %d B)",
		l, len(sub), comp.Paths.Len(), alloc, bound, whole, wholeRepairBound)
	if alloc >= bound {
		t.Fatalf("choosing the offered rows allocated %d B, not under %d B", alloc, bound)
	}
	if whole >= wholeRepairBound {
		t.Fatalf("the whole repair allocated %d B, not under %d B", whole, wholeRepairBound)
	}
}
