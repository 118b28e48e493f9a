package pmc

import (
	"slices"
	"testing"

	"github.com/detector-net/detector/internal/refine"
	"github.com/detector-net/detector/internal/route"
)

// stepDifferential replays selection steps on a componentState and checks
// each step's dirty bitset against the one the full affected-link report
// gives: a shadow partition takes the same rows in the same order and
// reports every affected link, with no stop.
type stepDifferential struct {
	t      testing.TB
	cs     *componentState
	shadow *refine.Partition

	steps   int // steps checked
	fills   int // steps whose links reach every candidate
	stopped int // fills that noted fewer links than the full report has
	later   int // fills decided only after the step's first take
}

// newStepDifferential starts a differential on cs, whose arena holds the
// candidates of the pass to replay: it indexes them, as a pass does, and
// gives the shadow the rows cs has taken already.
func newStepDifferential(t testing.TB, cs *componentState, taken [][]int32) *stepDifferential {
	cs.ar.index()
	cs.dirty = newBitset(cs.ar.ncand)
	d := &stepDifferential{t: t, cs: cs, shadow: refine.MustPartition(len(cs.w), cs.opt.Beta)}
	for _, row := range taken {
		d.shadow.Split(row)
	}
	d.checkPartition()
	return d
}

func (d *stepDifferential) checkPartition() {
	d.t.Helper()
	if p, s := d.cs.part, d.shadow; p.Groups() != s.Groups() || p.Singletons() != s.Singletons() {
		d.t.Fatalf("step %d: partition has %d groups, %d singletons; shadow %d, %d",
			d.steps, p.Groups(), p.Singletons(), s.Groups(), s.Singletons())
	}
}

// step takes the selection step that picks slot p (with its orbit images
// under sym) from a clean dirty bitset, and checks what endStep dirtied.
func (d *stepDifferential) step(p int32, sym route.Symmetric) {
	d.t.Helper()
	cs, ar := d.cs, d.cs.ar
	before := slices.Clone(cs.selected)
	clear(cs.dirty)
	logFrom := len(cs.orbitLog)
	cs.selectWithOrbit(p, sym, nil)

	// The rows the step took, in the order it took them: the pick, then the
	// orbit images it selected, in the order it queried them.
	taken := []int32{ar.rowOf[p]}
	if sym != nil {
		for _, r := range cs.orbitLog[logFrom+2:] {
			if cs.selected.get(r) && !before.get(r) && !slices.Contains(taken, r) {
				taken = append(taken, r)
			}
		}
	}
	noted := make([]bool, len(cs.w))
	var links []int32
	note := func(li int32) bool {
		if !noted[li] {
			noted[li] = true
			links = append(links, li)
		}
		return true
	}
	mass := func() int {
		n := 0
		for _, li := range links {
			n += len(ar.posThrough(li))
		}
		return n
	}
	firstTake := 0
	for i, r := range taken {
		row := ar.row(ar.slot(r))
		for _, li := range row {
			note(li)
		}
		if cs.opt.Beta >= 1 {
			d.shadow.SplitAffected(row, note)
		}
		if i == 0 {
			firstTake = mass()
		}
	}
	want := newBitset(ar.ncand)
	if mass() >= ar.ncand {
		want.fill()
		d.fills++
		if len(cs.stepLinks) < len(links) {
			d.stopped++
		}
		if firstTake < ar.ncand {
			d.later++
		}
	} else {
		for _, li := range links {
			for _, q := range ar.posThrough(li) {
				want.set(q)
			}
		}
	}
	if !slices.Equal(cs.dirty, want) {
		d.t.Fatalf("step %d (rows %v): endStep dirtied %v, the full report gives %v",
			d.steps, taken, cs.dirty.appendSet(nil), want.appendSet(nil))
	}
	d.steps++
	d.checkPartition()
}

// TestEndStepDirtiesWhatTheFullReportGives replays the steps of β=2
// constructions and of repaired masked components one by one: each
// endStep's dirty bitset must be the one that the whole affected-link
// report of every row the step took gives, though a step stops refine's
// walk as soon as its links reach every candidate. Between them the
// replays dirty by the index and by a fill, and stop a walk both in the
// step's first take and in a later one.
func TestEndStepDirtiesWhatTheFullReportGives(t *testing.T) {
	opt := Options{Alpha: 1, Beta: 2}
	var total stepDifferential
	add := func(d *stepDifferential) {
		total.steps += d.steps
		total.fills += d.fills
		total.stopped += d.stopped
		total.later += d.later
	}
	for _, k := range []int{8, 12} {
		fb := newRepairFabric(k)
		pristine := fb.csr.Pristine(fb.numLinks)
		localOf := make([]int32, fb.numLinks)
		comp := &pristine.Comps[0]
		setLocal(localOf, pristine.Comps[:1])
		sym, err := prepareComponents(fb.ps, pristine.Comps[:1], opt)
		if err != nil {
			t.Fatal(err)
		}
		_, e, err := solveComponent(sym, newArena(fb.csr, comp, localOf), opt, false)
		if err != nil {
			t.Fatal(err)
		}
		if e.full {
			t.Fatal("completion ran; the orbit log replays only the orbit pass")
		}
		ar := newArena(fb.csr, comp, localOf)
		if err := ar.loadCands(e.reps); err != nil {
			t.Fatal(err)
		}
		cs := newComponentState(ar, len(comp.Links), opt)
		d := newStepDifferential(t, cs, nil)
		// Each orbit-log record is one step: the pick's row, the image
		// count, the images.
		for i := 0; i < len(e.orbit); i += 2 + int(e.orbit[i+1]) {
			d.step(ar.slot(e.orbit[i]), sym)
		}
		if got := cs.selected.appendSet(nil); !slices.Equal(got, e.rows) {
			t.Fatalf("Fattree(%d): the replay selected %d rows, the construction %d", k, len(got), len(e.rows))
		}
		t.Logf("Fattree(%d) construction: %d steps, %d fill every candidate, %d of them before the walk's end, %d only after the first take",
			k, d.steps, d.fills, d.stopped, d.later)
		add(d)
	}

	fb := newRepairFabric(8)
	pristine := fb.csr.Pristine(fb.numLinks)
	localOf := make([]int32, fb.numLinks)
	for seed := int64(1); seed <= 4; seed++ {
		comps := route.DecomposeMasked(fb.csr, fb.numLinks, seededDown(fb.links, 2, seed))
		for ci := range comps {
			comp := &comps[ci]
			par := pristine.Parent(comp)
			if par < 0 || comp.Paths.Len() == pristine.Comps[par].Paths.Len() {
				continue
			}
			parent, err := ConstructComponents(fb.ps, fb.csr, pristine.Comps[par:par+1], fb.numLinks, opt)
			if err != nil {
				t.Fatal(err)
			}
			setLocal(localOf, comps[ci:ci+1])
			if d := replayRepair(t, fb.csr, pristine, comp, parent.Selected, localOf, opt); d != nil {
				add(d)
			}
		}
	}
	t.Logf("all replays: %d steps, %d fill every candidate, %d of them before the walk's end, %d only after the first take",
		total.steps, total.fills, total.stopped, total.later)
	if total.fills == total.steps || total.stopped == 0 || total.later == 0 {
		t.Fatal("the replays miss an endStep branch or a walk stopped in a later take")
	}
}

// replayRepair replays the completion pass of comp's repair, its picks in
// ascending row order, through a stepDifferential, and returns it. It
// returns nil, and checks nothing, when the kept rows alone meet the
// targets.
func replayRepair(t *testing.T, csr *route.CSR, pristine *route.Pristine, comp *route.Component, parentSel []int, localOf []int32, opt Options) *stepDifferential {
	t.Helper()
	got, err := repair(csr, pristine, comp, parentSel, localOf, opt)
	if err != nil {
		t.Fatal(err)
	}
	var kept []int32
	for _, pid := range parentSel {
		if r := comp.Paths.Find(int32(pid)); r >= 0 {
			kept = append(kept, r)
		}
	}
	cs, err := keptState(csr, comp, kept, localOf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cs.done() {
		return nil
	}
	// The completion pass's arena, as repair builds it.
	sub, subKept, _ := offered(pristine, comp, kept, cs.deficient())
	paths := make([]int32, len(sub))
	for i, r := range sub {
		paths[i] = comp.Paths.At(int(r))
	}
	ar := newArena(csr, &route.Component{Links: comp.Links, Paths: route.PathList(paths)}, localOf)
	if err := ar.loadAll(); err != nil {
		t.Fatal(err)
	}
	cs.attach(ar)
	var keptRows [][]int32
	for _, p := range subKept {
		cs.selected.set(p)
		keptRows = append(keptRows, ar.row(p))
	}
	d := newStepDifferential(t, cs, keptRows)
	for p, pid := range paths {
		if !cs.selected.get(int32(p)) && slices.Contains(got.selected, int(pid)) {
			d.step(int32(p), nil)
		}
	}
	if !cs.done() {
		t.Fatal("the replayed picks do not complete the repair")
	}
	t.Logf("repair: %d kept rows, then %d steps over %d offered rows, %d fill every candidate",
		len(kept), d.steps, len(sub), d.fills)
	return d
}
