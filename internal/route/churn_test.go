package route

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/topo"
)

func mustIncremental(t testing.TB, csr *CSR, numLinks int, down []topo.LinkID) *Incremental {
	t.Helper()
	inc, err := NewIncremental(csr, numLinks, down)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

func TestDecomposeMaskedNoDownMatchesDecompose(t *testing.T) {
	f := topo.MustFattree(8)
	v := topo.MustVL2(4, 4, 2)
	bc := topo.MustBCube(4, 1)
	for _, tc := range []struct {
		name     string
		ps       PathSet
		numLinks int
	}{
		{"fattree8", NewFattreePaths(f), f.NumLinks()},
		{"vl2", NewVL2Paths(v), v.NumLinks()},
		{"bcube", NewBCubePaths(bc), bc.NumLinks()},
	} {
		csr := MaterializeCSR(tc.ps)
		full := DecomposeCSR(csr, tc.numLinks)
		if masked := DecomposeMasked(csr, tc.numLinks, nil); !equalComps(full, masked) {
			t.Errorf("%s: DecomposeMasked with empty down set diverges from DecomposeCSR", tc.name)
		}
		if inc := mustIncremental(t, csr, tc.numLinks, nil); !equalComps(full, inc.Components()) {
			t.Errorf("%s: NewIncremental with empty down set diverges from DecomposeCSR", tc.name)
		}
	}
}

// TestIncrementalSplit: removing a link that is the only connection between
// two halves of a component must split it in two.
func TestIncrementalSplit(t *testing.T) {
	// Rows: {0}, {1}, {0,1,2}. Link 2's row bridges links 0 and 1.
	csr := NewCSR([][]topo.LinkID{{0}, {1}, {0, 1, 2}})
	inc := mustIncremental(t, csr, 3, nil)
	if got := len(inc.Components()); got != 1 {
		t.Fatalf("pre-split: %d components, want 1", got)
	}
	diff, err := inc.Apply([]topo.LinkID{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Removed) != 1 || len(diff.Added) != 2 {
		t.Fatalf("split diff: %d removed, %d added, want 1/2", len(diff.Removed), len(diff.Added))
	}
	want := DecomposeMasked(csr, 3, []topo.LinkID{2})
	if !equalComps(inc.Components(), want) {
		t.Fatalf("post-split components %+v, want %+v", inc.Components(), want)
	}
	if len(want) != 2 {
		t.Fatalf("ground truth has %d components, want 2", len(want))
	}
}

// TestIncrementalMerge: restoring that same link must merge the two
// components back into one, bit-identical to a fresh decomposition.
func TestIncrementalMerge(t *testing.T) {
	csr := NewCSR([][]topo.LinkID{{0}, {1}, {0, 1, 2}})
	inc := mustIncremental(t, csr, 3, []topo.LinkID{2})
	if got := len(inc.Components()); got != 2 {
		t.Fatalf("pre-merge: %d components, want 2", got)
	}
	diff, err := inc.Apply(nil, []topo.LinkID{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Removed) != 2 || len(diff.Added) != 1 {
		t.Fatalf("merge diff: %d removed, %d added, want 2/1", len(diff.Removed), len(diff.Added))
	}
	want := DecomposeMasked(csr, 3, nil)
	if !equalComps(inc.Components(), want) {
		t.Fatalf("post-merge components %+v, want %+v", inc.Components(), want)
	}
	fresh := DecomposeCSR(csr, 3)
	if !equalComps(inc.Components(), fresh) {
		t.Fatal("merged decomposition diverges from pristine decomposition")
	}
}

// TestIncrementalFlapNetsOut: a link listed in both down and up within one
// Apply flaps and must net to no change.
func TestIncrementalFlapNetsOut(t *testing.T) {
	csr := NewCSR([][]topo.LinkID{{0}, {1}, {0, 1, 2}})
	inc := mustIncremental(t, csr, 3, nil)
	before := append([]Component(nil), inc.Components()...)
	diff, err := inc.Apply([]topo.LinkID{2}, []topo.LinkID{2})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Fatalf("flap diff not empty: %+v", diff)
	}
	if !equalComps(inc.Components(), before) {
		t.Fatal("flap changed the decomposition")
	}
}

// TestIncrementalDownNoActiveRows: downing a link whose rows are all already
// inactive changes nothing.
func TestIncrementalDownNoActiveRows(t *testing.T) {
	// Row {1,2} is the only row through 2; once 1 is down it is inactive.
	csr := NewCSR([][]topo.LinkID{{0}, {1, 2}})
	inc := mustIncremental(t, csr, 3, []topo.LinkID{1})
	diff, err := inc.Apply([]topo.LinkID{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Fatalf("expected empty diff, got %+v", diff)
	}
	// And bringing 2 back up while 1 stays down is equally a no-op.
	diff, err = inc.Apply(nil, []topo.LinkID{2})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Fatalf("expected empty up diff, got %+v", diff)
	}
}

func TestIncrementalStrictErrors(t *testing.T) {
	csr := NewCSR([][]topo.LinkID{{0, 1}})
	inc := mustIncremental(t, csr, 2, nil)
	if _, err := inc.Apply(nil, []topo.LinkID{0}); err == nil {
		t.Error("up of an up link: want error")
	}
	if _, err := inc.Apply([]topo.LinkID{5}, nil); err == nil {
		t.Error("out-of-range link: want error")
	}
	// LinkID is signed and arrives from outside (POST /churn, -down-links).
	if _, err := inc.Apply([]topo.LinkID{-1}, nil); err == nil {
		t.Error("negative down link: want error")
	}
	if _, err := inc.Apply([]topo.LinkID{1}, []topo.LinkID{-1}); err == nil {
		t.Error("negative up link: want error")
	}
	if len(inc.Down()) != 0 {
		t.Errorf("rejected steps left links down: %v", inc.Down())
	}
	if _, err := NewIncremental(csr, 2, []topo.LinkID{-1}); err == nil {
		t.Error("negative initial down link: want error")
	}
	if _, err := inc.Apply([]topo.LinkID{0, 0}, nil); err == nil {
		t.Error("duplicate down link: want error")
	}
	if _, err := inc.Apply([]topo.LinkID{0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply([]topo.LinkID{0}, nil); err == nil {
		t.Error("down of a down link: want error")
	}
	// Errors must leave the differ usable.
	if _, err := inc.Apply(nil, []topo.LinkID{0}); err != nil {
		t.Fatal(err)
	}
}

// applyDiff replays a Diff against a prior decomposition by key, verifying
// the diff alone carries enough information to update a mirror.
func applyDiff(prev []Component, d Diff, t *testing.T) []Component {
	t.Helper()
	removed := make(map[uint64]bool, len(d.Removed))
	for _, c := range d.Removed {
		removed[c.Key()] = true
	}
	var next []Component
	for _, c := range prev {
		if !removed[c.Key()] {
			next = append(next, c)
		}
	}
	if len(prev)-len(next) != len(d.Removed) {
		t.Fatalf("diff removed %d components, matched %d", len(d.Removed), len(prev)-len(next))
	}
	next = append(next, d.Added...)
	for i := 1; i < len(next); i++ {
		for j := i; j > 0 && next[j].Links[0] < next[j-1].Links[0]; j-- {
			next[j], next[j-1] = next[j-1], next[j]
		}
	}
	return next
}

func churnDifferential(t *testing.T, csr *CSR, numLinks int, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inc := mustIncremental(t, csr, numLinks, nil)
	downSet := make(map[topo.LinkID]bool)
	mirror := append([]Component(nil), inc.Components()...)
	for step := 0; step < steps; step++ {
		var down, up []topo.LinkID
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			l := topo.LinkID(rng.Intn(numLinks))
			if downSet[l] {
				downSet[l] = false
				up = append(up, l)
			} else if !contains(up, l) && !contains(down, l) {
				downSet[l] = true
				down = append(down, l)
			}
		}
		// Every step is first tried with one bad link appended: the differ
		// must refuse it and roll back the part it had already applied.
		bad := []topo.LinkID{-1, topo.LinkID(numLinks), rejectable(downSet, down, up, true)}[step%3]
		if _, err := inc.Apply(append(down[:len(down):len(down)], bad), up); err == nil {
			t.Fatalf("step %d: down link %d accepted", step, bad)
		}
		bad = []topo.LinkID{-1, topo.LinkID(numLinks), rejectable(downSet, down, up, false)}[step%3]
		if _, err := inc.Apply(down, append(up[:len(up):len(up)], bad)); err == nil {
			t.Fatalf("step %d: up link %d accepted", step, bad)
		}
		diff, err := inc.Apply(down, up)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertKernelClean(t, inc.kern)
		var cur []topo.LinkID
		for l, d := range downSet {
			if d {
				cur = append(cur, l)
			}
		}
		assertActiveCounts(t, inc, cur)
		want := DecomposeMasked(csr, numLinks, cur)
		if !equalComps(inc.Components(), want) {
			t.Fatalf("step %d (down=%v up=%v): incremental decomposition diverges from full recompute", step, down, up)
		}
		mirror = applyDiff(mirror, diff, t)
		if !equalComps(mirror, want) {
			t.Fatalf("step %d: diff replay diverges from full recompute", step)
		}
	}
}

// rejectable returns a link Apply must refuse when appended to the step's
// down list (wantDown: one that is down after the step's own downs) or to
// its up list (one that is up and not downed by the step).
func rejectable(downSet map[topo.LinkID]bool, down, up []topo.LinkID, wantDown bool) topo.LinkID {
	for l := topo.LinkID(0); ; l++ {
		if !contains(up, l) && (downSet[l] || contains(down, l)) == wantDown {
			return l
		}
	}
}

// assertKernelClean checks the standing scratch directly: identity parents,
// zero ranks, counts and labels, on every link.
func assertKernelClean(t *testing.T, k *kernel) {
	t.Helper()
	for l := range k.comp {
		if k.uf.parent[l] != int32(l) || k.uf.rank[l] != 0 || k.first[l] != 0 || k.comp[l] != 0 {
			t.Fatalf("kernel scratch dirty at link %d: parent %d rank %d first %d comp %d",
				l, k.uf.parent[l], k.uf.rank[l], k.first[l], k.comp[l])
		}
	}
	if len(k.links) != 0 {
		t.Fatalf("kernel left %d seen links behind", len(k.links))
	}
}

// assertActiveCounts checks the differ's per-link active-row counts against
// a count from scratch — the rows through each link that cross no down
// link — on the links of the pristine components it has touched, the only
// ones it keeps counts for.
func assertActiveCounts(t *testing.T, inc *Incremental, down []topo.LinkID) {
	t.Helper()
	want := make([]int32, inc.numLinks)
	var row []topo.LinkID
	for i := 0; i < inc.csr.Len(); i++ {
		row = inc.csr.AppendRow(i, row[:0])
		if slices.ContainsFunc(row, func(l topo.LinkID) bool { return slices.Contains(down, l) }) {
			continue
		}
		for _, l := range row {
			want[l]++
		}
	}
	for ci, c := range inc.pristine.Comps {
		if !inc.counted[ci] {
			continue
		}
		for _, l := range c.Links {
			if inc.activeCnt[l] != want[l] {
				t.Fatalf("active-row count of link %d is %d, %d from scratch with %v down", l, inc.activeCnt[l], want[l], down)
			}
		}
	}
	for _, l := range down {
		if ci := inc.pristine.CompOf(l); ci >= 0 && !inc.counted[ci] {
			t.Fatalf("link %d is down but its pristine component %d was never touched", l, ci)
		}
	}
}

func contains(s []topo.LinkID, l topo.LinkID) bool {
	for _, v := range s {
		if v == l {
			return true
		}
	}
	return false
}

// TestIncrementalRandomDifferential drives random link add/remove sequences
// on Fattree(8) and BCube(4,1) and checks after every step that the
// incremental decomposition is bit-identical to a from-scratch masked
// decomposition, and that the emitted Diff replays to the same state.
func TestIncrementalRandomDifferential(t *testing.T) {
	f := topo.MustFattree(8)
	fcsr := MaterializeCSR(NewFattreePaths(f))
	churnDifferential(t, fcsr, f.NumLinks(), 30, 1)

	b := topo.MustBCube(4, 1)
	bcsr := MaterializeCSR(NewBCubePaths(b))
	churnDifferential(t, bcsr, b.NumLinks(), 30, 2)
}

// TestKernelScratchHygiene: the differ's kernel is standing state, so a step
// that leaves one parent, rank, count or label behind corrupts every later
// one. 200 multi-link steps per family, each preceded by two rejected
// variants, with the scratch inspected and the oracle compared every step.
func TestKernelScratchHygiene(t *testing.T) {
	f := topo.MustFattree(8)
	churnDifferential(t, MaterializeCSR(NewFattreePaths(f)), f.NumLinks(), 200, 11)
	b := topo.MustBCube(4, 1)
	churnDifferential(t, MaterializeCSR(NewBCubePaths(b)), b.NumLinks(), 200, 12)
}

// TestIncrementalKernelCases walks hand-built matrices through the shapes
// the local rebuild has to get right. After every step the differ must equal
// both the from-scratch oracle and a fresh differ over the same down set.
func TestIncrementalKernelCases(t *testing.T) {
	type step struct{ down, up []topo.LinkID }
	ids := func(l ...topo.LinkID) []topo.LinkID { return l }
	for _, tc := range []struct {
		name     string
		rows     [][]topo.LinkID
		numLinks int
		initial  []topo.LinkID
		steps    []step
		wantLens []int // components after each step
	}{{
		name:     "chain splits on a down and re-merges on the up",
		rows:     [][]topo.LinkID{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		numLinks: 5,
		steps:    []step{{down: ids(2)}, {up: ids(2)}},
		wantLens: []int{2, 1},
	}, {
		// Links 4 and 5 start down. Bringing both up activates rows 1, 3
		// and 4, which interleave the survivors of {0,1} (rows 0, 6) and
		// {2,3} (rows 2, 5) and bridge the two components into one.
		name:     "two dirty components, activated rows interleaving both",
		rows:     [][]topo.LinkID{{0, 1}, {0, 4}, {2, 3}, {1, 5}, {2, 5}, {3}, {0}},
		numLinks: 6,
		initial:  ids(4, 5),
		steps:    []step{{up: ids(4, 5)}, {down: ids(5)}, {down: ids(4), up: ids(5)}},
		wantLens: []int{1, 2, 1},
	}, {
		name:     "intra-step flap beside a real down",
		rows:     [][]topo.LinkID{{0}, {1}, {0, 1, 2}, {3}},
		numLinks: 4,
		steps:    []step{{down: ids(2, 3), up: ids(2)}, {down: ids(0), up: ids(0, 3)}},
		wantLens: []int{1, 2},
	}, {
		// Row 1 is the only row through link 2 and is dead while 1 is down;
		// link 3 has no rows at all.
		name:     "links with no active rows",
		rows:     [][]topo.LinkID{{0}, {1, 2}},
		numLinks: 4,
		initial:  ids(1),
		steps:    []step{{down: ids(2)}, {down: ids(3)}, {up: ids(1, 2, 3)}, {down: ids(0)}},
		wantLens: []int{1, 1, 2, 1},
	}, {
		name:     "an empty row belongs to no component",
		rows:     [][]topo.LinkID{{}, {0, 1}, {}, {1, 2}},
		numLinks: 3,
		steps:    []step{{down: ids(1)}, {up: ids(1)}},
		wantLens: []int{0, 1},
	}} {
		csr := NewCSR(tc.rows)
		inc := mustIncremental(t, csr, tc.numLinks, tc.initial)
		for i, st := range tc.steps {
			if _, err := inc.Apply(st.down, st.up); err != nil {
				t.Fatalf("%s: step %d: %v", tc.name, i, err)
			}
			assertKernelClean(t, inc.kern)
			cur := inc.Down()
			if want := DecomposeMasked(csr, tc.numLinks, cur); !equalComps(inc.Components(), want) {
				t.Fatalf("%s: step %d: differ %+v, oracle %+v", tc.name, i, inc.Components(), want)
			}
			if fresh := mustIncremental(t, csr, tc.numLinks, cur); !equalComps(inc.Components(), fresh.Components()) {
				t.Fatalf("%s: step %d: differ %+v, fresh differ %+v", tc.name, i, inc.Components(), fresh.Components())
			}
			if got := len(inc.Components()); got != tc.wantLens[i] {
				t.Fatalf("%s: step %d: %d components, want %d", tc.name, i, got, tc.wantLens[i])
			}
		}
	}
}

// addedRegion is what Apply's local rebuild was handed: the rows and the
// live links of the components it added, ascending.
func addedRegion(d Diff) (rows, live []int32) {
	for _, c := range d.Added {
		rows = c.Paths.Append(rows)
		for _, l := range c.Links {
			live = append(live, int32(l))
		}
	}
	slices.Sort(rows)
	slices.Sort(live)
	return rows, live
}

// TestIncrementalSplitFallsBack: a down link that really splits its
// component leaves rows that never connect the region, so the rebuild runs
// the full kernel, which finds the two halves.
func TestIncrementalSplitFallsBack(t *testing.T) {
	// A ring of links 0-1-2-3, one row per edge, each row with a handle
	// link (10..13) of its own to take it down: one cut edge leaves a
	// chain, a second one splits it.
	csr := NewCSR([][]topo.LinkID{{0, 1, 10}, {1, 2, 11}, {2, 3, 12}, {3, 0, 13}})
	inc := mustIncremental(t, csr, 14, nil)
	for _, step := range []struct {
		down  topo.LinkID
		split bool
	}{{10, false}, {12, true}} {
		diff, err := inc.Apply([]topo.LinkID{step.down}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, live := addedRegion(diff)
		if got := inc.kern.connects(csr, rows, live); got == step.split {
			t.Fatalf("link %d down: the region's rows connect it = %v, want %v", step.down, got, !step.split)
		}
		assertKernelClean(t, inc.kern)
		if want := DecomposeMasked(csr, 14, inc.Down()); !equalComps(inc.Components(), want) {
			t.Fatalf("link %d down: differ %+v, oracle %+v", step.down, inc.Components(), want)
		}
	}
	if got := len(inc.Components()); got != 2 {
		t.Fatalf("%d components after the split, want 2", got)
	}
}

// TestIncrementalFlapExitsEarly: on a Fattree(8) flap the dirty region is
// still one component, and a short prefix of its rows already proves it —
// the rebuild stops there instead of unioning every row.
func TestIncrementalFlapExitsEarly(t *testing.T) {
	f := topo.MustFattree(8)
	csr := MaterializeCSR(NewFattreePaths(f))
	inc := mustIncremental(t, csr, f.NumLinks(), nil)
	for _, l := range f.SwitchLinks()[:16] {
		for _, step := range [][2][]topo.LinkID{{{l}, nil}, {nil, {l}}} {
			diff, err := inc.Apply(step[0], step[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(diff.Added) != 1 {
				t.Fatalf("link %d: %d components added, want 1", l, len(diff.Added))
			}
			rows, live := addedRegion(diff)
			// The shortest prefix that connects the region.
			n := sort.Search(len(rows), func(i int) bool { return inc.kern.connects(csr, rows[:i+1], live) })
			assertKernelClean(t, inc.kern)
			if n == len(rows) || n > len(rows)/4 {
				t.Fatalf("link %d: %d of %d rows connect the region; the early exit saves too little", l, n+1, len(rows))
			}
		}
		if want := DecomposeCSR(csr, f.NumLinks()); !equalComps(inc.Components(), want) {
			t.Fatalf("link %d flapped: differ diverges from the pristine decomposition", l)
		}
	}
}

// TestUpFlapRestoresPristineComponent: a link coming back up hands on the
// pristine component it restores, span and all, not a list of its rows;
// the down step's component, which lost rows, is a list.
func TestUpFlapRestoresPristineComponent(t *testing.T) {
	f := topo.MustFattree(8)
	inc := mustIncremental(t, MaterializeCSR(NewFattreePaths(f)), f.NumLinks(), nil)
	for _, l := range f.SwitchLinks()[:8] {
		down, err := inc.Apply([]topo.LinkID{l}, nil)
		if err != nil {
			t.Fatal(err)
		}
		up, err := inc.Apply(nil, []topo.LinkID{l})
		if err != nil {
			t.Fatal(err)
		}
		if len(down.Added) != 1 || down.Added[0].Paths.span() || len(up.Added) != 1 || !up.Added[0].Paths.span() {
			t.Fatalf("link %d: the down step added %d components, the up step %d, want one list and one span",
				l, len(down.Added), len(up.Added))
		}
		ci := inc.pristine.CompOf(l)
		if p := inc.pristine.Comps[ci]; &up.Added[0].Links[0] != &p.Links[0] || !reflect.DeepEqual(up.Added[0].Paths, p.Paths) {
			t.Fatalf("link %d: the up step added a copy of pristine component %d, not the component", l, ci)
		}
	}
}

// TestFlapStoresNothingPerCandidate: one switch link of Fattree(16) going
// down, over 1 040 384 candidate rows, allocates under 1 MB, its
// component's first touch included: the differ keeps no per-row state, and
// the rows through the link are generated, not indexed. A count of 4 B per
// candidate alone would be 4 MB here; what the step does allocate is the
// rebuilt component's row list, 4 B per row of the one component.
func TestFlapStoresNothingPerCandidate(t *testing.T) {
	f := topo.MustFattree(16)
	inc := mustIncremental(t, MaterializeCSR(NewFattreePaths(f)), f.NumLinks(), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	diff, err := inc.Apply([]topo.LinkID{f.SwitchLinks()[0]}, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if diff.IndexTime == 0 || len(diff.DeactivatedRows) == 0 {
		t.Fatalf("the flap was not its component's first touch (%v) or deactivated no row", diff.IndexTime)
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("one flap allocated %.2f MB", alloc)
	if alloc >= 1 {
		t.Fatalf("one flap allocated %.2f MB, want under 1 MB", alloc)
	}
}

// BenchmarkIncrementalApplyFattree16 times the topology diff alone: one
// switch link down and back up on the 1.04 M-row Fattree(16) matrix, a
// different link each iteration. down-ms / up-ms are the means per call —
// the stage a churn convergence pays before any construction starts. A
// component's first flap also counts its links' active rows; every
// component takes one before the timer starts, so the timed flaps are
// warm, and first-touch-ms is that count's mean.
func BenchmarkIncrementalApplyFattree16(b *testing.B) {
	f := topo.MustFattree(16)
	inc := mustIncremental(b, MaterializeCSR(NewFattreePaths(f)), f.NumLinks(), nil)
	comps := inc.pristine.Comps
	var first time.Duration
	for _, c := range comps {
		l := []topo.LinkID{c.Links[0]}
		diff, err := inc.Apply(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Apply(nil, l); err != nil {
			b.Fatal(err)
		}
		first += diff.IndexTime
	}
	links := f.SwitchLinks()
	var down, up time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := []topo.LinkID{links[i%len(links)]}
		t0 := time.Now()
		if _, err := inc.Apply(l, nil); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := inc.Apply(nil, l); err != nil {
			b.Fatal(err)
		}
		down += t1.Sub(t0)
		up += time.Since(t1)
	}
	b.ReportMetric(float64(first.Microseconds())/1000/float64(len(comps)), "first-touch-ms")
	b.ReportMetric(float64(down.Microseconds())/1000/float64(b.N), "down-ms")
	b.ReportMetric(float64(up.Microseconds())/1000/float64(b.N), "up-ms")
}
