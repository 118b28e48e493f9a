package pmc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// perComponentOracle solves every component alone, so no component can
// reuse another's rows, and merges the selections. It solves with
// refSolve, which keeps no arena, score cache or bucket queue, so every
// check against it is also a differential between that reference and the
// engine construction runs. A masked component is repaired, as
// construction does, over arenas that hold every row they are offered.
func perComponentOracle(t testing.TB, ps route.PathSet, csr *route.CSR, comps []route.Component, numLinks int, opt Options) []int {
	t.Helper()
	pristine := csr.Pristine(numLinks)
	localOf := make([]int32, numLinks)
	var sel []int
	for i := range comps {
		c := &comps[i]
		if p := pristine.Parent(c); p >= 0 && c.Paths.Len() < pristine.Comps[p].Paths.Len() {
			res, err := ConstructComponents(ps, csr, comps[i:i+1], numLinks, opt)
			if err != nil {
				t.Fatalf("component %d alone: %v", i, err)
			}
			sel = append(sel, res.Selected...)
			continue
		}
		sym, err := prepareComponents(ps, comps[i:i+1], opt)
		if err != nil {
			t.Fatal(err)
		}
		setLocal(localOf, comps[i:i+1])
		sel = append(sel, refSolve(t, sym, csr, c, localOf, opt).selected...)
	}
	sort.Ints(sel)
	return sel
}

// checkClassReuse constructs comps with class reuse in one call and
// requires the per-component oracle's selection. It returns the run's
// stats.
func checkClassReuse(t testing.TB, ps route.PathSet, csr *route.CSR, comps []route.Component, numLinks int, opt Options) Stats {
	t.Helper()
	want := perComponentOracle(t, ps, csr, comps, numLinks, opt)
	res, err := ConstructComponents(ps, csr, comps, numLinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Selected, want) {
		t.Fatalf("class reuse selected %d paths (hash %#016x), per-component oracle %d (hash %#016x)",
			len(res.Selected), hashSelection(res.Selected), len(want), hashSelection(want))
	}
	return res.Stats
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
func (twinPaths) AppendRepresentatives(paths route.Paths, rows []int32) []int32 {
	return route.AppendWhere(paths, rows, func(i int) bool { return i%4 == 0 })
}
func (twinPaths) AppendOrbit(i int, buf []int) []int {
	if i == 0 {
		return append(buf, 1, 2, 3)
	}
	if i == 4 {
		return append(buf, 7)
	}
	return buf
}

// shiftedReps has twinPaths' rows, but each component's one orbit
// representative sits at another rank, with no other orbit member: A's at
// its first row, B's at its second.
type shiftedReps struct{ twinPaths }

func (shiftedReps) AppendRepresentatives(paths route.Paths, rows []int32) []int32 {
	return route.AppendWhere(paths, rows, func(i int) bool { return i == 0 || i == 5 })
}
func (shiftedReps) AppendOrbit(i int, buf []int) []int { return buf }

// isRep reports whether sym lists path as a representative.
func isRep(sym route.Symmetric, path int32) bool {
	return len(sym.AppendRepresentatives(route.PathList([]int32{path}), nil)) == 1
}

// TestClassCheckComparesRepresentatives: components that match row for row
// but whose representatives sit at other ranks are not one class — the
// orbit pass would offer them other rows — whether the check compares the
// leader's reads or every row.
func TestClassCheckComparesRepresentatives(t *testing.T) {
	ps := shiftedReps{}
	csr := route.MaterializeCSR(ps)
	comps := route.DecomposeCSR(csr, 6)
	localOf := make([]int32, 6)
	e := leaderEntry(t, ps, csr, comps, localOf, Options{Alpha: 1, Beta: 1})
	for _, every := range []bool{false, true} {
		if ok, _ := e.compare(csr, ps, &comps[1], localOf, every); ok {
			t.Fatalf("every=%v: a component with its representative at another rank joined the class", every)
		}
	}
}

// TestOrbitReplayRejectsFalseTwins: components whose rows read alike but
// answer an orbit query differently are not one class. The replay must refuse the
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
	for r := range comps[0].Paths.Len() {
		a := csr.AppendRow(int(comps[0].Paths.At(r)), nil)
		b := csr.AppendRow(int(comps[1].Paths.At(r)), nil)
		if !slices.EqualFunc(a, b, func(x, y topo.LinkID) bool { return localOf[x] == localOf[y] }) {
			t.Fatal("the twins' rows must read alike for the test to reach the replay")
		}
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
// component alone.
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
		for r, p := range c.Paths.Append(nil) {
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
		t.Fatalf("three components of two classes solved as %d classes, want 2", st.Classes)
	}
}

// FuzzClassReuse: on seeded Fattree(6/8) down-masks, and on the
// same-shape/different-content matrix of shapeRows, construction with
// class reuse selects exactly what solving each component alone over an
// arena of every row does (perComponentOracle). A nonzero reverse reverses
// the links of one row first, read by the leader or not, so a class check
// that compares too few rows, or an arena that loads too few, shows as a
// wrong reuse.
func FuzzClassReuse(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1), uint16(0))
	f.Add(uint8(1), uint8(2), int64(7), uint16(0))
	f.Add(uint8(0), uint8(4), int64(42), uint16(0))
	f.Add(uint8(1), uint8(0), int64(3), uint16(0))
	f.Add(uint8(2), uint8(0), int64(1), uint16(0))
	f.Add(uint8(1), uint8(0), int64(1), uint16(900))
	f.Add(uint8(0), uint8(1), int64(5), uint16(77))
	f.Add(uint8(2), uint8(0), int64(1), uint16(6))
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
	f.Fuzz(func(t *testing.T, which, nDown uint8, seed int64, reverse uint16) {
		fb := fabrics[int(which)%len(fabrics)]
		csr := fb.csr
		if reverse != 0 {
			csr = reversedRow(csr, int32(int(reverse-1)%csr.Len()))
		}
		rng := rand.New(rand.NewSource(seed))
		var down []topo.LinkID
		for _, i := range rng.Perm(len(fb.links))[:int(nDown)%5] {
			down = append(down, fb.links[i])
		}
		comps := route.DecomposeMasked(csr, fb.numLinks, down)
		checkClassReuse(t, fb.ps, csr, comps, fb.numLinks, Options{Alpha: 3, Beta: 1})
	})
}

// leaderEntry solves comps[0] alone and returns its class entry, with
// localOf translating comps' links.
func leaderEntry(t testing.TB, sym route.Symmetric, csr *route.CSR, comps []route.Component, localOf []int32, opt Options) *classEntry {
	t.Helper()
	setLocal(localOf, comps)
	_, e, err := solveComponent(sym, newArena(csr, &comps[0], localOf), opt, false)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// readRows marks the rows a class check compares when the leader's
// completion pass did not run: its representatives and its orbit images.
func (e *classEntry) readRows() []bool {
	read := make([]bool, e.paths.Len())
	for _, r := range e.reps {
		read[r] = true
	}
	e.eachImage(func(r int32) { read[r] = true })
	return read
}

// reversedRow copies csr with the links of one path in reverse order: the
// same link set, read differently by a check that compares the row.
func reversedRow(csr *route.CSR, path int32) *route.CSR {
	rows := make([][]topo.LinkID, csr.Len())
	for i := range rows {
		rows[i] = csr.AppendRow(i, nil)
	}
	slices.Reverse(rows[path])
	return route.NewCSR(rows)
}

// TestClassCheckComparesWhatTheLeaderRead: a follower row the leader's
// greedy never read may differ without splitting the class, and the
// reuse still equals solving the follower alone; a representative row
// that differs splits it, and so does any row under NoSymmetry, where the
// completion pass reads every row.
func TestClassCheckComparesWhatTheLeaderRead(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	base := route.MaterializeCSR(ps)
	comps := base.Pristine(f.NumLinks()).Comps
	opt := Options{Alpha: 3, Beta: 1}
	e := leaderEntry(t, ps, base, comps, make([]int32, f.NumLinks()), opt)
	if e.full {
		t.Fatal("the orbit pass left a pristine Fattree(8) component unfinished")
	}
	read := e.readRows()
	unread := int32(slices.Index(read, false))
	if unread < 0 {
		t.Fatal("the leader read every row; nothing to alter unread")
	}
	rep := e.reps[len(e.reps)-1]
	for _, tc := range []struct {
		name    string
		row     int32
		opt     Options
		classes int
	}{
		{"unread-row", unread, opt, 1},
		{"representative-row", rep, opt, 2},
		{"unread-row/no-symmetry", unread, Options{Alpha: 3, Beta: 1, Ablate: NoSymmetry}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csr := reversedRow(base, comps[1].Paths.At(int(tc.row)))
			if st := checkClassReuse(t, ps, csr, csr.Pristine(f.NumLinks()).Comps, f.NumLinks(), tc.opt); st.Classes != tc.classes {
				t.Fatalf("row %d of component 1 reversed: %d classes solved, want %d", tc.row, st.Classes, tc.classes)
			}
		})
	}
}

// TestClassCheckRefusesForeignRows: a member with the leader's shape that
// is not a pristine component gets every row checked. Its one unread row,
// swapped for a path of another component, passes the check of the
// leader's reads alone, but construction still reports the path leaving
// its component and reuses nothing.
func TestClassCheckRefusesForeignRows(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	pristine := csr.Pristine(f.NumLinks())
	comps := pristine.Comps
	opt := Options{Alpha: 3, Beta: 1}
	localOf := make([]int32, f.NumLinks())
	e := leaderEntry(t, ps, csr, comps, localOf, opt)
	bad := swapUnreadRow(t, ps, e.readRows(), comps[1], comps[2])

	two := []route.Component{comps[0], bad}
	setLocal(localOf, two)
	if ok, _ := e.compare(csr, ps, &bad, localOf, false); !ok {
		t.Fatal("the swapped row is read by the leader; the test cannot tell the every-row check from the other")
	}
	if !e.everyRow(&bad, pristine) || e.matches(csr, ps, &bad, localOf, pristine) {
		t.Fatal("a component that is not pristine was checked on the leader's reads only")
	}
	_, err := ConstructComponents(ps, csr, two, f.NumLinks(), opt)
	if err == nil || !strings.Contains(err.Error(), "leaves its component") {
		t.Fatalf("construct err = %v, want a path leaving its component", err)
	}
}

// swapUnreadRow returns a copy of c with one row the leader did not read
// replaced by a path of other that keeps Paths ascending and the row's
// representative flag.
func swapUnreadRow(t testing.TB, sym route.Symmetric, read []bool, c, other route.Component) route.Component {
	t.Helper()
	paths, others := c.Paths.Append(nil), other.Paths.Append(nil)
	for r := len(paths) - 1; r >= 0; r-- {
		if read[r] {
			continue
		}
		lo, hi := int32(-1), int32(1<<31-1)
		if r > 0 {
			lo = paths[r-1]
		}
		if r+1 < len(paths) {
			hi = paths[r+1]
		}
		i, _ := slices.BinarySearch(others, lo+1)
		for ; i < len(others) && others[i] < hi; i++ {
			q := others[i]
			if isRep(sym, q) == isRep(sym, paths[r]) {
				paths[r] = q
				return route.Component{Links: c.Links, Paths: route.PathList(paths)}
			}
		}
	}
	t.Fatal("no unread row can take another component's path in order")
	return route.Component{}
}

// countingFattree is a Fattree family that counts the rows its matrix
// generates.
type countingFattree struct {
	*route.FattreePaths
	rows *atomic.Int64
}

func (c countingFattree) AppendLinks(i int, buf []topo.LinkID) []topo.LinkID {
	c.rows.Add(1)
	return c.FattreePaths.AppendLinks(i, buf)
}

// TestClassCheckGeneratesOnlyFollowerRows: a pristine follower's class
// check generates one row per row it compares — the follower's; the
// leader's come from what its entry kept — and the leader's reads the
// entry keeps are sized by the rows the leader loaded, not by its
// component's rows.
func TestClassCheckGeneratesOnlyFollowerRows(t *testing.T) {
	f := topo.MustFattree(16)
	var generated atomic.Int64
	ps := countingFattree{route.NewFattreePaths(f), &generated}
	csr := route.MaterializeCSR(ps)
	pristine := csr.Pristine(f.NumLinks())
	comps := pristine.Comps
	localOf := make([]int32, f.NumLinks())
	setLocal(localOf, comps)
	ar := newArena(csr, &comps[0], localOf)
	_, e, err := solveComponent(ps, ar, Options{Alpha: 3, Beta: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	loaded, longest := 0, 0
	for r := range int32(comps[0].Paths.Len()) {
		if p := ar.slot(r); p >= 0 {
			loaded++
			longest = max(longest, len(ar.row(p)))
		}
	}
	kept := 4 * (cap(e.readLinks) + cap(e.readEnd))
	if bound := 4 * loaded * (longest + 2); kept >= bound {
		t.Fatalf("the entry keeps %d bytes of the leader's reads, want < %d (%d rows loaded, longest %d links)", kept, bound, loaded, longest)
	}
	t.Logf("the entry keeps %d bytes of the leader's reads: %d rows loaded of %d", kept, loaded, comps[0].Paths.Len())
	for ci := 1; ci < len(comps); ci++ {
		c := &comps[ci]
		if e.everyRow(c, pristine) {
			t.Fatalf("follower %d is checked on every row", ci)
		}
		generated.Store(0)
		ok, compared := e.compare(csr, ps, c, localOf, false)
		if !ok {
			t.Fatalf("follower %d fails its class check", ci)
		}
		if g := generated.Load(); g != int64(compared) {
			t.Fatalf("follower %d: %d rows generated for %d compared", ci, g, compared)
		}
	}
}

// BenchmarkClassCheckFattree16 checks the 7 class followers of a pristine
// Fattree(16) (3,1) against their leader's entry, as solveClasses does, and
// reports the rows whose links the checks compared and the rows they
// generated: the leader's representatives and orbit images for a pristine
// member, each generated once, the follower's; every row when the check is
// forced to read them all, as for a component from outside the matrix's
// pristine decomposition, where the leader's rows are generated too. The
// rows are counted in one pass before the timer, so the timed checks run
// on the uncounted family.
func BenchmarkClassCheckFattree16(b *testing.B) {
	f := topo.MustFattree(16)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	var generated atomic.Int64
	counted := route.MaterializeCSR(countingFattree{ps, &generated})
	pristine := csr.Pristine(f.NumLinks())
	comps := pristine.Comps
	localOf := make([]int32, f.NumLinks())
	e := leaderEntry(b, ps, csr, comps, localOf, Options{Alpha: 3, Beta: 1})
	for _, bc := range []struct {
		name  string
		every func(*route.Component) bool
	}{
		{"pristine", func(c *route.Component) bool { return e.everyRow(c, pristine) }},
		{"every-row", func(*route.Component) bool { return true }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			checkAll := func(csr *route.CSR) (rows int) {
				for ci := 1; ci < len(comps); ci++ {
					ok, n := e.compare(csr, ps, &comps[ci], localOf, bc.every(&comps[ci]))
					if !ok {
						b.Fatalf("follower %d fails its class check", ci)
					}
					rows += n
				}
				return rows
			}
			generated.Store(0)
			rows := checkAll(counted)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checkAll(csr)
			}
			b.ReportMetric(float64(rows), "rows-compared")
			b.ReportMetric(float64(generated.Load()), "rows-generated")
		})
	}
}
