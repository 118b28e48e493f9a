package pmc

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/detector-net/detector/internal/refine"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// refResult is what the reference greedy decides for one component.
type refResult struct {
	selected []int   // global path ids, ascending
	orbit    []int32 // the orbit log, as componentState.orbitLog
	reseeds  int
	full     bool // the completion pass ran
}

// refSolve is the reference for solveComponent: the two passes of the PMC
// greedy written as their definition reads, indexed by row. It keeps no
// arena, no score cache, no dirty set and no bucket queue. A row's links
// are generated each time it is scored, every pop is rescored, and the
// queue is a container/heap keyed by (score, row).
//
// The lazy greedy is the seeded one. Every unselected candidate of a pass
// starts in the queue at score -1, and a seed whose row gets selected
// leaves the queue at once. A popped row that is selected already is
// dropped. Otherwise it is rescored and parked without a marginal gain,
// selected when its fresh score is at most the queue's minimum, and pushed
// back at that score if not. When the queue drains, parked rows with a
// gain again are pushed back (a reseed).
func refSolve(t testing.TB, sym route.Symmetric, csr *route.CSR, comp *route.Component, localOf []int32, opt Options) refResult {
	t.Helper()
	n := comp.Paths.Len()
	g := &refGreedy{
		opt:      opt,
		csr:      csr,
		comp:     comp,
		localOf:  localOf,
		w:        make([]int32, len(comp.Links)),
		part:     refine.MustPartition(len(comp.Links), opt.Beta),
		selected: make([]bool, n),
		seedOf:   make([]*refEntry, n),
	}
	if opt.Alpha > 0 {
		g.uncovered = len(comp.Links)
	}
	var res refResult
	if sym != nil {
		g.sym = sym
		res.reseeds += g.pass(sym.AppendRepresentatives(comp.Paths, nil))
		g.sym = nil
	}
	res.full = sym == nil || !g.done()
	if !g.done() {
		res.reseeds += g.pass(ascending(n))
	}
	if g.err != nil {
		t.Fatal(g.err)
	}
	for r, s := range g.selected {
		if s {
			res.selected = append(res.selected, int(comp.Paths.At(r)))
		}
	}
	res.orbit = g.orbit
	return res
}

type refGreedy struct {
	opt     Options
	sym     route.Symmetric // set during the orbit pass
	csr     *route.CSR
	comp    *route.Component
	localOf []int32

	w         []int32
	part      *refine.Partition
	uncovered int
	selected  []bool
	orbit     []int32

	q      refQueue
	seedOf []*refEntry // row -> its seed while in the queue
	err    error
}

// links generates row r as local link indices.
func (g *refGreedy) links(r int32) []int32 {
	pid := g.comp.Paths.At(int(r))
	row, err := appendLocal(nil, g.comp, g.localOf, pid, g.csr.AppendRow(int(pid), nil))
	if err != nil && g.err == nil {
		g.err = err
	}
	return row
}

func (g *refGreedy) done() bool {
	return g.uncovered == 0 && (g.opt.Beta == 0 || g.part.Done())
}

// score is Eq. 1 for row r and whether selecting it makes progress.
func (g *refGreedy) score(r int32) (int32, bool) {
	row := g.links(r)
	var sum int32
	covers := false
	for _, li := range row {
		sum += g.w[li]
		if g.w[li] < int32(g.opt.Alpha) {
			covers = true
		}
	}
	gain := int32(0)
	if g.opt.Beta >= 1 {
		gain = int32(g.part.CountSplittable(row))
	}
	return sum - gain, covers || gain > 0
}

// take selects row r, and drops its seed if the queue still holds it.
func (g *refGreedy) take(r int32) {
	row := g.links(r)
	for _, li := range row {
		g.w[li]++
		if int(g.w[li]) == g.opt.Alpha {
			g.uncovered--
		}
	}
	if g.opt.Beta >= 1 {
		g.part.Split(row)
	}
	g.selected[r] = true
	if e := g.seedOf[r]; e != nil {
		heap.Remove(&g.q, e.i)
		g.seedOf[r] = nil
	}
}

// pick selects row r and, in the orbit pass, every image of it in the
// component that still has a marginal gain, logging the images.
func (g *refGreedy) pick(r int32) {
	g.take(r)
	if g.sym == nil {
		return
	}
	imgs := g.sym.AppendOrbit(int(g.comp.Paths.At(int(r))), nil)
	g.orbit = append(g.orbit, r, 0)
	head := len(g.orbit)
	for _, img := range imgs {
		ir := g.comp.Paths.Find(int32(img))
		if ir < 0 {
			continue
		}
		g.orbit = append(g.orbit, ir)
		if g.selected[ir] {
			continue
		}
		if _, m := g.score(ir); m {
			g.take(ir)
		}
	}
	g.orbit[head-1] = int32(len(g.orbit) - head)
}

func (g *refGreedy) pass(cands []int32) (reseeds int) {
	g.q = g.q[:0]
	for _, r := range cands {
		if !g.selected[r] {
			e := &refEntry{s: -1, r: r}
			g.seedOf[r] = e
			heap.Push(&g.q, e)
		}
	}
	var parked []int32
	for !g.done() {
		if g.q.Len() == 0 {
			var keep []int32
			for _, r := range parked {
				if g.selected[r] {
					continue
				}
				if s, m := g.score(r); m {
					heap.Push(&g.q, &refEntry{s: s, r: r})
				} else {
					keep = append(keep, r)
				}
			}
			parked = keep
			if g.q.Len() == 0 {
				return reseeds
			}
			reseeds++
			continue
		}
		e := heap.Pop(&g.q).(*refEntry)
		g.seedOf[e.r] = nil
		if g.selected[e.r] {
			continue
		}
		s, m := g.score(e.r)
		switch {
		case !m:
			parked = append(parked, e.r)
		case g.q.Len() == 0 || s <= g.q[0].s:
			g.pick(e.r)
		default:
			heap.Push(&g.q, &refEntry{s: s, r: e.r})
		}
	}
	for _, e := range g.q {
		g.seedOf[e.r] = nil
	}
	return reseeds
}

type refEntry struct {
	s, r int32
	i    int // index in the heap
}

type refQueue []*refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].s < q[j].s || q[i].s == q[j].s && q[i].r < q[j].r
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].i, q[j].i = i, j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEntry)
	e.i = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// checkAgainstReference requires of solveComponent's result for component
// c what refSolve decides: the same picks, reseeds and orbit log, and
// whether completion ran.
func checkAgainstReference(t *testing.T, sym route.Symmetric, csr *route.CSR, c *route.Component, localOf []int32, opt Options, cr *componentResult, e *classEntry) {
	t.Helper()
	want := refSolve(t, sym, csr, c, localOf, opt)
	if !slices.Equal(cr.selected, want.selected) || cr.reseeds != want.reseeds {
		t.Fatalf("solveComponent: %d paths (hash %#016x), %d reseeds; reference: %d paths (hash %#016x), %d reseeds",
			len(cr.selected), hashSelection(cr.selected), cr.reseeds, len(want.selected), hashSelection(want.selected), want.reseeds)
	}
	if !reflect.DeepEqual(e.orbit, want.orbit) || e.full != want.full {
		t.Fatalf("solveComponent logged %d orbit entries, completion %v; reference %d, %v", len(e.orbit), e.full, len(want.orbit), want.full)
	}
}

// TestLazyGreedyMatchesSeededReference: on small random path sets (no
// shift generator, so only the completion pass runs), solveComponent picks
// what the literal seeded greedy picks. Ties on score are frequent at this
// size, so the drain's last seeded pop is replayed both ways: selected on
// a tie with an earlier row's score, and pushed behind a lower one.
func TestLazyGreedyMatchesSeededReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 600 {
		numLinks := 3 + rng.Intn(10)
		rows := make([][]topo.LinkID, 2+rng.Intn(30))
		for i := range rows {
			for _, l := range rng.Perm(numLinks)[:1+rng.Intn(min(4, numLinks))] {
				rows[i] = append(rows[i], topo.LinkID(l))
			}
		}
		ps := route.NewSlicePathSet(rows, nil)
		csr := route.MaterializeCSR(ps)
		comps := csr.Pristine(numLinks).Comps
		localOf := make([]int32, numLinks)
		setLocal(localOf, comps)
		opt := Options{Alpha: rng.Intn(4), Beta: rng.Intn(3)}
		if opt.Alpha == 0 && opt.Beta == 0 {
			opt.Alpha = 1
		}
		for i := range comps {
			t.Run(fmt.Sprintf("%d/a%db%d/comp%d", trial, opt.Alpha, opt.Beta, i), func(t *testing.T) {
				// Odd trials take a foreign component's path, which checks
				// every row before the greedy.
				cr, e, err := solveComponent(nil, newArena(csr, &comps[i], localOf), opt, trial%2 == 1)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, nil, csr, &comps[i], localOf, opt, cr, e)
			})
		}
	}
}
