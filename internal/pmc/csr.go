package pmc

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// bitset is a fixed-size bit vector over rows or candidate positions.
type bitset []uint64

func newBitset(n int) bitset      { return make(bitset, (n+63)/64) }
func (b bitset) get(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << uint(i&63) }

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// appendSet appends the positions set in b to dst, ascending.
func (b bitset) appendSet(dst []int32) []int32 {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// compArena is one component's candidate paths as rows of *local* link
// indices, plus an inverted link→positions index over the running greedy
// pass's candidates. A row is loaded — taken through CSR.AppendRow,
// translated to local links and appended to links — only when the greedy
// is about to read it, and it takes the next slot. Loading stores nothing
// in the matrix. Once a row is loaded, scoring and dirty propagation never
// call PathSet.AppendLinks, never translate a global link id, and never
// touch a map: scoring walks links[start[p]:end[p]], and dirty propagation
// walks invPos[invOff[l]:invOff[l+1]].
//
// Every array is sized by the rows loaded, not by the component's rows.
// The running pass's candidates sit at slots 0..ncand-1, their rows
// ascending, so a candidate's slot is its position in the pass: the orbit
// pass loads its representatives first, and each orbit image it logs takes
// a slot after them, found again through extra. On a Fattree(16)
// component the orbit pass loads 8 458 rows of 130 048. The completion
// pass reads every row, so loadAll lays the arena out with every row at
// the slot of its own number.
type compArena struct {
	pathIDs    route.Paths     // row -> global path index (== Component.Paths)
	rowOf      []int32         // slot -> row
	ncand      int             // slots 0..ncand-1 hold the pass's candidates, rows ascending
	extra      map[int32]int32 // row -> slot of each loaded row past the candidates
	start, end []int32         // slot p spans links[start[p]:end[p]]
	links      []int32         // local link indices of the loaded rows, in load order
	numLocal   int
	invOff     []int32 // local link -> start into invPos; len = numLocal+1
	invPos     []int32 // candidate positions through each link, ascending within a link

	// The load context. err is the first row that left its component. buf
	// is never reassigned: a row longer than it is generated into a new
	// slice.
	csr     *route.CSR
	comp    *route.Component
	localOf []int32
	buf     []topo.LinkID
	err     error
}

// newArena starts an arena over comp's rows of csr with none loaded.
// localOf must translate comp's links.
func newArena(csr *route.CSR, comp *route.Component, localOf []int32) *compArena {
	return &compArena{
		pathIDs:  comp.Paths,
		numLocal: len(comp.Links),
		csr:      csr,
		comp:     comp,
		localOf:  localOf,
		buf:      make([]topo.LinkID, 0, 16),
	}
}

func (a *compArena) numRows() int { return a.pathIDs.Len() }

// row is the local links of slot p.
func (a *compArena) row(p int32) []int32 {
	return a.links[a.start[p]:a.end[p]]
}

func (a *compArena) posThrough(l int32) []int32 {
	return a.invPos[a.invOff[l]:a.invOff[l+1]]
}

// slot is row r's slot, -1 when r is not loaded.
func (a *compArena) slot(r int32) int32 {
	if i, ok := slices.BinarySearch(a.rowOf[:a.ncand], r); ok {
		return int32(i)
	}
	if p, ok := a.extra[r]; ok {
		return p
	}
	return -1
}

// loadCands loads rows, ascending, as the candidates of the pass about to
// run, at slots 0..len(rows)-1. The arena must be empty. It reports the
// first row that left the component.
func (a *compArena) loadCands(rows []int32) error {
	if len(rows) > 0 {
		// Room for the orbit images too, a sixteenth of the candidates.
		n := len(rows) + len(rows)/16
		a.links = slices.Grow(a.links, n*a.roomFor(rows[0]))
		a.rowOf = make([]int32, 0, n)
		a.start, a.end = make([]int32, 0, n), make([]int32, 0, n)
	}
	a.push(rows...)
	a.ncand = len(rows)
	return a.err
}

// load loads row r unless it is loaded already, and returns its slot.
func (a *compArena) load(r int32) int32 {
	if p := a.slot(r); p >= 0 {
		return p
	}
	if a.extra == nil {
		a.extra = make(map[int32]int32)
	}
	a.push(r)
	p := int32(len(a.rowOf) - 1)
	a.extra[r] = p
	return p
}

// loadAll makes every row a candidate at the slot of its own number,
// keeping the rows already loaded, and reports the first row that left the
// component.
func (a *compArena) loadAll() error {
	n := a.numRows()
	start, end := make([]int32, n), make([]int32, n)
	loaded := newBitset(n)
	for p, r := range a.rowOf {
		start[r], end[r] = a.start[p], a.end[p]
		loaded.set(r)
	}
	links := a.links
	if n > len(a.rowOf) {
		links = slices.Grow(links, (n-len(a.rowOf))*a.roomFor(0))
	}
	for r := range int32(n) {
		if !loaded.get(r) {
			start[r] = int32(len(links))
			links = a.appendRow(links, r)
			end[r] = int32(len(links))
		}
	}
	a.rowOf, a.start, a.end, a.links, a.extra = ascending(n), start, end, links, nil
	a.ncand = n
	return a.err
}

// roomFor is the room in links a row takes, judged from row r: its length
// plus one, as a family's paths differ in length by a link or so. A longer
// row still fits, by growing links.
func (a *compArena) roomFor(r int32) int {
	return len(a.csr.AppendRow(int(a.pathIDs.At(int(r))), a.buf[:0])) + 1
}

// push loads rows into the next slots. It writes the arena's slices back
// once, so a row loaded while the collector marks pays no write barrier.
func (a *compArena) push(rows ...int32) {
	rowOf, start, end, links := a.rowOf, a.start, a.end, a.links
	for _, r := range rows {
		rowOf, start = append(rowOf, r), append(start, int32(len(links)))
		links = a.appendRow(links, r)
		end = append(end, int32(len(links)))
	}
	a.rowOf, a.start, a.end, a.links = rowOf, start, end, links
}

// appendRow appends row r's local links to links. A path with a link
// outside the component means the caller's partition does not match the
// matrix: it is recorded in err and the row left empty, so the greedy runs
// on and its caller reports it.
func (a *compArena) appendRow(links []int32, r int32) []int32 {
	pid := a.pathIDs.At(int(r))
	out, err := appendLocal(links, a.comp, a.localOf, pid, a.csr.AppendRow(int(pid), a.buf[:0]))
	if err != nil {
		if a.err == nil {
			a.err = err
		}
		return links
	}
	return out
}

// checkAll generates every row of the component, storing none, and
// reports the first that leaves it.
func (a *compArena) checkAll() error {
	var local []int32
	w := a.pathIDs.Walk()
	for range a.numRows() {
		pid := w.Next()
		var err error
		if local, err = appendLocal(local[:0], a.comp, a.localOf, pid, a.csr.AppendRow(int(pid), a.buf[:0])); err != nil {
			return err
		}
	}
	return nil
}

// appendLocal appends to dst the local indices of path pid's links, row,
// and fails if one of them is not comp's.
func appendLocal(dst []int32, comp *route.Component, localOf []int32, pid int32, row []topo.LinkID) ([]int32, error) {
	for _, gl := range row {
		li := localOf[gl]
		if !owns(comp, li, gl) {
			return dst, fmt.Errorf("pmc: path %d leaves its component (link %d)", pid, gl)
		}
		dst = append(dst, li)
	}
	return dst, nil
}

// owns reports whether global link gl is comp's own, at local index li.
// localOf is shared by every component of a request: an index that is not
// this component's is another one's.
func owns(comp *route.Component, li int32, gl topo.LinkID) bool {
	return li >= 0 && int(li) < len(comp.Links) && comp.Links[li] == gl
}

// index rebuilds the inverted index over the candidate positions with a
// counting sort: one pass to size, one prefix sum, one pass to fill.
func (a *compArena) index() {
	numLocal := a.numLocal
	a.invOff = make([]int32, numLocal+1)
	for p := range int32(a.ncand) {
		for _, li := range a.row(p) {
			a.invOff[li+1]++
		}
	}
	for l := 0; l < numLocal; l++ {
		a.invOff[l+1] += a.invOff[l]
	}
	a.invPos = make([]int32, a.invOff[numLocal])
	fill := make([]int32, numLocal)
	copy(fill, a.invOff[:numLocal])
	for p := range int32(a.ncand) {
		for _, li := range a.row(p) {
			a.invPos[fill[li]] = p
			fill[li]++
		}
	}
}
