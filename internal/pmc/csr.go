package pmc

import (
	"fmt"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// bitset is a fixed-size bit vector over candidate rows.
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

// compArena is one component's candidate paths as rows of *local* link
// indices, plus an inverted link→rows index over the rows the running
// greedy pass scores. Rows are candidate positions (0..len(pathIDs)-1) in
// ascending global path order, so row order and path-index order agree
// everywhere. A row is loaded — taken through CSR.AppendRow, translated to
// local links and appended to links — only when the greedy is about to read
// it: the orbit pass loads its representatives, selectWithOrbit each orbit
// image it logs, the completion pass every row. Loading stores nothing in
// the matrix, and on a Fattree(16) component the orbit pass reads
// 8 458 rows of 130 048. Once loaded, the greedy loops never call
// PathSet.AppendLinks, never translate a global link id, and never touch a
// map: scoring walks links[start[r]:end[r]], and dirty propagation walks
// invRows[invOff[l]:invOff[l+1]].
//
// Only rows whose cached score a pass reads need to be reachable through
// the inverted index — the orbit pass scores images fresh — so index covers
// the pass's candidates, not the component.
type compArena struct {
	pathIDs    route.Paths // row -> global path index (== Component.Paths)
	start, end []int32     // a loaded row r spans links[start[r]:end[r]]
	loaded     bitset
	links      []int32 // local link indices of the loaded rows, in load order
	numLocal   int
	invOff     []int32 // local link -> start into invRows; len = numLocal+1
	invRows    []int32 // indexed rows through each link, ascending within a link
	indexed    int     // rows in the inverted index

	// The load context. err is the first row that left its component.
	csr     *route.CSR
	comp    *route.Component
	localOf []int32
	buf     []topo.LinkID
	err     error
}

// newArena starts an arena over comp's rows of csr with none loaded.
// localOf must translate comp's links.
func newArena(csr *route.CSR, comp *route.Component, localOf []int32) *compArena {
	n := comp.Paths.Len()
	return &compArena{
		pathIDs:  comp.Paths,
		start:    make([]int32, n),
		end:      make([]int32, n),
		loaded:   newBitset(n),
		numLocal: len(comp.Links),
		csr:      csr,
		comp:     comp,
		localOf:  localOf,
	}
}

func (a *compArena) numRows() int { return a.pathIDs.Len() }

func (a *compArena) row(r int32) []int32 {
	return a.links[a.start[r]:a.end[r]]
}

func (a *compArena) rowsThrough(l int32) []int32 {
	return a.invRows[a.invOff[l]:a.invOff[l+1]]
}

// load loads row r unless it is loaded already. A path with a link outside
// the component means the caller's partition does not match the matrix: it
// is recorded in err and the row left empty, so the greedy runs on and its
// caller reports it.
func (a *compArena) load(r int32) {
	if a.loaded.get(r) {
		return
	}
	a.loaded.set(r)
	pid := a.pathIDs.At(int(r))
	a.buf = a.csr.AppendRow(int(pid), a.buf[:0])
	at := int32(len(a.links))
	a.start[r], a.end[r] = at, at
	for _, gl := range a.buf {
		li := a.localOf[gl]
		if !owns(a.comp, li, gl) {
			if a.err == nil {
				a.err = fmt.Errorf("pmc: path %d leaves its component (link %d)", pid, gl)
			}
			a.links = a.links[:at]
			return
		}
		a.links = append(a.links, li)
	}
	a.end[r] = int32(len(a.links))
}

// loadRows loads the given rows and reports the first that left the
// component.
func (a *compArena) loadRows(rows []int32) error {
	for _, r := range rows {
		a.load(r)
	}
	return a.err
}

// loadAll loads every row and reports the first that left the component.
func (a *compArena) loadAll() error {
	for r := range a.pathIDs.Len() {
		a.load(int32(r))
	}
	return a.err
}

// owns reports whether global link gl is comp's own, at local index li.
// localOf is shared by every component of a request: an index that is not
// this component's is another one's.
func owns(comp *route.Component, li int32, gl topo.LinkID) bool {
	return li >= 0 && int(li) < len(comp.Links) && comp.Links[li] == gl
}

// index rebuilds the inverted index over rows (ascending) with a counting
// sort: one pass to size, one prefix sum, one pass to fill.
func (a *compArena) index(rows []int32) {
	numLocal := a.numLocal
	a.indexed = len(rows)
	a.invOff = make([]int32, numLocal+1)
	for _, r := range rows {
		for _, li := range a.row(r) {
			a.invOff[li+1]++
		}
	}
	for l := 0; l < numLocal; l++ {
		a.invOff[l+1] += a.invOff[l]
	}
	a.invRows = make([]int32, a.invOff[numLocal])
	fill := make([]int32, numLocal)
	copy(fill, a.invOff[:numLocal])
	for _, r := range rows {
		for _, li := range a.row(r) {
			a.invRows[fill[li]] = r
			fill[li]++
		}
	}
}
