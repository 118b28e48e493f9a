package pmc

import (
	"fmt"
	"slices"

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

// compArena is one component's candidate paths flattened into a CSR arena
// of *local* link indices, plus an inverted link→rows index over the rows
// the running greedy pass scores. Rows are candidate positions
// (0..len(pathIDs)-1) in ascending global path order, so row order and
// path-index order agree everywhere. After the arena is built, the greedy
// loops never call PathSet.AppendLinks, never translate a global link id,
// and never touch a map: scoring walks links[offsets[r]:offsets[r+1]], and
// dirty propagation walks invRows[invOff[l]:invOff[l+1]].
//
// Only rows whose cached score a pass reads need to be reachable through
// the inverted index — the orbit pass scores images fresh — so index covers
// the pass's candidates, not the component: on a Fattree that is one row in
// k, and the scatter over the rest is the part of the build that is skipped.
type compArena struct {
	pathIDs  []int32 // row -> global path index (== Component.Paths)
	offsets  []int32 // len(pathIDs)+1; row r spans [offsets[r], offsets[r+1])
	links    []int32 // local link indices, concatenated rows
	linkRows []int32 // local link -> number of component rows through it
	invOff   []int32 // local link -> start into invRows; len = numLocal+1
	invRows  []int32 // indexed rows through each link, ascending within a link
}

func (a *compArena) numRows() int { return len(a.pathIDs) }

func (a *compArena) row(r int32) []int32 {
	return a.links[a.offsets[r]:a.offsets[r+1]]
}

func (a *compArena) rowsThrough(l int32) []int32 {
	return a.invRows[a.invOff[l]:a.invOff[l+1]]
}

// rowOf resolves a global path index to its row in a component's ascending
// Paths by binary search, or -1 when the path is outside the component.
func rowOf(paths []int32, path int32) int32 {
	if r, ok := slices.BinarySearch(paths, path); ok {
		return int32(r)
	}
	return -1
}

// digest fingerprints a component's class in component-local terms: its
// shape, which rows are orbit representatives, and the local links of the
// rows the orbit pass offers — the representatives, or every row when
// there is no shift generator and the completion pass offers them all. Two
// components of one class digest alike wherever they sit in the fabric.
// What else a solve reads, the orbit images and, when completion ran, the
// rest of the rows, is left to memoEntry.matches, which checks only what
// the leader read. It keys the memo only: a weaker key costs at most a
// failed exact check, and a component whose paths leave it digests to some
// value, which the exact check or the arena build that follows refuses.
//
// It reads rows through CSR.AppendRow, so digesting a component whose rows
// are generated stores none of them.
func digest(csr *route.CSR, comp *route.Component, localOf []int32, sym route.Symmetric) uint64 {
	var h route.Hash
	h.Word(uint64(len(comp.Links)))
	h.Word(uint64(len(comp.Paths)))
	var row []topo.LinkID
	for _, pid := range comp.Paths {
		if sym != nil && !sym.IsRepresentative(int(pid)) {
			h.Word(0)
			continue
		}
		row = csr.AppendRow(int(pid), row[:0])
		// Each row folds on a chain of its own and enters the stream as
		// one word, so consecutive rows overlap in the pipeline. A weak
		// chain costs at most a failed exact check, never a wrong reuse.
		w := uint64(len(row))<<1 | 1
		for _, gl := range row {
			w = w*0x9e3779b97f4a7c15 + uint64(localOf[gl])
		}
		h.Word(w)
	}
	return h.Sum64()
}

// owns reports whether global link gl is comp's own, at local index li.
// localOf is shared by every component of a request: an index that is not
// this component's is another one's.
func owns(comp *route.Component, li int32, gl topo.LinkID) bool {
	return li >= 0 && int(li) < len(comp.Links) && comp.Links[li] == gl
}

// buildArena translates the component's rows of the matrix into local link
// indices; reading them stores the rows' blocks (CSR.Row). A path with a
// link outside the component means the caller's partition does not match
// the matrix; it is reported, not trusted.
func buildArena(csr *route.CSR, comp *route.Component, localOf []int32) (*compArena, error) {
	n := len(comp.Paths)
	total := 0
	for _, pid := range comp.Paths {
		total += len(csr.Row(int(pid)))
	}
	a := &compArena{
		pathIDs:  comp.Paths,
		offsets:  make([]int32, n+1),
		links:    make([]int32, total),
		linkRows: make([]int32, len(comp.Links)),
	}
	pos := int32(0)
	for r, pid := range comp.Paths {
		for _, gl := range csr.Row(int(pid)) {
			li := localOf[gl]
			if !owns(comp, li, gl) {
				return nil, fmt.Errorf("pmc: path %d leaves its component (link %d)", pid, gl)
			}
			a.links[pos] = li
			a.linkRows[li]++
			pos++
		}
		a.offsets[r+1] = pos
	}
	return a, nil
}

// index rebuilds the inverted index over rows (ascending) with a counting
// sort: one pass to size, one prefix sum, one pass to fill.
func (a *compArena) index(rows []int32) {
	numLocal := len(a.linkRows)
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
