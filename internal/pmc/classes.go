package pmc

import (
	"slices"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// The greedy selection for a component is a deterministic function of what
// the greedy reads and the selection-relevant options. It reads the
// component's shape (link and path counts), which rows are orbit
// representatives, the local links of the rows it scores or selects, and
// the answers to the orbit queries of the orbit pass — never a global link
// or path id. When the orbit pass meets the targets, the rows it reads are
// the representatives and the orbit images it was answered; only the
// completion pass reads every row. So a solved component's selection is
// kept as local rows, and any component of the same call whose greedy
// would read the same things takes those rows mapped through its own
// Paths: the k/2 components of a Fattree. A component whose content
// differs is solved from scratch; nothing in a selection depends on what
// the engine solved before. Across calls nothing is kept: the shard
// coordinator stores each pristine component's selection, and masked
// components are repaired from their parent's (repair.go).

// classEntry is one solved class: the leader component it was solved on,
// its selection as local rows, and what its greedy read — its
// representative rows, the orbit log, and whether the completion pass read
// every row. It is immutable once built and lives for one call.
type classEntry struct {
	links []topo.LinkID // leader's
	paths route.Paths   // leader's
	rows  []int32       // selected rows, ascending
	reps  []int32       // representative rows, ascending
	orbit []int32       // componentState.orbitLog
	full  bool          // the completion pass ran: the greedy read every row

	// The leader's answers to the reads a class check replays, copied from
	// its arena's loaded rows: the local links of each representative row,
	// then of each orbit image in log order. Read k spans
	// readLinks[readEnd[k]:readEnd[k+1]]. Both are sized by the rows the
	// greedy read, never by the component's rows.
	readLinks, readEnd []int32

	coverageMet, identMet bool
}

// keepReads copies from the leader's arena the rows a class check compares
// when it does not compare every row, in the order compare reads them.
// Every one of them is loaded: the representatives are the orbit pass's
// candidates, at slots 0..len(reps)-1, and each orbit image was loaded as
// it was logged. The completion pass, which lays the arena out anew, must
// not have run.
func (e *classEntry) keepReads(ar *compArena) {
	slots := make([]int32, len(e.reps), len(e.reps)+len(e.orbit))
	for k := range slots {
		slots[k] = int32(k)
	}
	e.eachImage(func(r int32) { slots = append(slots, ar.slot(r)) })
	total := 0
	for _, p := range slots {
		total += len(ar.row(p))
	}
	readEnd := make([]int32, 1, len(slots)+1)
	readLinks := make([]int32, 0, total)
	for _, p := range slots {
		readLinks = append(readLinks, ar.row(p)...)
		readEnd = append(readEnd, int32(len(readLinks)))
	}
	e.readLinks, e.readEnd = readLinks, readEnd
}

// eachImage calls f on the orbit images in log order.
func (e *classEntry) eachImage(f func(r int32)) {
	for i := 0; i < len(e.orbit); i += 2 + int(e.orbit[i+1]) {
		for _, ir := range e.orbit[i+2 : i+2+int(e.orbit[i+1])] {
			f(ir)
		}
	}
}

// matches reports whether comp's greedy would run the leader's step for
// step; it is the exact check that admits a component to a class. It
// compares the rows the leader's greedy read (everyRow says when that is
// all of them) and replays the leader's orbit log.
func (e *classEntry) matches(csr *route.CSR, sym route.Symmetric, comp *route.Component, localOf []int32, pristine *route.Pristine) bool {
	ok, _ := e.compare(csr, sym, comp, localOf, e.everyRow(comp, pristine))
	return ok
}

// everyRow reports whether the exact check must compare every row of comp:
// when the leader's completion pass read them all, or when comp is foreign.
func (e *classEntry) everyRow(comp *route.Component, pristine *route.Pristine) bool {
	return e.full || foreign(comp, pristine)
}

// foreign reports whether comp is not one of the matrix's pristine
// components, whose rows lie inside them by construction. A component from
// anywhere else — a shard request, a caller's own partition — may have a
// row with a link outside it, which only a read of every row finds: its
// class check compares every row, and its solve loads every row.
func foreign(comp *route.Component, pristine *route.Pristine) bool {
	return pristine == nil || !pristine.Is(comp)
}

// compare is the exact check in one pass over comp's rows and the leader's
// orbit log; it also returns how many rows' links it compared. The shapes
// must agree and so must the representative lists. A compared row
// must cross the same local links: every link of it must be comp's own
// (false otherwise — comp's partition does not match the matrix, which the
// solve it falls back to reports), at the local index the leader's row has
// there. It compares every row when every is set, else the rows at the
// leader's representative ranks and the images in its orbit log. Then the
// log is replayed on comp. comp's rows are read through CSR.AppendRow, so
// a check stores none of them. The leader's rows at the compared ranks are
// its kept reads (keepReads); an every-row check, which compares rows the
// entry did not keep, generates the leader's rows too. No served Fattree
// leader runs its completion pass, and the served components are all
// pristine, so every-row checks are off the served path.
//
// Why the rows the leader read suffice: the greedy's state after a step —
// link weights, refinement groups, selected rows, cached scores — is a
// function of the rows it selected and scored, and what it does next is a
// function of that state and the answer to its next read. By induction
// over the steps, equal answers to every read mean comp makes the leader's
// next read too, so no read outside the leader's reaches comp's greedy
// either. Rows the orbit pass offers are the representatives, and it reads
// rows beyond them only as orbit images, all in the log; the completion
// pass, which offers every row, ran on the leader exactly when it runs on
// comp, and sets full. No count the greedy takes sees a row it did not
// read: its arena loads only the rows read, and endStep counts the indexed
// ones, the pass's candidates, alike on both. localOf must map comp's
// links to their local indices.
func (e *classEntry) compare(csr *route.CSR, sym route.Symmetric, comp *route.Component, localOf []int32, every bool) (ok bool, compared int) {
	if len(e.links) != len(comp.Links) || e.paths.Len() != comp.Paths.Len() {
		return false, 0
	}
	// The rows are read into buffers that are never reassigned, so a
	// compared row stores no pointer and pays no write barrier while the
	// collector marks.
	var rowBuf, lrowBuf [16]topo.LinkID
	// sameRead compares comp's row with path pid to the leader's read k.
	// comp's links sit at the leader's local indices exactly when their
	// local indices are the leader's row's.
	sameRead := func(pid int32, k int) bool {
		compared++
		row := csr.AppendRow(int(pid), rowBuf[:0])
		want := e.readLinks[e.readEnd[k]:e.readEnd[k+1]]
		if len(row) != len(want) {
			return false
		}
		for j, gl := range row {
			li := localOf[gl]
			if !owns(comp, li, gl) || li != want[j] {
				return false
			}
		}
		return true
	}
	// samePath compares comp's row with path pid to the leader's with lpid,
	// generating both.
	samePath := func(pid, lpid int32) bool {
		compared++
		row := csr.AppendRow(int(pid), rowBuf[:0])
		lrow := csr.AppendRow(int(lpid), lrowBuf[:0])
		if len(row) != len(lrow) {
			return false
		}
		// Both Links are sorted, so local indices agree exactly when the
		// leader's link at comp's local index is the leader's own link.
		for j, gl := range row {
			li := localOf[gl]
			if !owns(comp, li, gl) || e.links[li] != lrow[j] {
				return false
			}
		}
		return true
	}
	if sym != nil && !slices.Equal(sym.AppendRepresentatives(comp.Paths, nil), e.reps) {
		return false, 0
	}
	// The walks step from one compared row to the next; a gap in the
	// representatives restarts comp's.
	w := comp.Paths.Walk()
	if every {
		lw := e.paths.Walk()
		for range comp.Paths.Len() {
			if !samePath(w.Next(), lw.Next()) {
				return false, compared
			}
		}
	} else {
		next := int32(0)
		for k, r := range e.reps {
			if r != next {
				w = comp.Paths.WalkFrom(int(r))
			}
			next = r + 1
			if !sameRead(w.Next(), k) {
				return false, compared
			}
		}
	}
	var buf []int
	k := len(e.reps) // the next kept read: the orbit images, in log order
	for i := 0; i < len(e.orbit); {
		r, n := e.orbit[i], int(e.orbit[i+1])
		want := e.orbit[i+2 : i+2+n]
		i += 2 + n
		buf = sym.AppendOrbit(int(comp.Paths.At(int(r))), buf[:0])
		j := 0
		for _, img := range buf {
			ir := comp.Paths.Find(int32(img))
			if ir < 0 {
				continue
			}
			if j == n || want[j] != ir {
				return false, compared
			}
			j++
		}
		if j != n {
			return false, compared
		}
		if !every {
			for _, ir := range want {
				if !sameRead(comp.Paths.At(int(ir)), k) {
					return false, compared
				}
				k++
			}
		}
	}
	return true, compared
}

// pathsOf maps the selected rows through comp's Paths. Rows ascend and so
// do Paths, so the selection comes out sorted.
func (e *classEntry) pathsOf(comp *route.Component) []int {
	sel := make([]int, len(e.rows))
	for i, r := range e.rows {
		sel[i] = int(comp.Paths.At(int(r)))
	}
	return sel
}

// reuse is comp's result from the class's rows, solving nothing.
func (e *classEntry) reuse(comp *route.Component) *componentResult {
	return &componentResult{selected: e.pathsOf(comp), coverageMet: e.coverageMet, identMet: e.identMet}
}
