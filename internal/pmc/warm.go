package pmc

import (
	"slices"
	"sync"

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
// completion pass reads every row. So a selection is stored as local rows,
// and any component whose greedy would read the same things takes those
// rows mapped through its own Paths: the k/2 components of a Fattree, a
// component flapping down and back up, a component moving between shards.
// A component whose content differs is solved from scratch; nothing in its
// selection depends on what the engine solved before. Masked components
// never enter the memo: they are repaired from their pristine parent's
// class (repair.go), so churn cannot evict the pristine classes.
//
// A memo serves one (PathSet, CSR): it keeps no rows, and reads its
// leaders' rows, like any other, from the matrix it is handed. It keeps a
// component's paths as the component names them: a span (a pristine
// Fattree component's) by value, a list (a churned or decoded component's)
// copied.

// MemoStats reports memo effectiveness.
type MemoStats struct {
	Hits    int64 // components answered by reusing a class leader's rows
	Misses  int64 // components solved from scratch
	Entries int   // current cached classes
	Bytes   int64 // approximate retained bytes
}

// memoOptKey is the selection-relevant subset of Options: two runs with
// equal keys over components of one class make identical picks.
type memoOptKey struct {
	alpha, beta int
	ablate      Ablation // without NoDecompose: the partition is the content
	noEven      bool
}

func optKeyOf(opt Options) memoOptKey {
	return memoOptKey{opt.Alpha, opt.Beta, opt.Ablate &^ NoDecompose, opt.NoEvenness}
}

// memoEntry is one solved class: the leader component it was solved on,
// its selection as local rows, and what its greedy read — its
// representative rows, the orbit log, and whether the completion pass read
// every row. All but members and bytes are immutable once built.
type memoEntry struct {
	digest uint64
	key    memoOptKey
	links  []topo.LinkID // leader's
	paths  route.Paths   // leader's
	rows   []int32       // selected rows, ascending
	reps   []int32       // representative rows, ascending
	orbit  []int32       // componentState.orbitLog
	full   bool          // the completion pass ran: the greedy read every row

	coverageMet, identMet bool

	// members are the other components matches has admitted to the class,
	// so that they, like the leader, are found again by content alone: on
	// Fattree(16) that is a comparison of two spans against ~2–4 ms for
	// the exact check, and every up-flap of a churned component is such a
	// return, the differ handing back the pristine component itself.
	// Guarded by Memo.mu, as is bytes.
	members []route.Component
	bytes   int64
}

func newMemoEntry(key memoOptKey, digest uint64, comp *route.Component, rows, reps, orbit []int32, full, coverageMet, identMet bool) *memoEntry {
	e := &memoEntry{
		digest:      digest,
		key:         key,
		links:       slices.Clone(comp.Links),
		paths:       comp.Paths.Clone(),
		rows:        rows,
		reps:        slices.Clone(reps),
		orbit:       slices.Clone(orbit),
		full:        full,
		coverageMet: coverageMet,
		identMet:    identMet,
	}
	e.bytes = 4*int64(len(e.links)+len(e.rows)+len(e.reps)+len(e.orbit)) + e.paths.Bytes()
	return e
}

// matches reports whether comp's greedy would run the leader's step for
// step; it is the exact check that admits a component to a class. It
// compares the rows the leader's greedy read (everyRow says when that is
// all of them) and replays the leader's orbit log.
func (e *memoEntry) matches(csr *route.CSR, sym route.Symmetric, comp *route.Component, localOf []int32, pristine *route.Pristine) bool {
	ok, _ := e.compare(csr, sym, comp, localOf, e.everyRow(comp, pristine))
	return ok
}

// everyRow reports whether the exact check must compare every row of comp:
// when the leader's completion pass read them all, or when comp is foreign.
func (e *memoEntry) everyRow(comp *route.Component, pristine *route.Pristine) bool {
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
// log is replayed on comp. Both components' rows are read through
// CSR.AppendRow, so a check stores none of them.
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
func (e *memoEntry) compare(csr *route.CSR, sym route.Symmetric, comp *route.Component, localOf []int32, every bool) (ok bool, compared int) {
	if len(e.links) != len(comp.Links) || e.paths.Len() != comp.Paths.Len() {
		return false, 0
	}
	// samePath compares comp's row with path pid to the leader's with lpid.
	// The rows are read into buffers that are never reassigned, so a
	// compared row stores no pointer and pays no write barrier while the
	// collector marks.
	var rowBuf, lrowBuf [16]topo.LinkID
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
	sameRow := func(r int32) bool { return samePath(comp.Paths.At(int(r)), e.paths.At(int(r))) }
	if sym != nil && !slices.Equal(sym.AppendRepresentatives(comp.Paths, nil), e.reps) {
		return false, 0
	}
	// Both walks step from one compared row to the next; a gap in the
	// representatives restarts them.
	w, lw := comp.Paths.Walk(), e.paths.Walk()
	if every {
		for range comp.Paths.Len() {
			if !samePath(w.Next(), lw.Next()) {
				return false, compared
			}
		}
	} else {
		next := int32(0)
		for _, r := range e.reps {
			if r != next {
				w, lw = comp.Paths.WalkFrom(int(r)), e.paths.WalkFrom(int(r))
			}
			next = r + 1
			if !samePath(w.Next(), lw.Next()) {
				return false, compared
			}
		}
	}
	var buf []int
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
				if !sameRow(ir) {
					return false, compared
				}
			}
		}
	}
	return true, compared
}

// pathsOf maps the selected rows through comp's Paths. Rows ascend and so
// do Paths, so the selection comes out sorted.
func (e *memoEntry) pathsOf(comp *route.Component) []int {
	sel := make([]int, len(e.rows))
	for i, r := range e.rows {
		sel[i] = int(comp.Paths.At(int(r)))
	}
	return sel
}

// reuse is comp's result from the class's rows, solving nothing.
func (e *memoEntry) reuse(comp *route.Component) *componentResult {
	return &componentResult{selected: e.pathsOf(comp), coverageMet: e.coverageMet, identMet: e.identMet}
}

// Memo is a bounded LRU cache of solved component classes. It is
// engine-local (each shard process owns one, in-process shards share one);
// a reused selection never crosses the wire differently from a fresh one,
// so no RPC schema changes are needed.
type Memo struct {
	mu       sync.Mutex
	entries  []*memoEntry // least recently used first
	maxComps int
	maxBytes int64
	comps    int // leaders and members remembered
	bytes    int64

	hits, misses int64
}

// DefaultMemoBytes bounds retained component content to 256 MiB.
const DefaultMemoBytes = 256 << 20

// NewMemo returns a memo remembering at most maxEntries components, class
// leaders and members alike (0 means 64), within a DefaultMemoBytes budget.
// A component is counted as what the memo holds of it: 4 B a link, and its
// Paths' Bytes — 4 B a path for a list, the header for a span; a leader
// adds 4 B for each of its selected rows, representative rows and orbit
// log words. So the bound is on content, however the components group
// into classes: a pristine Fattree(16) class of eight costs ~44 KB, a
// churned component its listed paths.
func NewMemo(maxEntries int) *Memo {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &Memo{maxComps: maxEntries, maxBytes: DefaultMemoBytes}
}

// Stats returns a snapshot of memo counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries), Bytes: m.bytes}
}

// holding returns, as a hit, the entry solved on or already matched to
// exactly comp's content: the same rows of the same matrix read the same,
// so no digest and no exact check are needed. It returns nil when there is
// none.
func (m *Memo) holding(key memoOptKey, comp *route.Component) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.entries {
		if e.key == key && e.holds(comp) {
			m.hits++
			m.toBack(i)
			return e
		}
	}
	return nil
}

func (e *memoEntry) holds(comp *route.Component) bool {
	same := func(links []topo.LinkID, paths route.Paths) bool {
		return slices.Equal(links, comp.Links) && paths.Equal(comp.Paths)
	}
	if same(e.links, e.paths) {
		return true
	}
	for _, c := range e.members {
		if same(c.Links, c.Paths) {
			return true
		}
	}
	return false
}

// candidates returns the entries a component with this digest may reuse,
// most recently used first. Their immutable fields may be read without
// the lock.
func (m *Memo) candidates(key memoOptKey, digest uint64) []*memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*memoEntry
	for i := len(m.entries) - 1; i >= 0; i-- {
		if e := m.entries[i]; e.digest == digest && e.key == key {
			out = append(out, e)
		}
	}
	return out
}

// join counts comp's reuse of e, which matches has admitted, remembers comp
// as a member of the class, and moves e to the back of the eviction order.
// An entry evicted meanwhile is not brought back.
func (m *Memo) join(e *memoEntry, comp *route.Component) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hits++
	i := slices.Index(m.entries, e)
	if i < 0 {
		return
	}
	if !e.holds(comp) {
		e.members = append(e.members, route.Component{Links: slices.Clone(comp.Links), Paths: comp.Paths.Clone()})
		b := 4*int64(len(comp.Links)) + comp.Paths.Bytes()
		e.bytes += b
		m.bytes += b
		m.comps++
	}
	m.toBack(i)
	m.evict()
}

// toBack moves entry i to the most recently used end.
func (m *Memo) toBack(i int) {
	e := m.entries[i]
	copy(m.entries[i:], m.entries[i+1:])
	m.entries[len(m.entries)-1] = e
}

// store counts a solve and caches its class.
func (m *Memo) store(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.misses++
	m.entries = append(m.entries, e)
	m.bytes += e.bytes
	m.comps++
	m.evict()
}

// evict drops least recently used entries beyond the component/byte
// budgets, never the most recent one.
func (m *Memo) evict() {
	for (m.comps > m.maxComps || m.bytes > m.maxBytes) && len(m.entries) > 1 {
		m.bytes -= m.entries[0].bytes
		m.comps -= 1 + len(m.entries[0].members)
		m.entries[0] = nil // the backing array outlives the reslice
		m.entries = m.entries[1:]
	}
}
