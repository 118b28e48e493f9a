package pmc

import (
	"slices"
	"sync"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// The greedy selection for a component is a deterministic function of what
// the greedy reads and the selection-relevant options. It reads the
// component-local arena (which local links each row crosses), which rows
// are orbit representatives, and the answers to the orbit queries of the
// orbit pass — never a global link or path id. So a selection is stored as
// local rows, and any component that would read the same things takes
// those rows mapped through its own Paths: the k/2 components of a
// Fattree, a component flapping down and back up, a component moving
// between shards. A component whose content differs is solved from
// scratch; nothing in its selection depends on what the engine solved
// before. Masked components never enter the memo: they are repaired from
// their pristine parent's class (repair.go), so churn cannot evict the
// pristine classes.
//
// A memo serves one (PathSet, CSR): it re-reads stored leaders' rows from
// the matrix it is handed.

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
// its selection as local rows, and the orbit log its solve left. All but
// members and bytes are immutable once built.
type memoEntry struct {
	digest uint64
	key    memoOptKey
	links  []topo.LinkID // leader's
	paths  []int32       // leader's
	rows   []int32       // selected rows, ascending
	orbit  []int32       // componentState.orbitLog

	coverageMet, identMet bool

	// members are the other components matches has admitted to the class,
	// so that they, like the leader, are found again by content alone: on
	// Fattree(16) that is ~0.06 ms against ~2–4 ms for the exact check, and
	// every up-flap of a churned component is such a return.
	// Guarded by Memo.mu, as is bytes.
	members []route.Component
	bytes   int64
}

func newMemoEntry(key memoOptKey, digest uint64, comp *route.Component, rows, orbit []int32, coverageMet, identMet bool) *memoEntry {
	e := &memoEntry{
		digest:      digest,
		key:         key,
		links:       slices.Clone(comp.Links),
		paths:       slices.Clone(comp.Paths),
		rows:        rows,
		orbit:       slices.Clone(orbit),
		coverageMet: coverageMet,
		identMet:    identMet,
	}
	e.bytes = 4 * int64(len(e.links)+len(e.paths)+len(e.rows)+len(e.orbit))
	return e
}

// matches reports whether comp's greedy would run the leader's step for
// step, in one pass over comp's rows and the leader's orbit log; it is the
// exact check that admits a component to a class. Rows must cross the same
// local links: every link of a row must be comp's own (false otherwise —
// comp's partition does not match the matrix, which the solve it falls back
// to reports), and the leader's link at its local index must be the
// leader's own link (both Links are sorted, so local indices agree exactly
// when that holds). Representative rows must agree. Then the leader's orbit
// log is replayed on comp: by induction over the greedy's steps, equal
// answers to every query the leader asked mean comp asks the same next
// query, so no query outside the log can be reached. localOf must map comp's
// links to their local indices.
func (e *memoEntry) matches(csr *route.CSR, sym route.Symmetric, comp *route.Component, localOf []int32) bool {
	if len(e.links) != len(comp.Links) || len(e.paths) != len(comp.Paths) {
		return false
	}
	for r, pid := range comp.Paths {
		lp := e.paths[r]
		row, lrow := csr.Row(int(pid)), csr.Row(int(lp))
		if len(row) != len(lrow) {
			return false
		}
		for j, gl := range row {
			li := localOf[gl]
			if !owns(comp, li, gl) || e.links[li] != lrow[j] {
				return false
			}
		}
		if sym != nil && sym.IsRepresentative(int(pid)) != sym.IsRepresentative(int(lp)) {
			return false
		}
	}
	var buf []int
	for i := 0; i < len(e.orbit); {
		r, n := e.orbit[i], int(e.orbit[i+1])
		want := e.orbit[i+2 : i+2+n]
		i += 2 + n
		buf = sym.AppendOrbit(int(comp.Paths[r]), buf[:0])
		j := 0
		for _, img := range buf {
			ir := rowOf(comp.Paths, int32(img))
			if ir < 0 {
				continue
			}
			if j == n || want[j] != ir {
				return false
			}
			j++
		}
		if j != n {
			return false
		}
	}
	return true
}

// pathsOf maps the selected rows through comp's Paths. Rows ascend and so
// do Paths, so the selection comes out sorted.
func (e *memoEntry) pathsOf(comp *route.Component) []int {
	sel := make([]int, len(e.rows))
	for i, r := range e.rows {
		sel[i] = int(comp.Paths[r])
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
// Each costs about its Paths, so the bound is on content, however the
// components group into classes.
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
	same := func(links []topo.LinkID, paths []int32) bool {
		return slices.Equal(links, comp.Links) && slices.Equal(paths, comp.Paths)
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
		e.members = append(e.members, route.Component{Links: slices.Clone(comp.Links), Paths: slices.Clone(comp.Paths)})
		b := 4 * int64(len(comp.Links)+len(comp.Paths))
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
