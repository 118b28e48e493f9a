package pmc

import (
	"slices"
	"sync"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// The greedy selection for a component is a deterministic function of its
// exact content (links + paths) and the selection-relevant options, so
// content-identical reuse is bit-identical: a component that returns to a
// previously solved form (a link flapping down and back up, a component
// moving between shards) hits the memo and skips construction entirely. A
// *changed* component is solved from scratch — nothing in its selection
// depends on what the engine solved before.

// MemoStats reports memo effectiveness.
type MemoStats struct {
	Hits    int64 // component solved by exact content reuse
	Misses  int64 // component solved from scratch
	Entries int   // current cached components
	Bytes   int64 // approximate retained bytes
}

// memoOptKey is the selection-relevant subset of Options: two runs with
// equal keys and equal component content make identical picks.
type memoOptKey struct {
	alpha, beta int
	ablate      Ablation // without NoDecompose: the partition is the content
	noEven      bool
}

func optKeyOf(opt Options) memoOptKey {
	return memoOptKey{opt.Alpha, opt.Beta, opt.Ablate &^ NoDecompose, opt.NoEvenness}
}

type memoEntry struct {
	hash  uint64
	key   memoOptKey
	links []topo.LinkID
	paths []int32
	res   componentResult // selection and target flags only
	bytes int64
}

// Memo is a bounded cache of per-component selections keyed by exact
// component content. It is engine-local (each shard process owns one); the
// cached selection never crosses the wire differently from a fresh one, so
// no RPC schema changes are needed.
type Memo struct {
	mu       sync.Mutex
	entries  []*memoEntry // insertion order; evicted front-first
	maxEnts  int
	maxBytes int64
	bytes    int64

	hits, misses int64
}

// DefaultMemoBytes bounds retained component content to 256 MiB.
const DefaultMemoBytes = 256 << 20

// NewMemo returns a memo holding at most maxEntries selections (0 means 64)
// within a DefaultMemoBytes budget.
func NewMemo(maxEntries int) *Memo {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &Memo{maxEnts: maxEntries, maxBytes: DefaultMemoBytes}
}

// Stats returns a snapshot of memo counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries), Bytes: m.bytes}
}

// contentHash digests the selection-relevant identity of a subproblem.
func contentHash(comp *route.Component, key memoOptKey) uint64 {
	var h route.Hash
	h.Word(uint64(key.alpha))
	h.Word(uint64(key.beta))
	flags := uint64(key.ablate)
	if key.noEven {
		flags |= 1 << 8
	}
	h.Word(flags)
	h.Links(comp.Links)
	h.Word(uint64(len(comp.Paths)))
	for _, p := range comp.Paths {
		h.Word(uint64(p))
	}
	return h.Sum64()
}

// get returns the remembered result for an exactly matching component, or
// nil.
func (m *Memo) get(comp *route.Component, key memoOptKey, hash uint64) *componentResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.hash == hash && e.key == key && slices.Equal(e.links, comp.Links) && slices.Equal(e.paths, comp.Paths) {
			m.hits++
			return &e.res
		}
	}
	m.misses++
	return nil
}

// store caches a freshly solved component, evicting oldest entries beyond
// the entry/byte budgets.
func (m *Memo) store(comp *route.Component, key memoOptKey, hash uint64, cr *componentResult) {
	e := &memoEntry{
		hash:  hash,
		key:   key,
		links: slices.Clone(comp.Links),
		paths: slices.Clone(comp.Paths),
		res: componentResult{
			selected:    slices.Clone(cr.selected),
			coverageMet: cr.coverageMet,
			identMet:    cr.identMet,
		},
	}
	e.bytes = int64(len(e.links)*8 + len(e.paths)*4 + len(e.res.selected)*8)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, e)
	m.bytes += e.bytes
	for (len(m.entries) > m.maxEnts || m.bytes > m.maxBytes) && len(m.entries) > 1 {
		m.bytes -= m.entries[0].bytes
		m.entries[0] = nil // the backing array outlives the reslice
		m.entries = m.entries[1:]
	}
}
