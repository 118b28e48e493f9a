package route

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/detector-net/detector/internal/topo"
)

// CSR is a routing matrix materialized in compressed-sparse-row form: the
// link sets of every candidate path, concatenated into one arena. Row i of
// the matrix is Links[Offsets[i]:Offsets[i+1]]. Materializing once and
// walking contiguous rows is the backbone of PMC's scoring engine — the
// greedy loops never call PathSet.AppendLinks again after construction.
type CSR struct {
	// Offsets has Len()+1 entries; row i spans [Offsets[i], Offsets[i+1]).
	// Offsets are int32, capping the arena at MaxInt32 total link entries
	// (≈2.1 G — a Fattree(48)-scale candidate universe overflows it);
	// MaterializeCSR panics with a clear message rather than wrapping.
	Offsets []int32
	// Links is the concatenation of every path's link set.
	Links []topo.LinkID

	// Derived from the rows alone, so built at most once and shared by
	// every holder of the matrix.
	pristine derived[Pristine]
	index    derived[Index]
}

// derived is a value computed from a CSR at most once, on first use,
// unless a caller that already holds it seeds it first.
type derived[T any] struct {
	mu sync.Mutex
	v  atomic.Pointer[T]
}

func (d *derived[T]) get(build func() *T) *T {
	if v := d.v.Load(); v != nil {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v := d.v.Load(); v != nil {
		return v
	}
	v := build()
	d.v.Store(v)
	return v
}

func (d *derived[T]) seed(v *T) { d.v.CompareAndSwap(nil, v) }

// Pristine is a matrix's decomposition with no link down, indexed by link.
// A down link only removes rows, so every component of a masked
// decomposition lies inside exactly one pristine component: its parent.
type Pristine struct {
	Comps  []Component
	compOf []int32 // link -> index into Comps, -1 when in none
}

func newPristine(comps []Component) *Pristine {
	n := 0
	for i := range comps {
		n = max(n, int(comps[i].Links[len(comps[i].Links)-1])+1)
	}
	p := &Pristine{Comps: comps, compOf: make([]int32, n)}
	for i := range p.compOf {
		p.compOf[i] = -1
	}
	for ci := range comps {
		for _, l := range comps[ci].Links {
			p.compOf[l] = int32(ci)
		}
	}
	return p
}

// Parent returns the index of the pristine component holding every link of
// c, or -1 when c's links span several pristine components or lie in none.
func (p *Pristine) Parent(c *Component) int {
	parent := int32(-1)
	for i, l := range c.Links {
		if l < 0 || int(l) >= len(p.compOf) {
			return -1
		}
		if i == 0 {
			parent = p.compOf[l]
		}
		if p.compOf[l] != parent {
			return -1
		}
	}
	return int(parent)
}

// Pristine returns the matrix's unmasked decomposition (DecomposeCSR),
// computed once on first use unless an empty-down-set NewIncremental has
// already seeded it. numLinks is the topology's link-ID space size.
func (c *CSR) Pristine(numLinks int) *Pristine {
	return c.pristine.get(func() *Pristine { return newPristine(DecomposeCSR(c, numLinks)) })
}

// Index is a matrix's inverted link→rows index.
type Index struct {
	off  []int32 // link -> start into rows; len = numLinks+1
	rows []int32 // rows through each link, ascending within a link
}

// RowsThrough returns the rows through link l, ascending. The slice aliases
// the index; callers must not modify it.
func (x *Index) RowsThrough(l topo.LinkID) []int32 {
	if l < 0 || int(l)+1 >= len(x.off) {
		return nil
	}
	return x.rows[x.off[l]:x.off[l+1]]
}

// Index returns the matrix's inverted index, built once on first use (the
// incremental differ builds it at boot). numLinks is the topology's
// link-ID space size.
func (c *CSR) Index(numLinks int) *Index {
	return c.index.get(func() *Index { return newIndex(c, numLinks) })
}

// newIndex builds the inverted index by counting sort: size, prefix-sum,
// fill.
func newIndex(csr *CSR, numLinks int) *Index {
	off := make([]int32, numLinks+1)
	for _, l := range csr.Links {
		off[int(l)+1]++
	}
	for l := 0; l < numLinks; l++ {
		off[l+1] += off[l]
	}
	rows := make([]int32, len(csr.Links))
	fill := make([]int32, numLinks)
	copy(fill, off[:numLinks])
	n := csr.Len()
	for i := 0; i < n; i++ {
		for _, l := range csr.Row(i) {
			rows[fill[l]] = int32(i)
			fill[l]++
		}
	}
	return &Index{off: off, rows: rows}
}

// checkArenaSize panics when the arena would exceed int32 offset range.
func checkArenaSize(total int) {
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("route: CSR arena needs %d link entries, above the int32 offset limit %d; shard the candidate set before materializing", total, math.MaxInt32))
	}
}

// Len returns the number of rows (paths).
func (c *CSR) Len() int { return len(c.Offsets) - 1 }

// Row returns the link set of path i. The slice aliases the arena; callers
// must not modify it.
func (c *CSR) Row(i int) []topo.LinkID {
	return c.Links[c.Offsets[i]:c.Offsets[i+1]]
}

// BulkLinker is an optional PathSet fast path for materialization: a single
// call emits every path's links in index order, avoiding the per-path
// interface-call and index-decode overhead of AppendLinks.
type BulkLinker interface {
	PathSet
	// AppendAllLinks appends the links of every path, in path-index order,
	// to links, and appends each path's end position to offsets (one entry
	// per path). It returns the extended slices.
	AppendAllLinks(links []topo.LinkID, offsets []int32) ([]topo.LinkID, []int32)
}

// MaterializeCSR walks ps once and returns its CSR form. PathSets implementing
// BulkLinker are materialized through the bulk fast path.
func MaterializeCSR(ps PathSet) *CSR {
	n := ps.Len()
	offsets := make([]int32, 1, n+1)
	if bl, ok := ps.(BulkLinker); ok {
		links, offsets := bl.AppendAllLinks(nil, offsets)
		return &CSR{Offsets: offsets, Links: links}
	}
	var links []topo.LinkID
	if n > 0 {
		// Size the arena from the first path; families have near-uniform
		// path lengths, so this avoids regrowing the slab log(n) times.
		links = ps.AppendLinks(0, make([]topo.LinkID, 0, 16))
		checkArenaSize(len(links) * n)
		links = append(make([]topo.LinkID, 0, len(links)*n+1), links...)
		offsets = append(offsets, int32(len(links)))
	}
	for i := 1; i < n; i++ {
		links = ps.AppendLinks(i, links)
		checkArenaSize(len(links))
		offsets = append(offsets, int32(len(links)))
	}
	return &CSR{Offsets: offsets, Links: links}
}
