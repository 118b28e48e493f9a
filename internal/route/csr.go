package route

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/detector-net/detector/internal/topo"
)

// CSR is a candidate routing matrix in compressed-sparse-row form: path
// i's links, in PathSet.AppendLinks order, read by AppendRow. It is one of
// two things. A family whose rows are arithmetic (Generator) stores no row:
// AppendRow generates each from the family, and the rows through a link
// come from it too (Pristine.AppendRowsThrough). Every other matrix is a
// stored arena, the rows concatenated into one slab that MaterializeCSR or
// NewCSR writes whole.
type CSR struct {
	n int
	// A stored arena: row i spans links[offsets[i]:offsets[i+1]]. Offsets
	// are int32, capping the arena at MaxInt32 link entries; writing one
	// past that panics (checkArenaSize) rather than wrapping.
	offsets []int32
	links   []topo.LinkID
	// gen generates every row; nil for a stored arena.
	gen Generator

	// family states the pristine decomposition when the PathSet the rows
	// came from can (Decomposer); nil otherwise.
	family Decomposer

	// Derived from the rows alone, so built at most once and shared by
	// every holder of the matrix.
	pristine derived[Pristine]
	sig      derived[uint64]
}

// derived is a value computed from a CSR at most once, on first use.
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

// built counts, for this process, the component indexes built, the matrix
// signatures computed and the kernel decompositions run. Tests read it to
// pin what a cycle does not build.
var built struct{ index, signature, decompose atomic.Int64 }

// Pristine is a matrix's decomposition with no link down, indexed by link.
// A down link only removes rows, so every component of a masked
// decomposition lies inside exactly one pristine component: its parent.
//
// The rows through a link (AppendRowsThrough) come from the family when it
// generates its rows (Generator). Otherwise every row through a link lies
// in that link's pristine component, so the inverted link→rows index is
// kept per component and built the first time one of its links is asked
// for: a matrix nothing ever goes down on never pays for one.
type Pristine struct {
	Comps   []Component
	csr     *CSR
	compOf  []int32 // link -> index into Comps, -1 when in none
	localOf []int32 // link -> its index in its component's Links
	index   []derived[compIndex]
}

// compIndex is one pristine component's inverted index.
type compIndex struct {
	off  []int32 // local link -> start into rows; len = len(Links)+1
	rows []int32 // rows through each link, ascending within a link
}

func newPristine(csr *CSR, comps []Component) *Pristine {
	n := 0
	for i := range comps {
		n = max(n, int(comps[i].Links[len(comps[i].Links)-1])+1)
	}
	p := &Pristine{
		Comps:   comps,
		csr:     csr,
		compOf:  make([]int32, n),
		localOf: make([]int32, n),
		index:   make([]derived[compIndex], len(comps)),
	}
	for i := range p.compOf {
		p.compOf[i] = -1
	}
	for ci := range comps {
		for li, l := range comps[ci].Links {
			p.compOf[l], p.localOf[l] = int32(ci), int32(li)
		}
	}
	return p
}

// CompOf returns the index into Comps of the component holding link l, or
// -1 when l is in none.
func (p *Pristine) CompOf(l topo.LinkID) int {
	if l < 0 || int(l) >= len(p.compOf) {
		return -1
	}
	return int(p.compOf[l])
}

// Parent returns the index of the pristine component holding every link of
// c, or -1 when c's links span several pristine components or lie in none.
func (p *Pristine) Parent(c *Component) int {
	parent := -1
	for i, l := range c.Links {
		ci := p.CompOf(l)
		if i == 0 {
			parent = ci
		}
		if ci < 0 || ci != parent {
			return -1
		}
	}
	return parent
}

// Is reports whether c is one of the pristine components, links and paths
// alike. Every row of such a component lies inside it by construction, so
// no row of it needs checking for a link outside it.
func (p *Pristine) Is(c *Component) bool {
	if len(c.Links) == 0 {
		return false
	}
	ci := p.CompOf(c.Links[0])
	return ci >= 0 && same(c.Links, p.Comps[ci].Links) && c.Paths.Equal(p.Comps[ci].Paths)
}

// same reports whether a and b hold equal elements, at once when they are
// one slice: a component handed on from the pristine decomposition aliases
// it, and comparing its rows would read every one.
func same[T comparable](a, b []T) bool {
	if len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// AppendRowsThrough appends the rows through link l to buf, ascending,
// and returns the extended slice; it appends none when l is in no
// component. A Generator family answers from its layout and nothing is
// kept; otherwise the first call for a link of a component builds that
// component's index.
func (p *Pristine) AppendRowsThrough(l topo.LinkID, buf []int32) []int32 {
	ci := p.CompOf(l)
	if ci < 0 {
		return buf
	}
	if p.csr.gen != nil {
		return p.csr.gen.AppendRowsThrough(l, buf)
	}
	x, li := p.indexOf(ci), p.localOf[l]
	return append(buf, x.rows[x.off[li]:x.off[li+1]]...)
}

// indexOf returns component ci's index, built on first use by counting
// sort over its rows: size, prefix-sum, fill.
func (p *Pristine) indexOf(ci int) *compIndex {
	return p.index[ci].get(func() *compIndex {
		built.index.Add(1)
		c := &p.Comps[ci]
		n := len(c.Links)
		off := make([]int32, n+1)
		var row []topo.LinkID
		w := c.Paths.Walk()
		for range c.Paths.Len() {
			row = p.csr.AppendRow(int(w.Next()), row[:0])
			for _, l := range row {
				off[p.localOf[l]+1]++
			}
		}
		for li := 0; li < n; li++ {
			off[li+1] += off[li]
		}
		rows := make([]int32, off[n])
		fill := slices.Clone(off[:n])
		w = c.Paths.Walk()
		for range c.Paths.Len() {
			r := w.Next()
			row = p.csr.AppendRow(int(r), row[:0])
			for _, l := range row {
				li := p.localOf[l]
				rows[fill[li]] = r
				fill[li]++
			}
		}
		return &compIndex{off: off, rows: rows}
	})
}

// Pristine returns the matrix's unmasked decomposition (DecomposeCSR),
// computed once on first use: read off the family when it states it
// (Decomposer), found by the kernel otherwise. numLinks is the topology's
// link-ID space size.
func (c *CSR) Pristine(numLinks int) *Pristine {
	return c.pristine.get(func() *Pristine {
		if c.family != nil {
			return newPristine(c, c.family.PristineComponents())
		}
		return newPristine(c, DecomposeCSR(c, numLinks))
	})
}

// checkArenaSize panics when the arena would exceed int32 offset range.
func checkArenaSize(total int) {
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("route: CSR arena needs %d link entries, above the int32 offset limit %d; shard the candidate set before materializing", total, math.MaxInt32))
	}
}

// Len returns the number of rows (paths).
func (c *CSR) Len() int { return c.n }

// AppendRow appends the link set of path i to buf and returns the extended
// slice: copied from the arena, or generated by the family.
func (c *CSR) AppendRow(i int, buf []topo.LinkID) []topo.LinkID {
	if c.gen != nil {
		return c.gen.AppendLinks(i, buf)
	}
	return append(buf, c.links[c.offsets[i]:c.offsets[i+1]]...)
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

// Generator is an optional Decomposer capability: a family whose rows,
// and the rows through any one link, are arithmetic in its index layout.
// MaterializeCSR stores no row of it.
type Generator interface {
	Decomposer
	// AppendRowsThrough appends the paths through link l to buf, ascending,
	// and returns the extended slice; none for a link no path crosses.
	AppendRowsThrough(l topo.LinkID, buf []int32) []int32
}

// MaterializeCSR returns ps's CSR form. A Generator family is recorded and
// stores nothing; any other family is walked once into a stored arena,
// through the bulk fast path when it implements BulkLinker. A Decomposer
// is recorded for CSR.Pristine, which asks it on first use.
func MaterializeCSR(ps PathSet) *CSR {
	family, _ := ps.(Decomposer)
	if gen, ok := ps.(Generator); ok {
		return &CSR{n: ps.Len(), gen: gen, family: family}
	}
	n := ps.Len()
	offsets := make([]int32, 1, n+1)
	var links []topo.LinkID
	if bl, ok := ps.(BulkLinker); ok {
		links, offsets = bl.AppendAllLinks(nil, offsets)
	} else if n > 0 {
		// Size the arena from the first path; families have near-uniform
		// path lengths, so this avoids regrowing the slab log(n) times.
		links = ps.AppendLinks(0, make([]topo.LinkID, 0, 16))
		checkArenaSize(len(links) * n)
		links = append(make([]topo.LinkID, 0, len(links)*n+1), links...)
		offsets = append(offsets, int32(len(links)))
		for i := 1; i < n; i++ {
			links = ps.AppendLinks(i, links)
			checkArenaSize(len(links))
			offsets = append(offsets, int32(len(links)))
		}
	}
	return &CSR{n: n, offsets: offsets, links: links, family: family}
}

// NewCSR stores rows as one arena, copying them.
func NewCSR(rows [][]topo.LinkID) *CSR {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	checkArenaSize(total)
	offsets := make([]int32, 1, len(rows)+1)
	links := make([]topo.LinkID, 0, total)
	for _, r := range rows {
		links = append(links, r...)
		offsets = append(offsets, int32(len(links)))
	}
	return &CSR{n: len(rows), offsets: offsets, links: links}
}
