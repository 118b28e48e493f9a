package route

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/detector-net/detector/internal/topo"
)

// CSR is a candidate routing matrix in compressed-sparse-row form: the link
// sets of its paths, concatenated into arenas that PMC's scoring engine and
// the decomposition kernel walk as contiguous rows. Row(i) is path i's links
// in PathSet.AppendLinks order.
//
// The rows are stored in blocks. A family that can write one of its
// pristine components on its own (RowBlocks) gets one block per pristine
// component, written the first time a Row reads into it: a cold
// construction reads none, so a component's rows are stored only when its
// churn index is first built (Pristine.RowsThrough: a churn touch, or a
// repair) or a whole-matrix pass asks for them. AppendRow, MatrixSignature,
// and the arenas and class checks of package pmc read rows without storing
// any. Every other matrix is the one-block case of the same layout, stored
// whole by MaterializeCSR or NewCSR.
type CSR struct {
	n int
	// Path i is row (i/period)*width + i%width of block (i%period)/width;
	// one block has period = width = 1. Path ids fit in int32, and 32-bit
	// division is the cheaper instruction.
	period, width uint32
	blocks        []derived[rowBlock]
	// gen writes a block on its first read; nil when every block was
	// stored up front.
	gen RowBlocks
	// blockNS is the time spent storing blocks so far (BlockTime).
	blockNS atomic.Int64

	// family states the pristine decomposition when the PathSet the rows
	// came from can (Decomposer); nil otherwise.
	family Decomposer

	// Derived from the rows alone, so built at most once and shared by
	// every holder of the matrix.
	pristine derived[Pristine]
	sig      derived[uint64]
}

// rowBlock is one block's stored rows: row j spans
// links[offsets[j]:offsets[j+1]]. Offsets are int32, capping a block at
// MaxInt32 link entries; writing one past that panics (checkArenaSize)
// rather than wrapping.
type rowBlock struct {
	offsets []int32
	links   []topo.LinkID
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
// signatures computed, the kernel decompositions run and the row blocks
// stored. Tests read it to pin what a cycle does not build.
var built struct{ index, signature, decompose, blocks atomic.Int64 }

// Pristine is a matrix's decomposition with no link down, indexed by link.
// A down link only removes rows, so every component of a masked
// decomposition lies inside exactly one pristine component: its parent.
//
// Every row through a link lies in that link's pristine component, so the
// inverted link→rows index is kept per component and built the first time
// one of its links is asked for: a matrix nothing ever goes down on never
// pays for one.
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

// comp returns the index of the component holding link l, or -1.
func (p *Pristine) comp(l topo.LinkID) int {
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
		ci := p.comp(l)
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
	ci := p.comp(c.Links[0])
	return ci >= 0 && same(c.Links, p.Comps[ci].Links) && same(c.Paths, p.Comps[ci].Paths)
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

// RowsThrough returns the rows through link l, ascending, nil when l is in
// no component. The first call for a link of a component builds that
// component's index. The slice aliases the index; callers must not modify
// it.
func (p *Pristine) RowsThrough(l topo.LinkID) []int32 {
	ci := p.comp(l)
	if ci < 0 {
		return nil
	}
	x, li := p.indexOf(ci), p.localOf[l]
	return x.rows[x.off[li]:x.off[li+1]]
}

// indexOf returns component ci's index, built on first use by counting
// sort over its rows: size, prefix-sum, fill.
func (p *Pristine) indexOf(ci int) *compIndex {
	return p.index[ci].get(func() *compIndex {
		built.index.Add(1)
		c := &p.Comps[ci]
		n := len(c.Links)
		off := make([]int32, n+1)
		for _, r := range c.Paths {
			for _, l := range p.csr.Row(int(r)) {
				off[p.localOf[l]+1]++
			}
		}
		for li := 0; li < n; li++ {
			off[li+1] += off[li]
		}
		rows := make([]int32, off[n])
		fill := slices.Clone(off[:n])
		for _, r := range c.Paths {
			for _, l := range p.csr.Row(int(r)) {
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

// locate returns the block holding path i and the path's row in it.
func (c *CSR) locate(i int) (b, j int) {
	u := uint32(i)
	q, r := u/c.period, u%c.period
	return int(r / c.width), int(q*c.width + r%c.width)
}

// Row returns the link set of path i, storing its block first if no read
// has yet. The slice aliases the block; callers must not modify it.
func (c *CSR) Row(i int) []topo.LinkID {
	b, j := c.locate(i)
	blk := c.blocks[b].v.Load()
	if blk == nil {
		blk = c.block(b)
	}
	return blk.links[blk.offsets[j]:blk.offsets[j+1]]
}

// AppendRow appends the link set of path i to buf and returns the extended
// slice: copied from its block when that is stored, generated by the family
// otherwise. It never stores a block.
func (c *CSR) AppendRow(i int, buf []topo.LinkID) []topo.LinkID {
	b, j := c.locate(i)
	if blk := c.blocks[b].v.Load(); blk != nil {
		return append(buf, blk.links[blk.offsets[j]:blk.offsets[j+1]]...)
	}
	return c.gen.AppendLinks(i, buf)
}

// block returns block b, writing it from the family on first use.
func (c *CSR) block(b int) *rowBlock {
	return c.blocks[b].get(func() *rowBlock {
		t0 := time.Now()
		rows := c.n / int(c.period) * int(c.width)
		links, offsets := c.gen.AppendBlock(b, nil, make([]int32, 1, rows+1))
		built.blocks.Add(1)
		c.blockNS.Add(int64(time.Since(t0)))
		return &rowBlock{offsets: offsets, links: links}
	})
}

// BlockTime returns the time spent storing c's row blocks so far: the
// whole arena inside MaterializeCSR for a family without RowBlocks, each
// pristine component's block on its first read otherwise. The reads that
// store a block count the same time in their own.
func (c *CSR) BlockTime() time.Duration { return time.Duration(c.blockNS.Load()) }

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

// RowBlocks is an optional Decomposer capability: a family whose pristine
// components interleave in a fixed arithmetic layout, and which can write
// any one of them on its own. MaterializeCSR then stores no row up front;
// each component's rows are written the first time a Row reads into them.
type RowBlocks interface {
	Decomposer
	// Layout returns the layout: path i is row (i/period)*width + i%width
	// of PristineComponents()[(i%period)/width]. period is a multiple of
	// width, and Len() of period.
	Layout() (period, width int)
	// AppendBlock appends the rows of PristineComponents()[b], in
	// ascending path order, to links, and each row's end position to
	// offsets (one entry per row). It returns the extended slices.
	AppendBlock(b int, links []topo.LinkID, offsets []int32) ([]topo.LinkID, []int32)
}

// MaterializeCSR returns ps's CSR form. A RowBlocks family is recorded and
// stores nothing yet; any other family is walked once into one stored
// block, through the bulk fast path when it implements BulkLinker. A
// Decomposer is recorded for CSR.Pristine, which asks it on first use.
func MaterializeCSR(ps PathSet) *CSR {
	family, _ := ps.(Decomposer)
	if gen, ok := ps.(RowBlocks); ok && ps.Len() > 0 {
		period, width := gen.Layout()
		return &CSR{n: ps.Len(), period: uint32(period), width: uint32(width),
			blocks: make([]derived[rowBlock], period/width), gen: gen, family: family}
	}
	t0 := time.Now()
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
	c := stored(offsets, links)
	c.family = family
	c.blockNS.Store(int64(time.Since(t0)))
	return c
}

// NewCSR stores rows as a one-block matrix, copying them into one arena.
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
	return stored(offsets, links)
}

// stored wraps one arena as a one-block matrix.
func stored(offsets []int32, links []topo.LinkID) *CSR {
	c := &CSR{n: len(offsets) - 1, period: 1, width: 1, blocks: make([]derived[rowBlock], 1)}
	c.blocks[0].v.Store(&rowBlock{offsets: offsets, links: links})
	return c
}
