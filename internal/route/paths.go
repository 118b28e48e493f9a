package route

import (
	"fmt"
	"math"
	"slices"
)

// Paths is a component's candidate paths: global path indices, ascending,
// one per row of the component. It has two forms, which every method
// answers alike. A list holds the indices. A span names them: row r is
// first + (r/width)*period + r%width, a run of width consecutive indices
// every period — a Fattree component's paths (one run of its group's cores
// per ordered ToR pair) or a whole matrix (one run). A span stores nothing
// per path, so a pristine Fattree component costs its header, not its
// 130 048 rows (Fattree(16)).
//
// Rows are read through Len, At, Find and Search, an in-order Walk, and
// Append, which writes the list form out. Nothing outside this type needs
// to know which form it holds.
type Paths struct {
	list []int32
	// A span when width > 0; a contiguous span is kept as one run
	// (width = period = n), so equal contiguous spans compare field by
	// field.
	first, width, period, n int32
}

// PathList wraps ids, ascending, as a list, without copying it.
func PathList(ids []int32) Paths { return Paths{list: ids} }

// PathSpan returns the span of n rows whose row r is
// first + (r/width)*period + r%width. It panics unless width > 0 and
// period >= width, or when the last index would pass the int32 range.
func PathSpan(first, width, period, n int) Paths {
	if n <= 0 {
		return Paths{}
	}
	if width <= 0 || period < width || first < 0 {
		panic(fmt.Sprintf("route: invalid path span (first %d, width %d, period %d)", first, width, period))
	}
	if n <= width || period == width {
		width, period = n, n
	}
	if last := first + (n-1)/width*period + (n-1)%width; last > math.MaxInt32 {
		panic(fmt.Sprintf("route: path span reaches index %d, past the int32 range", last))
	}
	return Paths{first: int32(first), width: int32(width), period: int32(period), n: int32(n)}
}

func (p Paths) span() bool { return p.width > 0 }

// Len returns the number of rows.
func (p Paths) Len() int {
	if p.span() {
		return int(p.n)
	}
	return len(p.list)
}

// At returns the path index at row r, which must be in [0, Len()).
func (p Paths) At(r int) int32 {
	if !p.span() {
		return p.list[r]
	}
	if uint(r) >= uint(p.n) {
		panic("route: row out of range")
	}
	w := int32(r)
	return p.first + w/p.width*p.period + w%p.width
}

// Search returns the number of rows whose path index is below id: the row
// id has, or would be inserted at.
func (p Paths) Search(id int32) int {
	if !p.span() {
		r, _ := slices.BinarySearch(p.list, id)
		return r
	}
	if id <= p.first {
		return 0
	}
	d := id - p.first
	r := d/p.period*p.width + min(d%p.period, p.width)
	return int(min(r, p.n))
}

// Find returns the row holding path index id, or -1 when none does.
func (p Paths) Find(id int32) int32 {
	if !p.span() {
		if r, ok := slices.BinarySearch(p.list, id); ok {
			return int32(r)
		}
		return -1
	}
	if id < p.first {
		return -1
	}
	d := id - p.first
	off := d % p.period
	if off >= p.width {
		return -1
	}
	if r := d/p.period*p.width + off; r < p.n {
		return r
	}
	return -1
}

// Append appends every path index, in row order, to buf and returns the
// extended slice.
func (p Paths) Append(buf []int32) []int32 {
	if !p.span() {
		return append(buf, p.list...)
	}
	buf = slices.Grow(buf, int(p.n))
	for run, left := p.first, p.n; left > 0; run += p.period {
		w := min(p.width, left)
		for id := run; id < run+w; id++ {
			buf = append(buf, id)
		}
		left -= w
	}
	return buf
}

// Equal reports whether p and q hold the same path indices, whatever
// their forms. Equal spans, and lists sharing a backing array, answer
// without reading a row.
func (p Paths) Equal(q Paths) bool {
	n := p.Len()
	switch {
	case n != q.Len():
		return false
	case p.span() && q.span() && p.first == q.first && p.width == q.width && p.period == q.period:
		return true
	case !p.span() && !q.span():
		return same(p.list, q.list)
	}
	a, b := p.Walk(), q.Walk()
	for range n {
		if a.Next() != b.Next() {
			return false
		}
	}
	return true
}

// Walk returns a reader of p's path indices in row order.
func (p Paths) Walk() PathWalk { return p.WalkFrom(0) }

// WalkFrom returns a reader of p's path indices in row order from row r,
// which must be in [0, Len()].
func (p Paths) WalkFrom(r int) PathWalk {
	if !p.span() {
		return PathWalk{list: p.list, at: r}
	}
	w := int32(r)
	run := p.first + w/p.width*p.period
	return PathWalk{id: run + w%p.width, stop: run + p.width, gap: p.period - p.width, period: p.period}
}

// PathWalk reads a Paths row by row. A span is stepped without a division
// per row: within a run the next index is one more, and a run's end jumps
// to the next run.
type PathWalk struct {
	list          []int32 // the list form's rows
	at            int     // list: the next row
	id, stop, gap int32   // span: the next index, its run's end, the gap to the next run
	period        int32   // 0 for a list
}

// Next returns the next row's path index. It must be called at most Len
// times.
func (w *PathWalk) Next() int32 {
	if w.period == 0 {
		w.at++
		return w.list[w.at-1]
	}
	id := w.id
	if w.id++; w.id == w.stop {
		w.id += w.gap
		w.stop += w.period
	}
	return id
}
