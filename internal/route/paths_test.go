package route

import (
	"fmt"
	"slices"
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// TestPathsFormsAgree is the differential test of the two Paths forms: the
// pristine components of Fattrees (spans), VL2 and BCube (lists) and every
// matrix's single component (the identity span) must answer exactly as
// their path lists do, listed or read off the list by hand.
func TestPathsFormsAgree(t *testing.T) {
	type matrix struct {
		name     string
		ps       PathSet
		numLinks int
	}
	var ms []matrix
	for _, k := range []int{4, 6, 8, 12, 16} {
		f := topo.MustFattree(k)
		ms = append(ms, matrix{fmt.Sprintf("Fattree(%d)", k), NewFattreePaths(f), f.NumLinks()})
	}
	v, b := topo.MustVL2(8, 4, 2), topo.MustBCube(4, 1)
	ms = append(ms, matrix{"VL2(8,4,2)", NewVL2Paths(v), v.NumLinks()},
		matrix{"BCube(4,1)", NewBCubePaths(b), b.NumLinks()})
	for _, m := range ms {
		csr := MaterializeCSR(m.ps)
		pristine := csr.Pristine(m.numLinks)
		for ci, c := range pristine.Comps {
			name := fmt.Sprintf("%s component %d", m.name, ci)
			checkPathsForms(t, name, c.Paths, m.ps.Len())
			list := Component{Links: c.Links, Paths: PathList(c.Paths.Append(nil))}
			short := Component{Links: c.Links, Paths: PathList(c.Paths.Append(nil)[:c.Paths.Len()-1])}
			if !pristine.Is(&c) || !pristine.Is(&list) || pristine.Is(&short) {
				t.Fatalf("%s: Pristine.Is %v as it is, %v listed, %v one row short; want true, true, false",
					name, pristine.Is(&c), pristine.Is(&list), pristine.Is(&short))
			}
		}
		single := SingleComponentCSR(csr, m.numLinks)
		checkPathsForms(t, m.name+" single component", single.Paths, m.ps.Len())
		if got, want := pristine.Is(&single), len(pristine.Comps) == 1; got != want {
			t.Fatalf("%s: Pristine.Is(single component) = %v with %d pristine components", m.name, got, len(pristine.Comps))
		}
	}
}

// checkPathsForms checks p, and the list of p's path indices, against that
// list read by hand; numPaths is the matrix's path count. Find and Search
// are asked every path index of the matrix, -1 and numPaths.
func checkPathsForms(t *testing.T, name string, p Paths, numPaths int) {
	t.Helper()
	ids := p.Append(nil)
	if len(ids) != p.Len() || !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
		t.Fatalf("%s: %d rows list %d paths, not strictly ascending", name, p.Len(), len(ids))
	}
	for _, q := range []Paths{p, PathList(ids)} {
		if q.Len() != len(ids) {
			t.Fatalf("%s: Len %d, want %d", name, q.Len(), len(ids))
		}
		w := q.Walk()
		for r, id := range ids {
			if got := q.At(r); got != id {
				t.Fatalf("%s: At(%d) = %d, want %d", name, r, got, id)
			}
			if got := w.Next(); got != id {
				t.Fatalf("%s: the walk reads %d at row %d, want %d", name, got, r, id)
			}
		}
		for _, r := range []int{0, 1, len(ids) / 3, len(ids) - 1, len(ids)} {
			if r > len(ids) {
				continue
			}
			w := q.WalkFrom(r)
			for i := r; i < min(r+5, len(ids)); i++ {
				if got := w.Next(); got != ids[i] {
					t.Fatalf("%s: the walk from row %d reads %d at row %d, want %d", name, r, got, i, ids[i])
				}
			}
		}
		for id := int32(-1); id <= int32(numPaths); id++ {
			at, ok := slices.BinarySearch(ids, id)
			want := int32(-1)
			if ok {
				want = int32(at)
			}
			if got := q.Find(id); got != want {
				t.Fatalf("%s: Find(%d) = %d, want %d", name, id, got, want)
			}
			if got := q.Search(id); got != at {
				t.Fatalf("%s: Search(%d) = %d, want %d", name, id, got, at)
			}
		}
		prefix := []int32{-7, 3}
		if got := q.Append(slices.Clone(prefix)); !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], ids) {
			t.Fatalf("%s: Append onto a non-empty buffer lost its prefix or its paths", name)
		}
		if !q.Equal(p) || !p.Equal(q) {
			t.Fatalf("%s: the forms are not equal", name)
		}
		if len(ids) > 0 && (q.Equal(PathList(ids[1:])) || PathList(ids[:len(ids)-1]).Equal(q)) {
			t.Fatalf("%s: equal to a list one row short", name)
		}
	}
	if len(ids) > 1 {
		bumped := slices.Clone(ids)
		bumped[len(bumped)-1]++
		if p.Equal(PathList(bumped)) {
			t.Fatalf("%s: equal to a list whose last path differs", name)
		}
	}
}

// TestPathSpanShapes: degenerate spans are one run, and a span that would
// pass the int32 path-index range, or has no run, is refused.
func TestPathSpanShapes(t *testing.T) {
	if got := PathSpan(5, 4, 4, 10).Append(nil); !slices.Equal(got, []int32{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}) {
		t.Fatalf("a span of touching runs lists %v", got)
	}
	if got := PathSpan(2, 8, 20, 3).Append(nil); !slices.Equal(got, []int32{2, 3, 4}) {
		t.Fatalf("a span shorter than one run lists %v", got)
	}
	if !PathSpan(0, 3, 3, 9).Equal(PathSpan(0, 9, 9, 9)) || !PathSpan(0, 3, 7, 6).Equal(PathList([]int32{0, 1, 2, 7, 8, 9})) {
		t.Fatal("equal spans of other shapes compare unequal")
	}
	if p := PathSpan(0, 1, 1, 0); p.Len() != 0 || p.Equal(PathList([]int32{0})) || !p.Equal(PathList(nil)) {
		t.Fatal("an empty span is not the empty list")
	}
	for _, bad := range [][4]int{{0, 0, 1, 1}, {0, 4, 3, 8}, {-1, 1, 1, 1}, {1 << 30, 1, 1 << 30, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PathSpan%v did not panic", bad)
				}
			}()
			PathSpan(bad[0], bad[1], bad[2], bad[3])
		}()
	}
}
