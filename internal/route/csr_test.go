package route

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// TestMaterializeCSRMatchesAppendLinks: the CSR rows must equal per-path
// AppendLinks output, in order, for every family — generated ones (Fattree)
// and stored arenas alike.
func TestMaterializeCSRMatchesAppendLinks(t *testing.T) {
	f := topo.MustFattree(4)
	v := topo.MustVL2(4, 4, 1)
	b := topo.MustBCube(4, 1)
	sets := []struct {
		name string
		ps   PathSet
	}{
		{"Fattree4", NewFattreePaths(f)},
		{"Fattree8", NewFattreePaths(topo.MustFattree(8))},
		{"VL2", NewVL2Paths(v)},
		{"VL2(4,6,1)", NewVL2Paths(topo.MustVL2(4, 6, 1))},
		{"BCube41", NewBCubePaths(b)},
		{"BCube22", NewBCubePaths(topo.MustBCube(2, 2))},
	}
	for _, s := range sets {
		csr := MaterializeCSR(s.ps)
		if csr.Len() != s.ps.Len() {
			t.Fatalf("%s: CSR has %d rows, PathSet has %d", s.name, csr.Len(), s.ps.Len())
		}
		var buf, row []topo.LinkID
		for i := 0; i < s.ps.Len(); i++ {
			buf = s.ps.AppendLinks(i, buf[:0])
			row = csr.AppendRow(i, row[:0])
			if len(row) != len(buf) {
				t.Fatalf("%s path %d: CSR row %v, AppendLinks %v", s.name, i, row, buf)
			}
			for j := range buf {
				if row[j] != buf[j] {
					t.Fatalf("%s path %d: CSR row %v, AppendLinks %v", s.name, i, row, buf)
				}
			}
		}
	}
}

// TestGeneratedRowsMatchStored: a Fattree's CSR stores no row, and every
// row it generates equals a stored arena written through AppendLinks, which
// itself equals the topology's own PathLinks; MatrixSignature over the
// generated rows equals the stored arena's.
func TestGeneratedRowsMatchStored(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		f := topo.MustFattree(k)
		ps := NewFattreePaths(f)
		flat := MaterializeCSR(struct{ PathSet }{ps})
		csr := MaterializeCSR(ps)
		if csr.gen == nil || csr.links != nil || csr.offsets != nil {
			t.Fatalf("Fattree(%d): the CSR stores an arena; its rows should be generated", k)
		}
		tors := f.ToRList()
		var want, got, stored []topo.LinkID
		for i := 0; i < ps.Len(); i++ {
			s, d, c := ps.Decode(i)
			want = f.PathLinks(tors[s], tors[d], c, want[:0])
			stored = flat.AppendRow(i, stored[:0])
			got = csr.AppendRow(i, got[:0])
			if !slices.Equal(stored, want) || !slices.Equal(got, want) {
				t.Fatalf("Fattree(%d) path %d: generated %v, stored %v, PathLinks %v", k, i, got, stored, want)
			}
		}
		if got, want := MatrixSignature(csr, f.NumLinks()), MatrixSignature(flat, f.NumLinks()); got != want {
			t.Fatalf("Fattree(%d): signature %#016x from generated rows, %#016x from stored", k, got, want)
		}
	}
}

// TestFattreeRepresentativePrefix: the representatives listed among every
// path index are the paths whose source is in pod 0, a prefix.
func TestFattreeRepresentativePrefix(t *testing.T) {
	ps := NewFattreePaths(topo.MustFattree(4))
	all := make([]int32, ps.Len())
	for i := range all {
		all[i] = int32(i)
	}
	reps := ps.AppendRepresentatives(PathList(all), nil)
	for i := range all {
		s, _, _ := ps.Decode(i)
		if listed := i < len(reps) && reps[i] == int32(i); listed != (s/ps.F.Half() == 0) {
			t.Fatalf("path %d: listed=%v, source pod %d", i, listed, s/ps.F.Half())
		}
	}
}

// TestRepresentativeListingMatchesPredicate: each family lists exactly the
// positions where its representative predicate holds — over every path,
// over each pristine component's Paths, over seeded random ascending
// subsets of those (as a down-link mask leaves a component), and over none
// — and a Fattree's listing is a prefix.
func TestRepresentativeListingMatchesPredicate(t *testing.T) {
	f, v, b := topo.MustFattree(8), topo.MustVL2(8, 4, 2), topo.MustBCube(4, 1)
	fp, vp, bp := NewFattreePaths(f), NewVL2Paths(v), NewBCubePaths(b)
	rng := rand.New(rand.NewSource(38))
	for _, fc := range []struct {
		name     string
		sym      Symmetric
		rep      func(int) bool
		numLinks int
	}{
		{"Fattree(8)", fp, fp.isRepresentative, f.NumLinks()},
		{"VL2(8,4,2)", vp, vp.isRepresentative, v.NumLinks()},
		{"BCube(4,1)", bp, bp.isRepresentative, b.NumLinks()},
	} {
		all := make([]int32, fc.sym.Len())
		for i := range all {
			all[i] = int32(i)
		}
		n := fc.sym.Len()
		lists := []Paths{{}, PathList([]int32{}), PathList(all), PathSpan(0, n, n, n)}
		for _, c := range MaterializeCSR(fc.sym).Pristine(fc.numLinks).Comps {
			lists = append(lists, c.Paths, PathList(c.Paths.Append(nil)))
			for trial := 0; trial < 4; trial++ {
				keep := rng.Float64()
				var sub []int32
				for _, p := range c.Paths.Append(nil) {
					if rng.Float64() < keep {
						sub = append(sub, p)
					}
				}
				lists = append(lists, PathList(sub))
			}
		}
		for li, paths := range lists {
			var want []int32
			for r, p := range paths.Append(nil) {
				if fc.rep(int(p)) {
					want = append(want, int32(r))
				}
			}
			got := fc.sym.AppendRepresentatives(paths, []int32{-1})
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s list %d (%d paths): listed %d representatives, the predicate holds for %d",
					fc.name, li, paths.Len(), len(got)-1, len(want))
			}
			if fc.sym == Symmetric(fp) {
				for i, r := range want {
					if r != int32(i) {
						t.Fatalf("%s list %d: representative %d at position %d, not a prefix", fc.name, li, i, r)
					}
				}
			}
		}
	}
}

// TestAllFamiliesTakeBulkFastPath pins the ROADMAP item that every
// built-in family materializes without per-path AppendLinks: VL2 and BCube
// through the BulkLinker fast path, Fattree by storing nothing (Generator,
// TestGeneratedRowsMatchStored). A family silently falling back to
// per-path AppendLinks would pay one interface call and several link-map
// lookups per candidate, which dominates MaterializeCSR at scale.
func TestAllFamiliesTakeBulkFastPath(t *testing.T) {
	if _, ok := PathSet(NewFattreePaths(topo.MustFattree(4))).(Generator); !ok {
		t.Error("Fattree: FattreePaths does not implement Generator — every row stored up front")
	}
	sets := []struct {
		name string
		ps   PathSet
	}{
		{"VL2", NewVL2Paths(topo.MustVL2(4, 4, 1))},
		{"BCube", NewBCubePaths(topo.MustBCube(4, 1))},
	}
	for _, s := range sets {
		bl, ok := s.ps.(BulkLinker)
		if !ok {
			t.Errorf("%s: %T does not implement BulkLinker — generic fallback in use", s.name, s.ps)
			continue
		}
		links, offsets := bl.AppendAllLinks(nil, make([]int32, 1, s.ps.Len()+1))
		if len(offsets) != s.ps.Len()+1 {
			t.Errorf("%s: AppendAllLinks emitted %d offsets, want %d", s.name, len(offsets), s.ps.Len()+1)
		}
		if int(offsets[len(offsets)-1]) != len(links) {
			t.Errorf("%s: final offset %d does not close the arena of %d links",
				s.name, offsets[len(offsets)-1], len(links))
		}
	}
}

// storedFamily hides a family's Generator capability: MaterializeCSR
// stores its rows as an arena, and Pristine indexes them.
type storedFamily struct{ Decomposer }

// TestPristineRowsThroughMatchesScan: every link lists exactly the rows a
// scan of the whole matrix finds through it, ascending, after what the
// buffer held — a Fattree's generated from its layout, a Fattree's stored
// as an arena from its counting-sort index, and VL2's and BCube's — and a
// link in no component (a server link, -1, an ID past the fabric) lists
// none. Every switch link of a Fattree carries rows, and the family lists
// the same rows on its own; a generated Fattree builds no index.
func TestPristineRowsThroughMatchesScan(t *testing.T) {
	f4, f6, f8 := topo.MustFattree(4), topo.MustFattree(6), topo.MustFattree(8)
	for _, s := range []struct {
		name     string
		ps       PathSet
		numLinks int
		fattree  *topo.Fattree
	}{
		{"Fattree4", NewFattreePaths(f4), f4.NumLinks(), f4},
		{"Fattree6", NewFattreePaths(f6), f6.NumLinks(), f6},
		{"Fattree8", NewFattreePaths(f8), f8.NumLinks(), f8},
		{"Fattree4-stored", storedFamily{NewFattreePaths(f4)}, f4.NumLinks(), nil},
		{"Fattree6-stored", storedFamily{NewFattreePaths(f6)}, f6.NumLinks(), nil},
		{"VL2(4,4,2)", NewVL2Paths(topo.MustVL2(4, 4, 2)), topo.MustVL2(4, 4, 2).NumLinks(), nil},
		{"BCube(4,1)", NewBCubePaths(topo.MustBCube(4, 1)), topo.MustBCube(4, 1).NumLinks(), nil},
	} {
		csr := MaterializeCSR(s.ps)
		scan := make([][]int32, s.numLinks+1) // scan[numLinks] stays empty
		var row []topo.LinkID
		for i := 0; i < csr.Len(); i++ {
			row = csr.AppendRow(i, row[:0])
			for _, l := range row {
				scan[l] = append(scan[l], int32(i))
			}
		}
		p := csr.Pristine(s.numLinks)
		index0, _, _ := Built()
		for l := -1; l <= s.numLinks; l++ {
			var want []int32
			if l >= 0 {
				want = scan[l]
			}
			if l >= 0 && l < s.numLinks && len(scan[l]) > 0 && p.CompOf(topo.LinkID(l)) < 0 {
				t.Fatalf("%s: link %d carries rows but is in no component", s.name, l)
			}
			got := p.AppendRowsThrough(topo.LinkID(l), []int32{-7})
			if got[0] != -7 || !slices.Equal(got[1:], want) || !slices.IsSorted(got[1:]) {
				t.Fatalf("%s: link %d: rows %v, scan %v", s.name, l, got[1:], want)
			}
			if gen, ok := s.ps.(Generator); ok {
				if got := gen.AppendRowsThrough(topo.LinkID(l), nil); !slices.Equal(got, want) {
					t.Fatalf("%s: the family lists rows %v through link %d, scan %v", s.name, got, l, want)
				}
			}
		}
		if s.fattree != nil {
			for _, l := range s.fattree.SwitchLinks() {
				if len(scan[l]) == 0 {
					t.Fatalf("%s: switch link %d carries no row", s.name, l)
				}
			}
			if index, _, _ := Built(); index != index0 {
				t.Fatalf("%s: listing the rows through every link built %d indexes, want none", s.name, index-index0)
			}
		}
	}
}

// TestFlapIndexesTouchedComponentOnly: a differ booted with nothing down
// indexes no component; a flap indexes exactly the pristine component of
// its link, once, and says what readying it cost in its first diff only.
// The index is a stored matrix's: VL2's (one component) and a Fattree's
// written out as an arena (four, so a global index would show); a Fattree
// whose rows are generated builds none.
func TestFlapIndexesTouchedComponentOnly(t *testing.T) {
	v, f := topo.MustVL2(8, 4, 2), topo.MustFattree(8)
	for _, s := range []struct {
		name     string
		ps       PathSet
		links    []topo.LinkID
		numLinks int
		indexes  bool
	}{
		{"VL2(8,4,2)", NewVL2Paths(v), v.SwitchLinks(), v.NumLinks(), true},
		{"Fattree(8)-stored", storedFamily{NewFattreePaths(f)}, f.SwitchLinks()[:40], f.NumLinks(), true},
		{"Fattree(8)", NewFattreePaths(f), f.SwitchLinks()[:40], f.NumLinks(), false},
	} {
		inc := mustIncremental(t, MaterializeCSR(s.ps), s.numLinks, nil)
		p := inc.pristine
		indexed := func() []int {
			var out []int
			for ci := range p.Comps {
				if p.index[ci].v.Load() != nil {
					out = append(out, ci)
				}
			}
			return out
		}
		if got := indexed(); got != nil {
			t.Fatalf("%s: boot with nothing down indexed components %v", s.name, got)
		}
		index0, _, _ := Built()
		var touched []int
		for i, l := range s.links {
			ci := p.CompOf(l)
			if ci < 0 {
				continue
			}
			first := !slices.Contains(touched, ci)
			if first {
				touched = append(touched, ci)
				slices.Sort(touched)
			}
			down, err := inc.Apply([]topo.LinkID{l}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inc.Apply(nil, []topo.LinkID{l}); err != nil {
				t.Fatal(err)
			}
			want := touched
			if !s.indexes {
				want = nil
			}
			if got := indexed(); !slices.Equal(got, want) {
				t.Fatalf("%s: flap %d (link %d): indexed components %v, want %v", s.name, i, l, got, want)
			}
			if (down.IndexTime > 0) != first {
				t.Fatalf("%s: flap %d (link %d): first touch of component %d = %v, but the diff spent %v readying it",
					s.name, i, l, ci, first, down.IndexTime)
			}
		}
		if len(p.Comps) > 1 && len(touched) < 2 {
			t.Fatalf("%s: the flaps touched one component; the test cannot tell a global index from a local one", s.name)
		}
		if index, _, _ := Built(); !s.indexes && index != index0 {
			t.Fatalf("%s: the flaps built %d indexes, want none", s.name, index-index0)
		}
	}
}

// TestPristineIndexFirstTouchIsShared: repairs of masked components with one
// parent run in parallel and may be the first to ask for its links. Every
// caller reads the same rows, and a stored matrix's index is built once; a
// Fattree's rows through a link are generated, and it builds none.
func TestPristineIndexFirstTouchIsShared(t *testing.T) {
	v, f := topo.MustVL2(8, 4, 2), topo.MustFattree(4)
	for _, s := range []struct {
		name     string
		ps       PathSet
		numLinks int
		want     int64
	}{
		{"VL2(8,4,2)", NewVL2Paths(v), v.NumLinks(), 1},
		{"Fattree(4)-stored", storedFamily{NewFattreePaths(f)}, f.NumLinks(), 1},
		{"Fattree(4)", NewFattreePaths(f), f.NumLinks(), 0},
	} {
		p := MaterializeCSR(s.ps).Pristine(s.numLinks)
		links := p.Comps[0].Links
		before, _, _ := Built()
		got := make([][]int32, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, l := range links {
					got[g] = p.AppendRowsThrough(l, got[g])
				}
			}(g)
		}
		wg.Wait()
		if after, _, _ := Built(); after-before != s.want {
			t.Fatalf("%s: eight first touches built %d indexes of one component, want %d", s.name, after-before, s.want)
		}
		for g := 1; g < len(got); g++ {
			if !slices.Equal(got[g], got[0]) {
				t.Fatalf("%s: goroutine %d read different rows", s.name, g)
			}
		}
	}
}
