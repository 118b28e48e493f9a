package route

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// TestMaterializeCSRMatchesAppendLinks: the CSR rows must equal per-path
// AppendLinks output, in order, for every family — including Fattree, whose
// rows are written by its block writer, not by AppendLinks.
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
		var buf []topo.LinkID
		for i := 0; i < s.ps.Len(); i++ {
			buf = s.ps.AppendLinks(i, buf[:0])
			row := csr.Row(i)
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

// TestFattreeRowBlocksUsed guards the block writer's registration — losing
// the interface assertion would silently store every row up front — and
// pins what it writes: block b holds PristineComponents()[b]'s rows, each
// equal to AppendLinks.
func TestFattreeRowBlocksUsed(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		ps := NewFattreePaths(topo.MustFattree(k))
		rb, ok := interface{}(ps).(RowBlocks)
		if !ok {
			t.Fatal("FattreePaths no longer implements RowBlocks")
		}
		period, width := rb.Layout()
		comps := rb.PristineComponents()
		if period/width != len(comps) {
			t.Fatalf("Fattree(%d): layout (%d, %d) names %d blocks, %d components", k, period, width, period/width, len(comps))
		}
		var want []topo.LinkID
		for b, c := range comps {
			links, offsets := rb.AppendBlock(b, nil, make([]int32, 1, len(c.Paths)+1))
			if len(offsets) != len(c.Paths)+1 || int(offsets[len(offsets)-1]) != len(links) {
				t.Fatalf("Fattree(%d) block %d: %d offsets closing at %d over %d links, want %d rows",
					k, b, len(offsets), offsets[len(offsets)-1], len(links), len(c.Paths))
			}
			for j, pid := range c.Paths {
				want = ps.AppendLinks(int(pid), want[:0])
				if got := links[offsets[j]:offsets[j+1]]; !slices.Equal(got, want) {
					t.Fatalf("Fattree(%d) block %d row %d (path %d): %v, AppendLinks %v", k, b, j, pid, got, want)
				}
				if i := int(pid); (i%period)/width != b || (i/period)*width+i%width != j {
					t.Fatalf("Fattree(%d): the layout places path %d outside block %d row %d", k, pid, b, j)
				}
			}
		}
	}
}

// TestGeneratedRowsMatchStored: on a Fattree, whose rows are stored a
// pristine component at a time on first read, every Row and AppendRow —
// before its block is stored and after — equals a flat materialization
// through AppendLinks, which itself equals the topology's own PathLinks;
// and MatrixSignature, computed from generated rows with no block stored,
// equals the flat matrix's. Eight goroutines store the blocks at once: each
// is stored exactly once, and every reader sees the same rows.
func TestGeneratedRowsMatchStored(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		f := topo.MustFattree(k)
		ps := NewFattreePaths(f)
		flat := MaterializeCSR(struct{ PathSet }{ps})
		tors := f.ToRList()
		var want, got []topo.LinkID
		for i := 0; i < ps.Len(); i++ {
			s, d, c := ps.Decode(i)
			want = f.PathLinks(tors[s], tors[d], c, want[:0])
			if !slices.Equal(flat.Row(i), want) {
				t.Fatalf("Fattree(%d) path %d: AppendLinks %v, PathLinks %v", k, i, flat.Row(i), want)
			}
		}

		csr := MaterializeCSR(ps)
		_, _, _, blocks0 := Built()
		if got, want := MatrixSignature(csr, f.NumLinks()), MatrixSignature(flat, f.NumLinks()); got != want {
			t.Fatalf("Fattree(%d): signature %#016x from generated rows, %#016x from stored", k, got, want)
		}
		for i := 0; i < csr.Len(); i++ {
			if got = csr.AppendRow(i, got[:0]); !slices.Equal(got, flat.Row(i)) {
				t.Fatalf("Fattree(%d) path %d: generated %v, stored %v", k, i, got, flat.Row(i))
			}
		}
		if _, _, _, blocks := Built(); blocks != blocks0 {
			t.Fatalf("Fattree(%d): the signature and generated reads stored %d blocks", k, blocks-blocks0)
		}

		const readers = 8
		var wg sync.WaitGroup
		bad := make([]int, readers)
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				bad[g] = -1
				for i := g; i < csr.Len(); i += readers {
					if !slices.Equal(csr.Row(i), flat.Row(i)) {
						bad[g] = i
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, i := range bad {
			if i >= 0 {
				t.Fatalf("Fattree(%d) path %d: first-read row %v, stored %v", k, i, csr.Row(i), flat.Row(i))
			}
		}
		if _, _, _, blocks := Built(); blocks-blocks0 != int64(f.Half()) {
			t.Fatalf("Fattree(%d): %d concurrent readers stored %d blocks, want one per component (%d)",
				k, readers, blocks-blocks0, f.Half())
		}
		for i := 0; i < csr.Len(); i++ {
			if got = csr.AppendRow(i, got[:0]); !slices.Equal(got, flat.Row(i)) || !slices.Equal(csr.Row(i), flat.Row(i)) {
				t.Fatalf("Fattree(%d) path %d: stored %v / %v, flat %v", k, i, csr.Row(i), got, flat.Row(i))
			}
		}
		if got, want := MatrixSignature(csr, f.NumLinks()), MatrixSignature(flat, f.NumLinks()); got != want {
			t.Fatalf("Fattree(%d): signature %#016x from stored blocks, %#016x flat", k, got, want)
		}
	}
}

// TestDecomposeCSRMatchesDecompose: the CSR decomposition must produce the
// same components as the PathSet wrapper.
func TestDecomposeCSRMatchesDecompose(t *testing.T) {
	f := topo.MustFattree(4)
	ps := NewFattreePaths(f)
	a := Decompose(ps, f.NumLinks())
	b := DecomposeCSR(MaterializeCSR(ps), f.NumLinks())
	if len(a) != len(b) {
		t.Fatalf("component counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Links) != len(b[i].Links) || len(a[i].Paths) != len(b[i].Paths) {
			t.Fatalf("component %d shape differs", i)
		}
		for j := range a[i].Links {
			if a[i].Links[j] != b[i].Links[j] {
				t.Fatalf("component %d link %d differs", i, j)
			}
		}
		for j := range a[i].Paths {
			if a[i].Paths[j] != b[i].Paths[j] {
				t.Fatalf("component %d path %d differs", i, j)
			}
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
	reps := ps.AppendRepresentatives(all, nil)
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
		lists := [][]int32{nil, {}, all}
		for _, c := range MaterializeCSR(fc.sym).Pristine(fc.numLinks).Comps {
			lists = append(lists, c.Paths)
			for trial := 0; trial < 4; trial++ {
				keep := rng.Float64()
				var sub []int32
				for _, p := range c.Paths {
					if rng.Float64() < keep {
						sub = append(sub, p)
					}
				}
				lists = append(lists, sub)
			}
		}
		for li, paths := range lists {
			var want []int32
			for r, p := range paths {
				if fc.rep(int(p)) {
					want = append(want, int32(r))
				}
			}
			got := fc.sym.AppendRepresentatives(paths, []int32{-1})
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s list %d (%d paths): listed %d representatives, the predicate holds for %d",
					fc.name, li, len(paths), len(got)-1, len(want))
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
// through the BulkLinker fast path, Fattree through its block writer
// (TestFattreeRowBlocksUsed). A family silently falling back to per-path
// AppendLinks would pay one interface call and several link-map lookups
// per candidate, which dominates MaterializeCSR at scale.
func TestAllFamiliesTakeBulkFastPath(t *testing.T) {
	if _, ok := PathSet(NewFattreePaths(topo.MustFattree(4))).(RowBlocks); !ok {
		t.Error("Fattree: FattreePaths does not implement RowBlocks — every row stored up front")
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

// TestPristineRowsThroughMatchesScan: every link of every pristine
// component lists exactly the rows a scan of the whole matrix finds through
// it, ascending, and a link in no component lists none.
func TestPristineRowsThroughMatchesScan(t *testing.T) {
	for _, s := range []struct {
		name     string
		ps       PathSet
		numLinks int
	}{
		{"Fattree4", NewFattreePaths(topo.MustFattree(4)), topo.MustFattree(4).NumLinks()},
		{"Fattree6", NewFattreePaths(topo.MustFattree(6)), topo.MustFattree(6).NumLinks()},
		{"Fattree8", NewFattreePaths(topo.MustFattree(8)), topo.MustFattree(8).NumLinks()},
		{"VL2(4,4,2)", NewVL2Paths(topo.MustVL2(4, 4, 2)), topo.MustVL2(4, 4, 2).NumLinks()},
		{"BCube(4,1)", NewBCubePaths(topo.MustBCube(4, 1)), topo.MustBCube(4, 1).NumLinks()},
	} {
		csr := MaterializeCSR(s.ps)
		scan := make([][]int32, s.numLinks)
		for i := 0; i < csr.Len(); i++ {
			for _, l := range csr.Row(i) {
				scan[l] = append(scan[l], int32(i))
			}
		}
		p := csr.Pristine(s.numLinks)
		inSome := make([]bool, s.numLinks)
		for ci, c := range p.Comps {
			for _, l := range c.Links {
				inSome[l] = true
				got := p.RowsThrough(l)
				if !slices.Equal(got, scan[l]) || !slices.IsSorted(got) {
					t.Fatalf("%s: component %d link %d: rows %v, scan %v", s.name, ci, l, got, scan[l])
				}
			}
		}
		for l := -1; l <= s.numLinks; l++ {
			if (l < 0 || l == s.numLinks || !inSome[l]) && p.RowsThrough(topo.LinkID(l)) != nil {
				t.Fatalf("%s: link %d is in no component but lists rows", s.name, l)
			}
		}
	}
}

// TestFlapIndexesTouchedComponentOnly: a differ booted with nothing down
// indexes no component; a flap indexes exactly the pristine component of
// its link, once, and says what that cost in its first diff only.
func TestFlapIndexesTouchedComponentOnly(t *testing.T) {
	f := topo.MustFattree(8)
	csr := MaterializeCSR(NewFattreePaths(f))
	inc := mustIncremental(t, csr, f.NumLinks(), nil)
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
		t.Fatalf("boot with nothing down indexed components %v", got)
	}
	var want []int
	for i, l := range f.SwitchLinks()[:40] {
		ci := p.comp(l)
		first := !slices.Contains(want, ci)
		if first {
			want = append(want, ci)
			slices.Sort(want)
		}
		down, err := inc.Apply([]topo.LinkID{l}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Apply(nil, []topo.LinkID{l}); err != nil {
			t.Fatal(err)
		}
		if got := indexed(); !slices.Equal(got, want) {
			t.Fatalf("flap %d (link %d): indexed components %v, want %v", i, l, got, want)
		}
		if (down.IndexTime > 0) != first {
			t.Fatalf("flap %d (link %d): first touch of component %d = %v, but the diff spent %v indexing", i, l, ci, first, down.IndexTime)
		}
	}
	if len(want) < 2 {
		t.Fatal("the flaps touched one component; the test cannot tell a global index from a local one")
	}
}

// TestPristineIndexFirstTouchIsShared: repairs of masked components with one
// parent run in parallel and may be the first to ask for its links. Every
// caller gets the same index, and it is built once.
func TestPristineIndexFirstTouchIsShared(t *testing.T) {
	f := topo.MustFattree(4)
	p := MaterializeCSR(NewFattreePaths(f)).Pristine(f.NumLinks())
	links := p.Comps[0].Links
	before, _, _, _ := Built()
	got := make([][]int32, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, l := range links {
				got[g] = append(got[g], p.RowsThrough(l)...)
			}
		}(g)
	}
	wg.Wait()
	if after, _, _, _ := Built(); after-before != 1 {
		t.Fatalf("eight first touches built %d indexes of one component, want 1", after-before)
	}
	for g := 1; g < len(got); g++ {
		if !slices.Equal(got[g], got[0]) {
			t.Fatalf("goroutine %d read a different index", g)
		}
	}
}
