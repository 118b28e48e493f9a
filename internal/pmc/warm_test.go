package pmc

import (
	"reflect"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestMemoExactHitBitIdentical: a second warm construction over identical
// components must return the identical selection without solving anything,
// and both must match the cold path bit for bit.
func TestMemoExactHitBitIdentical(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := route.DecomposeCSR(csr, f.NumLinks())
	opt := Options{Alpha: 1, Beta: 1, Ablate: NoSymmetry}

	cold, err := ConstructComponents(ps, csr, comps, f.NumLinks(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(0)
	warm1, err := ConstructComponents(ps, csr, comps, f.NumLinks(), opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := ConstructComponents(ps, csr, comps, f.NumLinks(), opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Selected, warm1.Selected) {
		t.Fatal("first warm construction diverges from cold")
	}
	if !reflect.DeepEqual(cold.Selected, warm2.Selected) {
		t.Fatal("memo-hit construction diverges from cold")
	}
	st := memo.Stats()
	if st.Misses != int64(len(comps)) || st.Hits != int64(len(comps)) {
		t.Fatalf("memo stats hits=%d misses=%d, want %d/%d", st.Hits, st.Misses, len(comps), len(comps))
	}
	if warm2.Stats.ScoreEvals != 0 {
		t.Fatalf("memo-hit construction scored %d rows, want 0", warm2.Stats.ScoreEvals)
	}
}

// TestMemoFlapBack: down a link, bring it back — the restored components hit
// the memo entries from before the flap (the churn case the memo exists for).
func TestMemoFlapBack(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	opt := Options{Alpha: 1, Beta: 1, Ablate: NoSymmetry}
	memo := NewMemo(0)

	inc, err := route.NewIncremental(csr, f.NumLinks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := append([]route.Component(nil), inc.Components()...)
	res0, err := ConstructComponents(ps, csr, base, f.NumLinks(), opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	// Flap the first link of the first component down and back up.
	l := base[0].Links[0]
	if _, err := inc.Apply([]topo.LinkID{l}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ConstructComponents(ps, csr, inc.Components(), f.NumLinks(), opt, memo); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(nil, []topo.LinkID{l}); err != nil {
		t.Fatal(err)
	}
	preHits := memo.Stats().Hits
	res2, err := ConstructComponents(ps, csr, inc.Components(), f.NumLinks(), opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	if got := memo.Stats().Hits - preHits; got != int64(len(base)) {
		t.Fatalf("flap-back hit %d components, want all %d", got, len(base))
	}
	if !reflect.DeepEqual(res0.Selected, res2.Selected) {
		t.Fatal("flap-back selection diverges from the original")
	}
}

// TestMemoEviction: the memo drops oldest entries beyond its capacity.
func TestMemoEviction(t *testing.T) {
	csrRows := [][]topo.LinkID{{0}, {1}, {2}, {0, 1}, {1, 2}}
	csr := &route.CSR{Offsets: []int32{0}, Links: nil}
	for _, row := range csrRows {
		csr.Links = append(csr.Links, row...)
		csr.Offsets = append(csr.Offsets, int32(len(csr.Links)))
	}
	key := optKeyOf(Options{Alpha: 1, Ablate: NoSymmetry})
	m := NewMemo(2)
	comps := route.DecomposeCSR(csr, 3)
	if len(comps) != 1 {
		t.Fatalf("want a single component, got %d", len(comps))
	}
	// Store three distinct contents by varying the paths slice.
	for i := 0; i < 3; i++ {
		c := route.Component{Links: comps[0].Links, Paths: comps[0].Paths[:len(comps[0].Paths)-i]}
		m.store(&c, key, contentHash(&c, key), &componentResult{selected: []int{i}})
	}
	if st := m.Stats(); st.Entries != 2 {
		t.Fatalf("memo holds %d entries, want 2", st.Entries)
	}
	first := route.Component{Links: comps[0].Links, Paths: comps[0].Paths}
	if cr := m.get(&first, key, contentHash(&first, key)); cr != nil {
		t.Fatal("oldest entry should have been evicted")
	}
}
