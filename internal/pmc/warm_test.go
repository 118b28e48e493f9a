package pmc

import (
	"reflect"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestMemoExactHitBitIdentical: a warm construction solves one leader per
// class and reuses it for the rest; a second one over identical components
// solves nothing; both match the cold path bit for bit.
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
	if warm1.Stats.Classes != 1 {
		t.Fatalf("Fattree(8)'s %d components solved as %d classes, want 1", len(comps), warm1.Stats.Classes)
	}
	st := memo.Stats()
	if st.Misses != 1 || st.Hits != int64(2*len(comps)-1) || st.Entries != 1 {
		t.Fatalf("memo stats hits=%d misses=%d entries=%d, want %d/1/1", st.Hits, st.Misses, st.Entries, 2*len(comps)-1)
	}
	if warm2.Stats.ScoreEvals != 0 || warm2.Stats.Classes != 0 {
		t.Fatalf("memo-hit construction scored %d rows in %d classes, want 0", warm2.Stats.ScoreEvals, warm2.Stats.Classes)
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

// TestMemoEviction: beyond its capacity the memo drops the entry used
// longest ago, and a hit counts as a use.
func TestMemoEviction(t *testing.T) {
	key := optKeyOf(Options{Alpha: 1})
	m := NewMemo(2)
	e := make([]*memoEntry, 3)
	for i := range e {
		comp := &route.Component{Links: []topo.LinkID{topo.LinkID(i)}, Paths: route.PathList([]int32{int32(i)})}
		e[i] = newMemoEntry(key, uint64(i), comp, []int32{0}, nil, nil, true, true, true)
	}
	held := func(i int) bool { return len(m.candidates(key, uint64(i))) == 1 }

	m.store(e[0])
	m.store(e[1])
	if m.holding(key, &route.Component{Links: []topo.LinkID{0}, Paths: route.PathList([]int32{0})}) != e[0] {
		t.Fatal("entry 0 does not hold its own content")
	}
	m.store(e[2])
	if st := m.Stats(); st.Entries != 2 {
		t.Fatalf("memo holds %d entries, want 2", st.Entries)
	}
	if !held(0) || held(1) || !held(2) {
		t.Fatalf("held 0/1/2 = %v/%v/%v, want the untouched entry 1 evicted", held(0), held(1), held(2))
	}
}

// TestMemoKeepsPristineThroughLongChurn flaps more links than the memo has
// entries, one at a time. Every down-flap is repaired from the pristine
// class and stores nothing, and every up-flap finds the pristine class:
// when masked components were solved and stored, an insertion-order memo
// evicted it after 64 down-flaps.
func TestMemoKeepsPristineThroughLongChurn(t *testing.T) {
	f := topo.MustFattree(10)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	opt := Options{Alpha: 1, Beta: 1}
	memo := NewMemo(0)
	inc, err := route.NewIncremental(csr, f.NumLinks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConstructComponents(ps, csr, inc.Components(), f.NumLinks(), opt, memo); err != nil {
		t.Fatal(err)
	}
	// Links of one component: each masks it.
	flaps := append([]topo.LinkID(nil), inc.Components()[0].Links...)
	if len(flaps) <= 64 {
		t.Fatalf("component 0 has %d links; the test needs more than the memo's 64 entries", len(flaps))
	}
	construct := func(diff route.Diff) *Result {
		t.Helper()
		res, err := ConstructComponents(ps, csr, diff.Added, f.NumLinks(), opt, memo)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i, l := range flaps {
		diff, err := inc.Apply([]topo.LinkID{l}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res := construct(diff); res.Stats.Classes != 0 || res.Stats.Repaired != len(diff.Added) {
			t.Fatalf("down-flap %d (link %d): %d classes solved, %d of %d components repaired; want 0 and all",
				i, l, res.Stats.Classes, res.Stats.Repaired, len(diff.Added))
		}
		if diff, err = inc.Apply(nil, []topo.LinkID{l}); err != nil {
			t.Fatal(err)
		}
		if res := construct(diff); res.Stats.Classes != 0 {
			t.Fatalf("up-flap %d (link %d) solved %d classes, want a memo hit", i, l, res.Stats.Classes)
		}
	}
	if st := memo.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("after %d flaps the memo holds %d entries from %d solves, want the one pristine class", len(flaps), st.Entries, st.Misses)
	}
}

// TestMemoBoundsComponentsNotClasses: Fattree(8)'s four components are one
// class, remembered as a leader and three members. The memo's bound counts
// every component it remembers, members included, so retained content
// stays bounded however the components group: the classes of two option
// sets (eight components) do not fit a bound of six, and the one used
// longest ago goes.
func TestMemoBoundsComponentsNotClasses(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := csr.Pristine(f.NumLinks()).Comps
	const limit = 6
	memo := NewMemo(limit)
	construct := func(opt Options) *Result {
		t.Helper()
		res, err := ConstructComponents(ps, csr, comps, f.NumLinks(), opt, memo)
		if err != nil {
			t.Fatal(err)
		}
		remembered := 0
		for _, e := range memo.entries {
			remembered += 1 + len(e.members)
		}
		if remembered != memo.comps || remembered > limit {
			t.Fatalf("memo remembers %d components (counted %d), limit %d", remembered, memo.comps, limit)
		}
		return res
	}
	a, b := Options{Alpha: 3, Beta: 1}, Options{Alpha: 2, Beta: 1}
	construct(a)
	construct(b)
	if st := memo.Stats(); st.Entries != 1 {
		t.Fatalf("memo holds %d classes, want only the newer one", st.Entries)
	}
	if res := construct(b); res.Stats.Classes != 0 {
		t.Fatal("the newer class was evicted")
	}
	if res := construct(a); res.Stats.Classes != 1 {
		t.Fatal("the older class outlived the bound")
	}
}

// TestMemoHoldsSpansByValue: a Fattree's pristine components name their
// paths as spans, and the memo keeps a span as it is. After a cold
// Fattree(16) (3,1) construction it holds one class — the leader and seven
// members — in the bytes of their links, the leader's selected and
// representative rows and its orbit log, not in the 8 × 130 048 paths.
func TestMemoHoldsSpansByValue(t *testing.T) {
	f := topo.MustFattree(16)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := csr.Pristine(f.NumLinks()).Comps
	memo := NewMemo(0)
	if _, err := ConstructComponents(ps, csr, comps, f.NumLinks(), Options{Alpha: 3, Beta: 1}, memo); err != nil {
		t.Fatal(err)
	}
	st := memo.Stats()
	t.Logf("memo holds %d classes of %d components in %d B", st.Entries, len(comps), st.Bytes)
	if st.Entries != 1 || st.Hits != int64(len(comps)-1) {
		t.Fatalf("memo holds %d classes after %d hits, want 1 after %d", st.Entries, st.Hits, len(comps)-1)
	}
	if st.Bytes >= 100<<10 {
		t.Fatalf("memo holds %d B, want under 100 KB", st.Bytes)
	}
}
