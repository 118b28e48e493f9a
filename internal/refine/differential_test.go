package refine

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sigOracle mirrors a Partition by explicit signature computation: every
// element (physical link, pair, triple) carries the byte string of its
// on-path bits over the splits applied so far. It is the brute-force ground
// truth the incremental engine is differentially tested against — O(E·P)
// per split, no sharing with the production code paths.
type sigOracle struct {
	l, beta int
	elems   [][]int32 // element -> constituent physical links
	sigs    [][]byte  // element -> on-path bit per applied split
}

func newSigOracle(l, beta int) *sigOracle {
	o := &sigOracle{l: l, beta: beta}
	for i := 0; i < l; i++ {
		o.elems = append(o.elems, []int32{int32(i)})
	}
	if beta >= 2 {
		for i := 0; i < l; i++ {
			for j := i + 1; j < l; j++ {
				o.elems = append(o.elems, []int32{int32(i), int32(j)})
			}
		}
	}
	if beta >= 3 {
		for i := 0; i < l; i++ {
			for j := i + 1; j < l; j++ {
				for k := j + 1; k < l; k++ {
					o.elems = append(o.elems, []int32{int32(i), int32(j), int32(k)})
				}
			}
		}
	}
	o.sigs = make([][]byte, len(o.elems))
	return o
}

func (o *sigOracle) onPath(e int, inPath []bool) bool {
	for _, c := range o.elems[e] {
		if inPath[c] {
			return true
		}
	}
	return false
}

// apply records one split path (duplicate link ids allowed — signatures are
// set-semantic) and returns the brute-force expectation: the number of
// properly split signature classes and the sorted affected-link set — the
// union of constituents of every member of every class with at least one
// member on the path and at least one off it.
func (o *sigOracle) apply(path []int32) (split int, affected []int32) {
	inPath := make([]bool, o.l)
	for _, l := range path {
		inPath[l] = true
	}
	if o.beta == 0 {
		return 0, nil
	}
	classes := make(map[string][]int)
	for e := range o.elems {
		classes[string(o.sigs[e])] = append(classes[string(o.sigs[e])], e)
	}
	affSet := make(map[int32]bool)
	for _, members := range classes {
		on, off := false, false
		for _, e := range members {
			if o.onPath(e, inPath) {
				on = true
			} else {
				off = true
			}
		}
		if on && off {
			split++
			for _, e := range members {
				for _, c := range o.elems[e] {
					affSet[c] = true
				}
			}
		}
	}
	for e := range o.elems {
		bit := byte(0)
		if o.onPath(e, inPath) {
			bit = 1
		}
		o.sigs[e] = append(o.sigs[e], bit)
	}
	for l := range affSet {
		affected = append(affected, l)
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	return split, affected
}

// groupsSingles recomputes the oracle's class and singleton counts.
func (o *sigOracle) groupsSingles() (groups, singles int) {
	classes := make(map[string]int)
	for e := range o.elems {
		classes[string(o.sigs[e])]++
	}
	for _, n := range classes {
		if n == 1 {
			singles++
		}
	}
	return len(classes), singles
}

// checkSplitAffected drives one split through both engines and fails the
// test on any divergence: the count CountSplittable predicts before the
// split, split count, affected set (compared as sorted sets — and the
// incremental report must already be duplicate-free), group/singleton
// counts, and the shared-pair lists after it.
//
// twin mirrors p and takes the same split with a note that stops the
// report after stop(n) links, n being the full report's length; at 0 it
// takes a plain Split, as a caller that needs no report does. Its report
// must be the first links of p's, in order, and the two partitions must
// stay identical.
func checkSplitAffected(t *testing.T, p, twin *Partition, o *sigOracle, path []int32, stop func(n int) int, tag string) {
	t.Helper()
	count := p.CountSplittable(path)
	twin.CountSplittable(path)
	wantSplit, wantAff := o.apply(path)
	if count != wantSplit {
		t.Fatalf("%s: CountSplittable(%v) = %d at beta=%d, oracle splits %d", tag, path, count, o.beta, wantSplit)
	}
	split, aff := splitAffectedAll(p, path)
	if split != wantSplit {
		t.Fatalf("%s: SplitAffected(%v) split %d groups, oracle %d", tag, path, split, wantSplit)
	}
	seen := make(map[int32]bool, len(aff))
	for _, l := range aff {
		if seen[l] {
			t.Fatalf("%s: affected list repeats link %d: %v", tag, l, aff)
		}
		seen[l] = true
	}
	sorted := append([]int32(nil), aff...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) != len(wantAff) {
		t.Fatalf("%s: SplitAffected(%v) affected %v, oracle %v", tag, path, sorted, wantAff)
	}
	for i := range sorted {
		if sorted[i] != wantAff[i] {
			t.Fatalf("%s: SplitAffected(%v) affected %v, oracle %v", tag, path, sorted, wantAff)
		}
	}
	wantGroups, wantSingles := o.groupsSingles()
	if o.beta >= 1 && (p.Groups() != wantGroups || p.Singletons() != wantSingles) {
		t.Fatalf("%s: groups=%d singles=%d, oracle %d/%d", tag, p.Groups(), p.Singletons(), wantGroups, wantSingles)
	}
	checkSharedPairLists(t, p, tag)

	n := stop(len(aff))
	var got []int32
	var twinSplit int
	if n == 0 {
		twinSplit = twin.Split(path)
	} else {
		twinSplit = twin.SplitAffected(path, func(li int32) bool {
			got = append(got, li)
			return len(got) < n
		})
	}
	want := aff[:min(n, len(aff))]
	if twinSplit != split || !slices.Equal(got, want) {
		t.Fatalf("%s: SplitAffected(%v) stopping after %d links split %d and reported %v; full report split %d, began %v",
			tag, path, n, twinSplit, got, split, want)
	}
	checkSamePartition(t, p, twin, tag)
}

// splitAffectedAll splits p by path and returns the split count and the
// whole affected-link report, in report order.
func splitAffectedAll(p *Partition, path []int32) (int, []int32) {
	var aff []int32
	split := p.SplitAffected(path, func(li int32) bool {
		aff = append(aff, li)
		return true
	})
	return split, aff
}

// checkSamePartition fails the test unless a and b hold the same
// refinement: group ids, group sizes and counts, membership lists and
// shared-pair lists.
func checkSamePartition(t *testing.T, a, b *Partition, tag string) {
	t.Helper()
	if a.numGroups != b.numGroups || a.numSingle != b.numSingle ||
		!slices.Equal(a.gid, b.gid) || !slices.Equal(a.groupSize, b.groupSize) ||
		!slices.Equal(a.memberHead, b.memberHead) || !slices.Equal(a.memberNext, b.memberNext) ||
		!slices.Equal(a.memberPrev, b.memberPrev) || !slices.Equal(a.sharedLen, b.sharedLen) {
		t.Fatalf("%s: a split that stopped its report early left a different partition", tag)
	}
	for i, n := range a.sharedLen {
		at := i * (a.l - 1)
		if !slices.Equal(a.shared[at:at+int(n)], b.shared[at:at+int(n)]) {
			t.Fatalf("%s: a split that stopped its report early left link %d a different shared-pair list", tag, i)
		}
	}
}

// checkSharedPairLists fails the test unless every pair whose group has
// another member is listed under both of its links, and every list is
// strictly ascending (compaction keeps the visiting order and never
// duplicates an entry).
func checkSharedPairLists(t *testing.T, p *Partition, tag string) {
	t.Helper()
	if p.beta < 2 {
		return
	}
	listed := make([][]bool, p.l)
	for i := range listed {
		listed[i] = make([]bool, p.l)
		list := p.shared[i*(p.l-1) : i*(p.l-1)+int(p.sharedLen[i])]
		for k, m := range list {
			if int(m) == i || (k > 0 && m <= list[k-1]) {
				t.Fatalf("%s: link %d's shared-pair list %v is not ascending without itself", tag, i, list)
			}
			listed[i][m] = true
		}
	}
	for i := 0; i < p.l; i++ {
		for j := i + 1; j < p.l; j++ {
			if p.groupSize[p.PairGroup(i, j)] < 2 {
				continue
			}
			if !listed[i][j] || !listed[j][i] {
				t.Fatalf("%s: pair {%d,%d} shares its group but is listed under %d: %v, under %d: %v",
					tag, i, j, i, listed[i][j], j, listed[j][i])
			}
		}
	}
}

// TestSharedPairListsKeepSharedPairs runs longer randomized β=2 and β=3
// refinements than the oracle harness affords, interleaving counts (which
// compact the lists too) with splits, and checks the lists after every
// split.
func TestSharedPairListsKeepSharedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range []struct{ l, beta, steps int }{{40, 2, 120}, {14, 3, 60}} {
		for trial := 0; trial < 5; trial++ {
			p := MustPartition(c.l, c.beta)
			for step := 0; step < c.steps && !p.Done(); step++ {
				for _, q := range randomPaths(rng, c.l, 3, 6) {
					p.CountSplittable(q)
				}
				p.Split(randomPaths(rng, c.l, 1, 6)[0])
				checkSharedPairLists(t, p, "random")
			}
			listed := 0
			for _, n := range p.sharedLen {
				listed += int(n)
			}
			if listed == c.l*(c.l-1) {
				t.Fatalf("beta=%d: no singleton pair was ever dropped from the lists", c.beta)
			}
		}
	}
}

// TestSplitAffectedDifferential is the randomized differential harness: for
// every supported beta, >= 120 random (topology size, split sequence) cases
// are driven through Partition.SplitAffected and the signature oracle in
// lockstep. Paths deliberately include duplicate link ids about a third of
// the time, pinning the dedup contract alongside exactness. Each split's
// twin stops its report after a random number of links, from none to past
// the whole report.
func TestSplitAffectedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var stops [3]int // reports stopped at none, partway, and at their end
	stop := func(n int) int {
		k := rng.Intn(n + 2)
		switch {
		case k == 0:
			stops[0]++
		case k < n:
			stops[1]++
		default:
			stops[2]++
		}
		return k
	}
	for _, beta := range []int{0, 1, 2, 3} {
		maxL := 12
		if beta == 3 {
			maxL = 9 // keep C(l,3) oracle work trivial
		}
		for trial := 0; trial < 120; trial++ {
			l := 2 + rng.Intn(maxL-1)
			p, twin := MustPartition(l, beta), MustPartition(l, beta)
			o := newSigOracle(l, beta)
			nPaths := 1 + rng.Intn(10)
			for pi := 0; pi < nPaths; pi++ {
				n := 1 + rng.Intn(l)
				perm := rng.Perm(l)[:n]
				path := make([]int32, 0, n+2)
				for _, v := range perm {
					path = append(path, int32(v))
				}
				if rng.Intn(3) == 0 {
					// Repeat a couple of links: the engines must agree
					// under set semantics.
					path = append(path, path[rng.Intn(len(path))], path[0])
				}
				checkSplitAffected(t, p, twin, o, path, stop, "trial")
			}
		}
	}
	for i, n := range stops {
		if n == 0 {
			t.Errorf("no twin report stopped %s", [3]string{"before its first link", "partway", "at or past its end"}[i])
		}
	}
}

// FuzzSplitAffected feeds arbitrary byte strings through the differential
// harness: the first two bytes pick (l, beta), the third how many links
// the twin's reports stop after (modulo one more than each report's
// length), 0xFF bytes delimit paths, and every other byte contributes the
// link id b % l — so the fuzzer freely explores duplicate ids, repeated
// paths, single-link paths and long sequences. Run with
// `go test -fuzz FuzzSplitAffected ./internal/refine`.
func FuzzSplitAffected(f *testing.F) {
	f.Add([]byte{4, 2, 3, 0, 1, 0xFF, 2, 3, 0xFF, 0, 2})
	f.Add([]byte{7, 3, 0, 0, 1, 2, 3, 4, 5, 6, 0xFF, 1, 1, 1})
	f.Add([]byte{2, 1, 9, 0, 0xFF, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		l := 2 + int(data[0])%8
		beta := int(data[1]) % 4
		stop := func(n int) int { return int(data[2]) % (n + 1) }
		p, twin := MustPartition(l, beta), MustPartition(l, beta)
		o := newSigOracle(l, beta)
		var path []int32
		paths := 0
		flush := func() {
			if len(path) == 0 || paths >= 16 {
				return
			}
			checkSplitAffected(t, p, twin, o, path, stop, "fuzz")
			paths++
			path = path[:0]
		}
		for _, b := range data[3:] {
			if b == 0xFF {
				flush()
				continue
			}
			if len(path) < 2*l {
				path = append(path, int32(int(b)%l))
			}
		}
		flush()
	})
}
