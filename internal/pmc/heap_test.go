package pmc

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestMinHeapOrdering drains randomly pushed entries and checks exact
// (score, row) ascending order, duplicates included.
func TestMinHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	type entry struct{ s, r int32 }
	entries := make([]entry, n)
	h := newMinHeap(n)
	for i := range entries {
		entries[i] = entry{int32(rng.Intn(50) - 25), int32(i)}
	}
	rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for _, e := range entries {
		h.push(e.s, e.r)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].s != entries[j].s {
			return entries[i].s < entries[j].s
		}
		return entries[i].r < entries[j].r
	})
	for i, want := range entries {
		s, r := h.pop()
		if s != want.s || r != want.r {
			t.Fatalf("pop %d: got (%d,%d), want (%d,%d)", i, s, r, want.s, want.r)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}

// TestMinHeapInitMatchesPushes heapifies entries appended unordered and
// checks the pop sequence equals the push-built heap's.
func TestMinHeapInitMatchesPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 513
	a, b := newMinHeap(n), newMinHeap(n)
	for i := 0; i < n; i++ {
		s := int32(rng.Intn(9))
		a.appendUnordered(s, int32(i))
		b.push(s, int32(i))
	}
	a.init()
	for i := 0; i < n; i++ {
		as, ar := a.pop()
		bs, br := b.pop()
		if as != bs || ar != br {
			t.Fatalf("pop %d: init-heap (%d,%d) vs push-heap (%d,%d)", i, as, ar, bs, br)
		}
	}
}

// heapOp is one call on a minHeap: push, appendUnordered, init, pop, or
// popLast (taken only right after an appendUnordered).
type heapOp struct {
	kind byte
	s, r int32
}

const (
	opPush byte = iota
	opAppend
	opInit
	opPop
	opPopLast
	numHeapOps
)

type heapEntry struct{ s, r int32 }

func entryLess(a, b heapEntry) int {
	if a.s != b.s {
		return cmp.Compare(a.s, b.s)
	}
	return cmp.Compare(a.r, b.r)
}

// checkHeapOps replays ops on a minHeap and on a slice kept sorted by
// (score, row), the oracle. Every pop must return the oracle's minimum,
// minScore its score, and popLast the entry just appended. A pop while
// appended entries await init runs init first, as the heap requires; a
// pop or popLast that has nothing to take is skipped.
func checkHeapOps(t testing.TB, ops []heapOp) {
	t.Helper()
	h := newMinHeap(0)
	var want []heapEntry
	pending := false  // entries appended since the last init
	appended := false // the previous op was an appendUnordered
	for i, op := range ops {
		justAppended := false
		switch op.kind {
		case opPush, opAppend:
			e := heapEntry{op.s, op.r}
			at, _ := slices.BinarySearchFunc(want, e, entryLess)
			want = slices.Insert(want, at, e)
			if op.kind == opPush && !pending {
				h.push(op.s, op.r)
			} else {
				h.appendUnordered(op.s, op.r)
				pending, justAppended = true, true
			}
		case opInit:
			h.init()
			pending = false
		case opPop:
			if len(want) == 0 {
				break
			}
			if pending {
				h.init()
				pending = false
			}
			if got := h.minScore(); got != want[0].s {
				t.Fatalf("op %d: minScore %d, oracle %d", i, got, want[0].s)
			}
			s, r := h.pop()
			if (heapEntry{s, r}) != want[0] {
				t.Fatalf("op %d: pop (%d,%d), oracle (%d,%d)", i, s, r, want[0].s, want[0].r)
			}
			want = want[1:]
		case opPopLast:
			if !appended {
				break
			}
			if got := h.lastRow(); got != ops[i-1].r {
				t.Fatalf("op %d: lastRow %d, appended %d", i, got, ops[i-1].r)
			}
			s, r := h.popLast()
			e := heapEntry{ops[i-1].s, ops[i-1].r}
			if (heapEntry{s, r}) != e {
				t.Fatalf("op %d: popLast (%d,%d), appended (%d,%d)", i, s, r, e.s, e.r)
			}
			at, _ := slices.BinarySearchFunc(want, e, entryLess)
			want = slices.Delete(want, at, at+1)
		}
		appended = justAppended
		if h.len() != len(want) {
			t.Fatalf("op %d: heap holds %d entries, oracle %d", i, h.len(), len(want))
		}
	}
	if pending {
		h.init()
	}
	for _, e := range want {
		if s, r := h.pop(); (heapEntry{s, r}) != e {
			t.Fatalf("drain: pop (%d,%d), oracle (%d,%d)", s, r, e.s, e.r)
		}
	}
}

// Scores and rows at the edges of the packed key: the sign bit of the
// score half, row 0 and the largest row a component can have.
var (
	edgeScores = []int32{math.MinInt32, math.MinInt32 + 1, -2, -1, 0, 1, 2, math.MaxInt32 - 1, math.MaxInt32}
	edgeRows   = []int32{0, 1, 2, 3, 1 << 16, math.MaxInt32 - 1, math.MaxInt32}
)

// TestMinHeapPackingEdges drives the heap against a sort by (score, row)
// at the edges of its packed key: negative scores, row 0, row MaxInt32,
// all-equal scores, and appendUnordered + init interleaved with push and
// pop.
func TestMinHeapPackingEdges(t *testing.T) {
	allEqual := func(s int32) []heapOp {
		var ops []heapOp
		for _, r := range []int32{math.MaxInt32, 5, 0, math.MaxInt32 - 1, 1} {
			ops = append(ops, heapOp{opPush, s, r})
		}
		return append(ops, heapOp{kind: opPop}, heapOp{kind: opPop})
	}
	cases := map[string][]heapOp{
		"negative-scores": {
			{opPush, -1, 0}, {opPush, math.MinInt32, math.MaxInt32}, {opPush, -1, math.MaxInt32},
			{opPush, 0, 0}, {opPush, math.MinInt32, 0}, {opPop, 0, 0}, {opPush, -2, 7}, {opPop, 0, 0},
		},
		"row-edges": {
			{opPush, 3, math.MaxInt32}, {opPush, 3, 0}, {opPush, 2, math.MaxInt32}, {opPush, 4, 0},
			{opPop, 0, 0}, {opPop, 0, 0},
		},
		"all-equal-negative": allEqual(-1),
		"all-equal-zero":     allEqual(0),
		"all-equal-max":      allEqual(math.MaxInt32),
		"append-init-mixed": {
			{opPush, 5, 1}, {opPush, -3, 2}, {opAppend, -3, 0}, {opAppend, math.MaxInt32, math.MaxInt32},
			{opPopLast, 0, 0}, {opAppend, -4, 9}, {opInit, 0, 0}, {opPop, 0, 0}, {opPush, -3, 1},
			{opAppend, -3, 1}, {opAppend, math.MinInt32, 4}, {opPop, 0, 0}, {opPush, 0, 0}, {opPop, 0, 0},
		},
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		ops := make([]heapOp, 600)
		for j := range ops {
			ops[j] = heapOp{byte(rng.Intn(int(numHeapOps))), edgeScores[rng.Intn(len(edgeScores))], edgeRows[rng.Intn(len(edgeRows))]}
		}
		cases[fmt.Sprintf("random-%d", i)] = ops
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkHeapOps(t, ops) })
	}
}

// FuzzMinHeap decodes op sequences from bytes, three a call: the call, a
// score and a row, each drawn from the key's edges or a small range where
// ties are common, and checks them against the sort oracle.
func FuzzMinHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 6, 3, 0, 0})
	f.Add([]byte{1, 0, 6, 1, 8, 0, 4, 0, 0, 2, 0, 0, 3, 0, 0, 0, 20, 30})
	f.Add([]byte{0, 12, 12, 0, 12, 13, 0, 12, 0, 3, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		val := func(b byte, edges []int32) int32 {
			if int(b) < len(edges) {
				return edges[b]
			}
			return int32(b%8) - 4
		}
		var ops []heapOp
		for ; len(data) >= 3; data = data[3:] {
			ops = append(ops, heapOp{data[0] % numHeapOps, val(data[1], edgeScores), max(0, val(data[2], edgeRows))})
		}
		checkHeapOps(t, ops)
	})
}

// TestMinHeapBulkReseedMatchesPushes models the lazy greedy's park-list
// reseed: entries appended unordered onto a partially drained heap, then
// heapified once, must pop in exactly the order n sifted pushes would
// produce — the property that keeps bulk reseeds decision-identical.
func TestMinHeapBulkReseedMatchesPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 257
	a, b := newMinHeap(2*n), newMinHeap(2*n)
	for i := 0; i < n; i++ {
		s := int32(rng.Intn(7) - 3)
		a.push(s, int32(i))
		b.push(s, int32(i))
	}
	for i := 0; i < n/2; i++ {
		a.pop()
		b.pop()
	}
	for i := n; i < 2*n; i++ {
		s := int32(rng.Intn(7) - 3)
		a.appendUnordered(s, int32(i))
		b.push(s, int32(i))
	}
	a.init()
	for a.len() > 0 {
		as, ar := a.pop()
		bs, br := b.pop()
		if as != bs || ar != br {
			t.Fatalf("bulk-reseed heap popped (%d,%d), push-heap (%d,%d)", as, ar, bs, br)
		}
	}
	if b.len() != 0 {
		t.Fatalf("push-heap not drained: %d left", b.len())
	}
}

// TestMinHeapZeroAllocSteadyState enforces the lazy greedy's allocation
// contract: once the heap is at capacity, push/pop cycles allocate nothing
// (the container/heap predecessor boxed every element through `any`).
func TestMinHeapZeroAllocSteadyState(t *testing.T) {
	const n = 4096
	h := newMinHeap(n)
	for i := 0; i < n; i++ {
		h.push(int32(i%97), int32(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		s, r := h.pop()
		h.push(s+1, r)
		s, r = h.pop()
		h.push(s-1, r)
	})
	if allocs != 0 {
		t.Fatalf("heap push/pop allocated %v times per op, want 0", allocs)
	}
}

// BenchmarkMinHeapPushPop measures the steady-state cost of one
// pop-then-push cycle at the Fattree(8) component heap size; allocs/op must
// report 0.
func BenchmarkMinHeapPushPop(b *testing.B) {
	const n = 4096
	h := newMinHeap(n)
	for i := 0; i < n; i++ {
		h.push(int32(i%97), int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, r := h.pop()
		h.push(s+1, r)
	}
}
