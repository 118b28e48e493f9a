package pmc

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type queueEntry struct{ s, p int32 }

func entryLess(a, b queueEntry) int {
	if a.s != b.s {
		return cmp.Compare(a.s, b.s)
	}
	return cmp.Compare(a.p, b.p)
}

// drainMatches pops q dry and requires want, sorted by (score, position).
func drainMatches(t testing.TB, q *bucketQueue, want []queueEntry) {
	t.Helper()
	slices.SortFunc(want, entryLess)
	for i, e := range want {
		if s, p := q.pop(); (queueEntry{s, p}) != e {
			t.Fatalf("pop %d: got (%d,%d), want (%d,%d)", i, s, p, e.s, e.p)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}

// TestBucketQueueOrdering drains randomly pushed entries and checks exact
// (score, position) ascending order, many positions to a score.
func TestBucketQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	entries := make([]queueEntry, n)
	for i := range entries {
		entries[i] = queueEntry{int32(rng.Intn(50) - 25), int32(i)}
	}
	rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	q := newBucketQueue(n)
	for _, e := range entries {
		q.push(e.s, e.p)
	}
	drainMatches(t, q, entries)
}

// TestBucketQueueAnyPushOrder pushes the same entries in ascending
// position order, as the lazy greedy's initial drain does, and shuffled,
// and checks that both queues pop alike: what a pop returns does not
// depend on the order the entries arrived in.
func TestBucketQueueAnyPushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 513
	a, b := newBucketQueue(n), newBucketQueue(n)
	scores := make([]int32, n)
	for p := range scores {
		scores[p] = int32(rng.Intn(9))
		a.push(scores[p], int32(p))
	}
	for _, p := range rng.Perm(n) {
		b.push(scores[p], int32(p))
	}
	for i := 0; i < n; i++ {
		as, ap := a.pop()
		bs, bp := b.pop()
		if as != bs || ap != bp {
			t.Fatalf("pop %d: in-order queue (%d,%d) vs shuffled (%d,%d)", i, as, ap, bs, bp)
		}
	}
}

// TestBucketQueueBulkReseedMatchesPushes models the lazy greedy's
// park-list reseed: entries pushed onto a partially drained queue, some
// below its lowest score and some above its highest, must pop in exactly
// the order of a sort by (score, position) over what is left.
func TestBucketQueueBulkReseedMatchesPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 257
	q := newBucketQueue(2 * n)
	var want []queueEntry
	for i := 0; i < n; i++ {
		e := queueEntry{int32(rng.Intn(7) - 3), int32(i)}
		q.push(e.s, e.p)
		want = append(want, e)
	}
	slices.SortFunc(want, entryLess)
	for i := 0; i < n/2; i++ {
		if s, p := q.pop(); (queueEntry{s, p}) != want[0] {
			t.Fatalf("pop %d: got (%d,%d), want (%d,%d)", i, s, p, want[0].s, want[0].p)
		}
		want = want[1:]
	}
	for i := n; i < 2*n; i++ {
		e := queueEntry{int32(rng.Intn(13) - 6), int32(i)}
		q.push(e.s, e.p)
		want = append(want, e)
	}
	drainMatches(t, q, want)
}

// TestBucketQueueZeroAllocSteadyState enforces the lazy greedy's allocation
// contract: once the queue's buckets exist, push/pop cycles allocate
// nothing. AllocsPerRun's warm-up run makes the one bucket the cycle
// reaches below the pushed scores.
func TestBucketQueueZeroAllocSteadyState(t *testing.T) {
	const n = 4096
	q := newBucketQueue(n)
	for i := 0; i < n; i++ {
		q.push(int32(i%97), int32(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		s, p := q.pop()
		q.push(s+1, p)
		s, p = q.pop()
		q.push(s-1, p)
	})
	if allocs != 0 {
		t.Fatalf("queue push/pop allocated %v times per op, want 0", allocs)
	}
}

// queueOp is one call on a bucketQueue: push, pop, or remove.
type queueOp struct {
	kind byte
	s, p int32
}

const (
	opPush byte = iota
	opPop
	opRemove
	numQueueOps
)

// checkQueueOps replays ops on a bucketQueue over n positions and on a
// slice kept sorted by (score, position), the oracle. Every pop must
// return the oracle's minimum and minScore its score. A push of a
// position already queued is skipped, as the greedy never makes one; a
// remove takes the entry the last push queued, as the greedy's initial
// drain does, or, when that one is gone, the oracle's entry at index p
// modulo its length. A pop or remove with nothing queued is skipped.
func checkQueueOps(t testing.TB, n int32, ops []queueOp) {
	t.Helper()
	q := newBucketQueue(int(n))
	var want []queueEntry
	queued := make([]bool, n)
	last := queueEntry{p: -1}
	for i, op := range ops {
		switch op.kind {
		case opPush:
			if queued[op.p] {
				break
			}
			e := queueEntry{op.s, op.p}
			at, _ := slices.BinarySearchFunc(want, e, entryLess)
			want = slices.Insert(want, at, e)
			queued[op.p] = true
			q.push(op.s, op.p)
			last = e
		case opPop:
			if len(want) == 0 {
				break
			}
			if got := q.minScore(); got != want[0].s {
				t.Fatalf("op %d: minScore %d, oracle %d", i, got, want[0].s)
			}
			s, p := q.pop()
			if (queueEntry{s, p}) != want[0] {
				t.Fatalf("op %d: pop (%d,%d), oracle (%d,%d)", i, s, p, want[0].s, want[0].p)
			}
			queued[p] = false
			want = want[1:]
		case opRemove:
			if len(want) == 0 {
				break
			}
			e := last
			if e.p < 0 || !queued[e.p] {
				e = want[int(op.p)%len(want)]
			}
			at, _ := slices.BinarySearchFunc(want, e, entryLess)
			want = slices.Delete(want, at, at+1)
			queued[e.p] = false
			q.remove(e.s, e.p)
		}
		if q.len() != len(want) {
			t.Fatalf("op %d: queue holds %d entries, oracle %d", i, q.len(), len(want))
		}
	}
	drainMatches(t, q, want)
}

// Scores and positions at the edges of the queue's range: negative
// scores, scores far below and above the rest, which grow the bucket range
// at either end, the first and last position, and word boundaries.
const edgeN = 130

var (
	edgeScores    = []int32{-1000, -65, -2, -1, 0, 1, 2, 64, 1000}
	edgePositions = []int32{0, 1, 63, 64, 65, 127, 128, edgeN - 1}
)

// TestBucketQueueRangeEdges drives the queue against a sort by (score,
// position) at the edges of its range: negative scores, growth below the
// lowest and above the highest bucket, positions 0 and n−1, all-equal
// scores, and a remove of the entry just pushed, interleaved with pushes
// and pops.
func TestBucketQueueRangeEdges(t *testing.T) {
	last := int32(edgeN - 1)
	allEqual := func(s int32) []queueOp {
		var ops []queueOp
		for _, p := range []int32{last, 5, 0, last - 1, 1, 64} {
			ops = append(ops, queueOp{opPush, s, p})
		}
		return append(ops, queueOp{kind: opPop}, queueOp{kind: opPop}, queueOp{opPush, s, 0}, queueOp{kind: opPop})
	}
	cases := map[string][]queueOp{
		"negative-scores": {
			{opPush, -1, 0}, {opPush, -1000, last}, {opPush, -1, last}, {opPush, 0, 1},
			{opPush, -1000, 2}, {opPop, 0, 0}, {opPush, -2, 7}, {opPop, 0, 0},
		},
		"grow-below": {
			{opPush, 5, 3}, {opPush, 4, 9}, {opPush, -5, last}, {opPush, -1000, 0},
			{opPop, 0, 0}, {opPush, -2000, 1}, {opPop, 0, 0}, {opPop, 0, 0}, {opPop, 0, 0},
		},
		"grow-above": {
			{opPush, 0, last}, {opPush, 3, 0}, {opPush, 1000, 1}, {opPop, 0, 0},
			{opPush, 2, 2}, {opPop, 0, 0}, {opPush, 2000, 3}, {opPop, 0, 0},
		},
		"position-edges": {
			{opPush, 3, last}, {opPush, 3, 0}, {opPush, 2, last - 1}, {opPush, 4, 1},
			{opPop, 0, 0}, {opPop, 0, 0}, {opPush, 3, last - 1},
		},
		"refill-below-cursor": {
			{opPush, 1, last}, {opPush, 1, 64}, {opPop, 0, 0}, {opPush, 1, 0}, {opPop, 0, 0},
			{opPush, 1, 63}, {opPop, 0, 0},
		},
		"all-equal-negative": allEqual(-1),
		"all-equal-zero":     allEqual(0),
		"all-equal-high":     allEqual(1000),
		"remove-last-push": {
			{opPush, 5, 1}, {opPush, -3, 2}, {opPush, -3, 0}, {opPush, 1000, last}, {opRemove, 0, 0},
			{opPush, -4, 9}, {opRemove, 0, 0}, {opPop, 0, 0}, {opPush, -3, 1},
			{opPush, -1000, 4}, {opRemove, 0, 0}, {opPop, 0, 0}, {opPush, 0, 0}, {opPop, 0, 0},
		},
		"remove-only-entry": {
			{opPush, 7, 3}, {opRemove, 0, 0}, {opPush, -7, 3}, {opPush, 8, 4}, {opPop, 0, 0},
		},
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		ops := make([]queueOp, 600)
		for j := range ops {
			ops[j] = queueOp{byte(rng.Intn(int(numQueueOps))), edgeScores[rng.Intn(len(edgeScores))], edgePositions[rng.Intn(len(edgePositions))]}
		}
		cases[fmt.Sprintf("random-%d", i)] = ops
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkQueueOps(t, edgeN, ops) })
	}
}

// FuzzBucketQueue decodes op sequences from bytes, three a call: the
// call, a score and a position, each drawn from the range's edges or a
// small range where ties are common, and checks them against the sort
// oracle.
func FuzzBucketQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 6, 2, 0, 0})
	f.Add([]byte{0, 0, 6, 0, 8, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 20, 30})
	f.Add([]byte{0, 12, 12, 0, 12, 13, 0, 12, 0, 1, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		val := func(b byte, edges []int32, lo int32) int32 {
			if int(b) < len(edges) {
				return edges[b]
			}
			return int32(b%8) + lo
		}
		var ops []queueOp
		for ; len(data) >= 3; data = data[3:] {
			ops = append(ops, queueOp{data[0] % numQueueOps, val(data[1], edgeScores, -4), val(data[2], edgePositions, 0)})
		}
		checkQueueOps(t, edgeN, ops)
	})
}

// BenchmarkBucketQueuePushPop measures the steady-state cost of one
// pop-then-push cycle at the Fattree(8) component queue size, every
// popped entry pushed back one score higher (wrapping, so the scores stay
// within 97 buckets); allocs/op must report 0.
func BenchmarkBucketQueuePushPop(b *testing.B) {
	const n = 4096
	q := newBucketQueue(n)
	for i := 0; i < n; i++ {
		q.push(int32(i%97), int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, p := q.pop()
		q.push((s+1)%97, p)
	}
}
