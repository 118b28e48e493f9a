package pmc

import (
	"math/bits"
	"slices"
)

// bucketQueue is the lazy greedy's priority queue: an exact min-queue of
// (score, position) entries that pops by ascending score, then ascending
// position. A pass's candidate positions ascend with its rows, so this is
// the (score, row) order, entry for entry.
//
// An Eq. 1 score is a small integer, so the queue keeps one bitset of
// positions per score value. At (3,1) a pass sees 17 to 21 distinct scores
// on Fattree(16), VL2(20,12,20) and BCube(4,2); at (1,2) it sees 32, 92
// and 63, and 181 on Fattree(16) with the orbit pass ablated (NoSymmetry).
// A bitset takes an eighth of a byte per candidate, so past 64 distinct
// scores the queue holds more than a heap of 8-byte entries would: 2.9 MB
// against 1.0 MB in that ablation. The buckets cover the scores
// lo .. lo+len(buckets)-1, and the range grows at either end as scores
// arrive, since scores can be negative. push sets a bit. pop takes the
// lowest set bit of the lowest non-empty bucket, scanning from that
// bucket's word cursor; no bit of a bucket lies below its cursor. Neither
// compares two entries.
//
// The greedy holds a position at most once: a popped one is pushed back
// or parked, and parked ones are outside the queue. So one bit per
// position holds the whole queue. Each bucket's bitset has one bit per
// candidate of the pass. It is allocated when its score first arrives, and
// push and pop allocate nothing after that.
type bucketQueue struct {
	words   int   // bitset words per bucket
	lo      int32 // score of buckets[0]
	buckets []bucket
	min     int // index of the lowest non-empty bucket; any value when n == 0
	n       int
}

type bucket struct {
	bits bitset
	n    int32 // positions set
	cur  int32 // no word below cur has a bit set
}

// newBucketQueue returns an empty queue over positions 0..positions-1.
func newBucketQueue(positions int) *bucketQueue {
	return &bucketQueue{words: (positions + 63) / 64}
}

func (q *bucketQueue) len() int { return q.n }

// minScore is the lowest score queued. The queue must be non-empty.
func (q *bucketQueue) minScore() int32 { return q.lo + int32(q.min) }

// push queues position p at score s. p must not be queued.
func (q *bucketQueue) push(s, p int32) {
	i := q.bucketOf(s)
	b := &q.buckets[i]
	if b.bits == nil {
		b.bits = make(bitset, q.words)
	}
	b.bits.set(p)
	b.n++
	if w := p >> 6; w < b.cur {
		b.cur = w
	}
	if q.n == 0 || i < q.min {
		q.min = i
	}
	q.n++
}

// pop removes and returns the (score, position) minimum. The queue must
// be non-empty.
func (q *bucketQueue) pop() (s, p int32) {
	b := &q.buckets[q.min]
	w := b.cur
	for b.bits[w] == 0 {
		w++
	}
	b.cur = w
	bit := int32(bits.TrailingZeros64(b.bits[w]))
	b.bits[w] &^= 1 << uint(bit)
	s, p = q.minScore(), w<<6|bit
	q.taken(b)
	return s, p
}

// remove takes position p, queued at score s, out of the queue.
func (q *bucketQueue) remove(s, p int32) {
	b := &q.buckets[s-q.lo]
	b.bits.clear(p)
	q.taken(b)
}

// taken counts one position out of bucket b and, if that emptied the
// lowest bucket, moves min to the next non-empty one.
func (q *bucketQueue) taken(b *bucket) {
	b.n--
	q.n--
	if q.n == 0 {
		return
	}
	for q.buckets[q.min].n == 0 {
		q.min++
	}
}

// bucketOf returns the index of score s's bucket, growing the range to
// reach it.
func (q *bucketQueue) bucketOf(s int32) int {
	if len(q.buckets) == 0 {
		q.lo = s
		q.buckets = append(q.buckets, bucket{})
		return 0
	}
	if s < q.lo {
		grow := int(q.lo - s)
		q.buckets = slices.Insert(q.buckets, 0, make([]bucket, grow)...)
		q.lo = s
		q.min += grow
		return 0
	}
	i := int(s - q.lo)
	if i >= len(q.buckets) {
		q.buckets = append(q.buckets, make([]bucket, i+1-len(q.buckets))...)
	}
	return i
}
