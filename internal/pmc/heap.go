package pmc

// minHeap is a hand-rolled 4-ary min-heap of (score, row) entries, ordered
// by score with deterministic row tie-breaking. It replaces container/heap
// for the lazy greedy: Push/Pop there box every element through `any`,
// which costs one allocation per operation — on a Fattree(8) run that was
// ~88k allocations per construction. push and pop here touch one int64
// slice and allocate nothing once its backing array is at capacity (the
// lazy greedy seeds the heap with every candidate, so the initial capacity
// is also the high-water mark). The 4-ary layout halves the sift depth
// versus a binary heap; pops still return the exact (score, row) minimum,
// so the greedy's decisions don't depend on the arity or the layout.
//
// Each entry is one packed key, int64(score)<<32 | int64(uint32(row)):
// the key is score·2³² + row. Rows are non-negative int32, so 0 ≤ row <
// 2³², and for s1 < s2 every key of score s1 is at most s1·2³² + 2³² − 1 <
// s2·2³² ≤ every key of score s2; within one score the keys order as the
// rows do. So the integer order of the keys is exactly the (score, row)
// order, and one compare replaces the score-then-row branch. Sifts move a
// hole and write the moving key once, instead of swapping at every level.
type minHeap struct {
	keys []int64
}

func newMinHeap(capacity int) *minHeap {
	return &minHeap{keys: make([]int64, 0, capacity)}
}

func pack(s, r int32) int64 { return int64(s)<<32 | int64(uint32(r)) }

func unpack(k int64) (s, r int32) { return int32(k >> 32), int32(uint32(k)) }

func (h *minHeap) len() int { return len(h.keys) }

// minScore is the score of the minimum entry. The heap must be non-empty.
func (h *minHeap) minScore() int32 { return int32(h.keys[0] >> 32) }

// lastRow is the row of the most recently appended entry, before any sift
// moved it. The heap must be non-empty.
func (h *minHeap) lastRow() int32 { return int32(uint32(h.keys[len(h.keys)-1])) }

// popLast removes and returns the most recently appended entry; like
// appendUnordered it leaves the heap property to init.
func (h *minHeap) popLast() (s, r int32) {
	n := len(h.keys) - 1
	k := h.keys[n]
	h.keys = h.keys[:n]
	return unpack(k)
}

// init establishes the heap property over entries appended with
// appendUnordered — one O(n) heapify instead of n sifted pushes.
func (h *minHeap) init() {
	if len(h.keys) < 2 {
		return
	}
	for i := (len(h.keys) - 2) / 4; i >= 0; i-- {
		h.siftDown(i, h.keys[i])
	}
}

func (h *minHeap) push(s, r int32) {
	h.keys = append(h.keys, 0)
	h.siftUp(len(h.keys)-1, pack(s, r))
}

// appendUnordered appends an entry without restoring the heap property;
// callers must run init() before the next pop. The lazy greedy's park-list
// reseeds use it to replace n sifted pushes with one O(n) heapify — the
// ordering of pops is unaffected, because pop always returns the exact
// (score, row) minimum regardless of insertion order.
func (h *minHeap) appendUnordered(s, r int32) {
	h.keys = append(h.keys, pack(s, r))
}

// pop removes and returns the minimum element. The heap must be non-empty.
func (h *minHeap) pop() (s, r int32) {
	top := h.keys[0]
	n := len(h.keys) - 1
	last := h.keys[n]
	h.keys = h.keys[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	return unpack(top)
}

// siftUp places key k from the hole at i toward the root.
func (h *minHeap) siftUp(i int, k int64) {
	keys := h.keys
	for i > 0 {
		parent := (i - 1) / 4
		if keys[parent] <= k {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

// siftDown places key k from the hole at i toward the leaves.
func (h *minHeap) siftDown(i int, k int64) {
	keys := h.keys
	n := len(keys)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := min(first+4, n)
		m, mk := first, keys[first]
		for c := first + 1; c < last; c++ {
			if keys[c] < mk {
				m, mk = c, keys[c]
			}
		}
		if mk >= k {
			break
		}
		keys[i] = mk
		i = m
	}
	keys[i] = k
}
