// Package refine implements the link-set splitting machinery at the core of
// deTector's PMC algorithm (§4.2): partition refinement over physical links
// and the "virtual links" that encode β-identifiability.
//
// A probe matrix is β-identifiable when every set of at most β simultaneous
// link failures produces a distinct end-to-end loss observation. Following
// Brodie et al. (DSOM'01) as adapted by the paper, this is equivalent to
// 1-identifiability over an extended element universe: the physical links
// plus one virtual link per combination of 2..β physical links, where a
// virtual link is "on" a path when any of its constituents is. Selecting a
// path splits every element group into the members on the path and the
// members off it; the matrix is identifiable when every group is a
// singleton, i.e. every element has a unique path signature.
//
// The Partition never materializes signatures: it tracks the group id of
// each element plus one intrusive membership list per group (12 bytes per
// element), a decode table entry per virtual element (4 bytes per pair, 6
// per triple), and each pair twice in per-link lists of the pairs that
// still share a group (int16 partner ids, 4 more bytes per pair). A
// Fattree(48) β=2 subproblem (2,304 links, 2.65 M virtual pairs) costs 20
// bytes per element — about 53 MB.
//
// Virtual elements are stored by dense combinatorial rank (pairIndex,
// tripleIndex). A compact int16 decode table maps each rank back to its
// constituent physical links, with arithmetic inverses (decodePair,
// decodeTriple) as the tested ground truth, so SplitAffected reports the
// exact affected-link set at every supported β, and stops the report
// wherever its caller has seen enough.
package refine

import (
	"fmt"
	"math"
	"sort"
)

// MaxBeta is the largest supported identifiability level. β=3 requires
// O(L³) virtual elements and is only practical for small subproblems, which
// matches the paper's observation that computing β≥3 matrices is infeasible
// for large DCNs (§4.4) — and unnecessary, since 2-identifiability already
// localizes 99% of failure events (§6.4).
const MaxBeta = 3

// Partition maintains the refinement state for one decomposition component
// with L physical links, locally indexed 0..L-1.
//
// A Partition is not safe for concurrent use, not even for counts:
// CountSplittable stamps shared scratch state and compacts the shared-pair
// lists in place.
type Partition struct {
	l    int
	beta int

	total int // number of elements: L + C(L,2) [+ C(L,3)]

	gid       []int32 // element -> group
	groupSize []int32 // group -> member count
	numGroups int
	numSingle int

	// Scratch state for Split/CountSplittable, epoch-stamped to avoid
	// clearing between calls.
	epoch      int32
	groupMark  []int32 // group -> epoch of last visit
	groupNew   []int32 // group -> replacement group for current Split epoch
	groupOnCnt []int32 // group -> members-on-path count for current epoch
	inPath     []bool  // physical link -> is on current path
	scratch    []int32 // groups visited by the last walk (visitPath)
	elems      []int32 // elements visited by the last Split's walk

	// Intrusive membership lists over the full element universe (physical
	// links, pairs and triples alike), maintained whenever beta >= 1:
	// memberHead[g] threads group g's members through memberNext/
	// memberPrev. They let SplitAffected enumerate every member of a
	// properly split group in O(|group|) and decode it back to physical
	// links, making the affected-link report exact at every supported
	// beta.
	memberHead []int32
	memberNext []int32
	memberPrev []int32

	// Affected-link dedupe scratch for SplitAffected, epoch-stamped like
	// groupMark: a physical link is appended at most once per call.
	affMark  []int32
	affEpoch int32

	// linkSeen stamps physical links during the beta == 1 fast paths so
	// duplicate ids in an input slice are counted once; dedup is the
	// compacted unique-link buffer the marking entry points hand to the
	// enumeration loops.
	linkSeen []int32
	dedup    []int32

	// Compact decode tables: virtual element rank -> constituent links.
	// int16 suffices because the element-count cap keeps l under 2^15 at
	// every beta that has virtual elements. They turn SplitAffected's
	// member decode into two (three) array loads; decodePair/decodeTriple
	// remain as the arithmetic ground truth the tables are tested against.
	pairA, pairB        []int16 // beta >= 2, len C(l,2)
	tripA, tripB, tripC []int16 // beta >= 3, len C(l,3)

	// Shared-pair lists (beta >= 2): link i's list is the first
	// sharedLen[i] entries of shared[i*(l-1):], the partner m of each pair
	// {i, m} not yet found alone in its group, ascending. A pair whose group
	// has another member is always listed under both its links; a pair
	// found in a singleton group is dropped in place by the next walk of
	// the list, since refinement only splits groups and a singleton can
	// never again be counted as splittable or moved by Split. Late in a
	// construction almost every pair is a singleton, so the lists keep the
	// pair walk proportional to the pairs still unresolved. pairOff[i] + j
	// is the element index of the pair {i, j}, i < j.
	shared    []int16
	sharedLen []int32
	pairOff   []int32
}

// NewPartition creates the refinement state for a component with l physical
// links at identifiability level beta (0..3). beta <= 1 tracks only physical
// links; beta == 0 additionally means callers ignore identifiability and the
// partition exists only so code paths stay uniform.
func NewPartition(l, beta int) (*Partition, error) {
	if l <= 0 {
		return nil, fmt.Errorf("refine: component must have at least one link, got %d", l)
	}
	if beta < 0 || beta > MaxBeta {
		return nil, fmt.Errorf("refine: beta must be in [0,%d], got %d", MaxBeta, beta)
	}
	if beta >= 2 && l > 32767 {
		// C(2^15, 2) alone is 537 M elements — far past any practical
		// element budget — so int16 decode tables are never the limit.
		return nil, fmt.Errorf("refine: beta >= 2 supports at most 32767 links per component, got %d", l)
	}
	total := l
	if beta >= 2 {
		total += l * (l - 1) / 2
	}
	if beta >= 3 {
		total += l * (l - 1) * (l - 2) / 6
	}
	p := &Partition{
		l:        l,
		beta:     beta,
		total:    total,
		gid:      make([]int32, total),
		inPath:   make([]bool, l),
		affMark:  make([]int32, l),
		linkSeen: make([]int32, l),
	}
	p.groupSize = append(p.groupSize, int32(total))
	p.groupMark = append(p.groupMark, 0)
	p.groupNew = append(p.groupNew, 0)
	p.groupOnCnt = append(p.groupOnCnt, 0)
	p.numGroups = 1
	if total == 1 {
		p.numSingle = 1
	}
	if beta >= 1 {
		p.memberHead = []int32{0}
		p.memberNext = make([]int32, total)
		p.memberPrev = make([]int32, total)
		for i := 0; i < total; i++ {
			p.memberNext[i] = int32(i + 1)
			p.memberPrev[i] = int32(i - 1)
		}
		p.memberNext[total-1] = -1
	}
	if beta >= 2 {
		n := l * (l - 1) / 2
		p.pairA = make([]int16, n)
		p.pairB = make([]int16, n)
		idx := 0
		for i := 0; i < l; i++ {
			for j := i + 1; j < l; j++ {
				p.pairA[idx] = int16(i)
				p.pairB[idx] = int16(j)
				idx++
			}
		}
		// Link i's list is every other link: link i-1's list with i-1 in
		// the place of i.
		p.shared = make([]int16, l*(l-1))
		p.sharedLen = make([]int32, l)
		p.pairOff = make([]int32, l)
		for m := 1; m < l; m++ {
			p.shared[m-1] = int16(m)
		}
		for i := 0; i < l; i++ {
			if i > 0 {
				row := p.shared[i*(l-1) : (i+1)*(l-1)]
				copy(row, p.shared[(i-1)*(l-1):])
				row[i-1] = int16(i - 1)
			}
			p.sharedLen[i] = int32(l - 1)
			p.pairOff[i] = int32(l + p.pairBlockStart(i) - i - 1)
		}
	}
	if beta >= 3 {
		n := l * (l - 1) * (l - 2) / 6
		p.tripA = make([]int16, n)
		p.tripB = make([]int16, n)
		p.tripC = make([]int16, n)
		idx := 0
		for i := 0; i < l; i++ {
			for j := i + 1; j < l; j++ {
				for k := j + 1; k < l; k++ {
					p.tripA[idx] = int16(i)
					p.tripB[idx] = int16(j)
					p.tripC[idx] = int16(k)
					idx++
				}
			}
		}
	}
	return p, nil
}

// MustPartition is NewPartition for callers with validated arguments.
func MustPartition(l, beta int) *Partition {
	p, err := NewPartition(l, beta)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the number of physical links.
func (p *Partition) Len() int { return p.l }

// Elements returns the total number of tracked elements.
func (p *Partition) Elements() int { return p.total }

// Groups returns the current number of groups.
func (p *Partition) Groups() int { return p.numGroups }

// Singletons returns the number of singleton groups.
func (p *Partition) Singletons() int { return p.numSingle }

// Done reports whether every element is alone in its group — the
// β-identifiability termination condition of PMC (Alg. 1 line 4).
func (p *Partition) Done() bool { return p.numSingle == p.total }

// pairIndex maps i < j to a dense index in [0, C(L,2)).
// Layout: pairs are grouped by their smaller member i, each block holding
// (L-1-i) entries.
func (p *Partition) pairIndex(i, j int) int {
	// Offset of block i: sum_{t<i} (L-1-t) = i*L - i - i*(i-1)/2.
	return i*(p.l-1) - i*(i-1)/2 + (j - i - 1)
}

// tripleIndex maps i < j < k to a dense index in [0, C(L,3)) by ranking.
func (p *Partition) tripleIndex(i, j, k int) int {
	l := p.l
	// Elements before block i: C(l,3) - C(l-i,3).
	c3 := func(n int) int {
		if n < 3 {
			return 0
		}
		return n * (n - 1) * (n - 2) / 6
	}
	c2 := func(n int) int {
		if n < 2 {
			return 0
		}
		return n * (n - 1) / 2
	}
	base := c3(l) - c3(l-i)
	// Within block i, pairs (j,k) over the remaining l-i-1 links.
	base += c2(l-i-1) - c2(l-j)
	return base + (k - j - 1)
}

func c2of(n int) int {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

func c3of(n int) int {
	if n < 3 {
		return 0
	}
	return n * (n - 1) * (n - 2) / 6
}

// pairBlockStart is the pairIndex of (i, i+1): the offset of block i.
func (p *Partition) pairBlockStart(i int) int {
	return i * (2*p.l - i - 1) / 2
}

// decodePair inverts pairIndex: the dense rank idx back to (i, j), i < j.
// The block is found in closed form — blockStart(i) <= idx pins i to the
// smaller root of i² - (2l-1)i + 2·idx = 0 — with an integer fixup loop
// absorbing any float rounding, so the decode is exact for every l the
// element cap admits.
func (p *Partition) decodePair(idx int) (int, int) {
	b := float64(2*p.l - 1)
	i := int((b - math.Sqrt(b*b-8*float64(idx))) / 2)
	if i < 0 {
		i = 0
	}
	for i+1 < p.l-1 && p.pairBlockStart(i+1) <= idx {
		i++
	}
	for i > 0 && p.pairBlockStart(i) > idx {
		i--
	}
	j := idx - p.pairBlockStart(i) + i + 1
	return i, j
}

// decodeTriple inverts tripleIndex: the dense rank idx back to (i, j, k),
// i < j < k, by binary-searching the two block prefixes of the ranking.
func (p *Partition) decodeTriple(idx int) (int, int, int) {
	l := p.l
	// Largest i with c3(l) - c3(l-i) <= idx.
	i := sort.Search(l-3, func(n int) bool { return c3of(l)-c3of(l-n-1) > idx })
	rem := idx - (c3of(l) - c3of(l-i))
	// Largest j > i with c2(l-i-1) - c2(l-j) <= rem.
	j := i + 1 + sort.Search(l-i-2, func(n int) bool { return c2of(l-i-1)-c2of(l-i-2-n) > rem })
	k := rem - (c2of(l-i-1) - c2of(l-j)) + j + 1
	return i, j, k
}

// noteConstituents reports to note each constituent physical link of elem
// that this affEpoch has not reported yet, marking it reported. It returns
// how many links it reported, and false as soon as note returns false.
func (p *Partition) noteConstituents(elem int32, note func(li int32) bool) (int, bool) {
	var c [3]int32
	n := 1
	switch {
	case int(elem) < p.l:
		c[0] = elem
	case int(elem) < p.l+len(p.pairA):
		r := int(elem) - p.l
		c[0], c[1], n = int32(p.pairA[r]), int32(p.pairB[r]), 2
	default:
		r := int(elem) - p.l - len(p.pairA)
		c[0], c[1], c[2], n = int32(p.tripA[r]), int32(p.tripB[r]), int32(p.tripC[r]), 3
	}
	e, mark := p.affEpoch, p.affMark
	added := 0
	for _, li := range c[:n] {
		if mark[li] == e {
			continue
		}
		mark[li] = e
		added++
		if !note(li) {
			return added, false
		}
	}
	return added, true
}

// visitPath visits every element (physical, pair, triple) that intersects
// the path, each once — the path's links, then its pairs, then its triples,
// the order Split assigns new group ids in — and leaves in p.scratch every
// group that has another member, in first-visit order, with its on-path
// member count in groupOnCnt. With collect it also leaves the visited
// elements of those groups in p.elems, in visiting order.
//
// links must contain valid, distinct local link ids that p.inPath already
// marks, and p.epoch must be fresh (both managed by the exported callers).
func (p *Partition) visitPath(links []int32, collect bool) {
	p.scratch, p.elems = p.scratch[:0], p.elems[:0]
	for _, l := range links {
		p.visit(l, collect)
	}
	if p.beta >= 2 {
		p.visitPairs(links, collect)
	}
	if p.beta < 3 {
		return
	}
	tripleBase := p.l + p.l*(p.l-1)/2
	for _, lRaw := range links {
		li := int(lRaw)
		// Triples {li, m1, m2}: owned by the smallest on-path member.
		for m1 := 0; m1 < p.l; m1++ {
			if m1 == li || (p.inPath[m1] && m1 < li) {
				continue
			}
			for m2 := m1 + 1; m2 < p.l; m2++ {
				if m2 == li || (p.inPath[m2] && m2 < li) {
					continue
				}
				a, b, c := sort3(li, m1, m2)
				p.visit(int32(tripleBase+p.tripleIndex(a, b, c)), collect)
			}
		}
	}
}

// visitPairs is visitPath's pair walk, the hot loop of every β >= 2 score
// evaluation. Pair {li, m} is visited from li's shared-pair list unless m
// is a smaller on-path link, whose list visits it; an entry whose pair
// turns out to be a singleton is dropped from the list in place. The
// partners below li come first in a list and are the only ones that can be
// on-path owners, so they get their own loop and the rest of the list a
// lighter one.
func (p *Partition) visitPairs(links []int32, collect bool) {
	off, stride, inPath := p.pairOff, p.l-1, p.inPath
	for _, li := range links {
		start := int(li) * stride
		list := p.shared[start : start+int(p.sharedLen[li])]
		w, k := 0, 0
		for ; k < len(list) && int32(list[k]) < li; k++ {
			m := list[k]
			if inPath[m] || p.visit(off[m]+li, collect) {
				list[w] = m
				w++
			}
		}
		offLi := off[li]
		for ; k < len(list); k++ {
			if m := list[k]; p.visit(offLi+int32(m), collect) {
				list[w] = m
				w++
			}
		}
		p.sharedLen[li] = int32(w)
	}
}

// visit counts elem as on the path this epoch and reports whether its group
// has another member. A group found alone on its first visit is a
// singleton, which refinement can never split again: it is not recorded.
func (p *Partition) visit(elem int32, collect bool) bool {
	g := p.gid[elem]
	if p.groupMark[g] != p.epoch {
		if p.groupSize[g] == 1 {
			return false
		}
		p.groupMark[g] = p.epoch
		p.groupOnCnt[g] = 0
		p.scratch = append(p.scratch, g)
	}
	p.groupOnCnt[g]++
	if collect {
		p.elems = append(p.elems, elem)
	}
	return true
}

func sort3(a, b, c int) (int, int, int) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}

// markPathDedup marks the path's links on inPath, dropping duplicate ids,
// and returns the unique links (backed by p.dedup, valid until the next
// marking call). The exported entry points all funnel input through it — or
// through the epoch-stamped linkSeen in the beta == 1 fast paths — so a
// caller repeating a link id cannot double-count a group or corrupt a
// split.
func (p *Partition) markPathDedup(links []int32) []int32 {
	uniq := p.dedup[:0]
	for _, l := range links {
		if !p.inPath[l] {
			p.inPath[l] = true
			uniq = append(uniq, l)
		}
	}
	p.dedup = uniq
	return uniq
}

func (p *Partition) unmarkPath(links []int32) {
	for _, l := range links {
		p.inPath[l] = false
	}
}

// CountSplittable returns the number of groups the path would properly
// split: groups with at least one member on the path and at least one off
// it. This is the "# of link sets on path" term of the PMC score (Eq. 1) —
// the quantity that makes the score monotone, since a group, once refined,
// can only become harder to split.
func (p *Partition) CountSplittable(links []int32) int {
	switch p.beta {
	case 0:
		return 0
	case 1:
		return p.countSplittableLinks(links)
	}
	links = p.markPathDedup(links)
	p.epoch++
	p.visitPath(links, false)
	n := 0
	for _, g := range p.scratch {
		if p.groupOnCnt[g] < p.groupSize[g] {
			n++
		}
	}
	p.unmarkPath(links)
	return n
}

// countSplittableLinks is the beta == 1 fast path of CountSplittable: the
// element universe is exactly the physical links, so the count needs no
// path marking and no pair/triple enumeration — one pass over the links
// with epoch-stamped group visits (linkSeen absorbs duplicate input ids in
// the same pass).
func (p *Partition) countSplittableLinks(links []int32) int {
	p.epoch++
	e := p.epoch
	groups := p.scratch[:0]
	gid, gMark, gOn, seen := p.gid, p.groupMark, p.groupOnCnt, p.linkSeen
	for _, l := range links {
		if seen[l] == e {
			continue
		}
		seen[l] = e
		g := gid[l]
		if gMark[g] != e {
			gMark[g] = e
			gOn[g] = 0
			groups = append(groups, g)
		}
		gOn[g]++
	}
	n := 0
	gSize := p.groupSize
	for _, g := range groups {
		if gOn[g] < gSize[g] {
			n++
		}
	}
	if cap(groups) > cap(p.scratch) {
		// Only a grown slice is stored: the store is a pointer write, which
		// pays a write barrier on every score evaluation while the
		// collector marks.
		p.scratch = groups[:0]
	}
	return n
}

// Split refines the partition with the path: every group with members both
// on and off the path is split in two. It returns the number of groups that
// were properly split.
func (p *Partition) Split(links []int32) int {
	if p.beta == 0 {
		return 0
	}
	links = p.markPathDedup(links)
	p.epoch++
	p.visitPath(links, true)
	// Every visited group gets a new id for its on-path members, in
	// first-visit order; groups it takes whole keep their membership and
	// only change id, so they split nothing.
	split := 0
	for _, g := range p.scratch {
		ng := int32(len(p.groupSize))
		on, off := p.groupOnCnt[g], p.groupSize[g]-p.groupOnCnt[g]
		p.groupSize = append(p.groupSize, on)
		p.groupMark = append(p.groupMark, p.epoch)
		p.groupNew = append(p.groupNew, ng)
		p.groupOnCnt = append(p.groupOnCnt, 0)
		p.memberHead = append(p.memberHead, -1)
		p.groupNew[g] = ng
		p.groupSize[g] = off
		if off == 0 {
			continue
		}
		split++
		p.numGroups++
		if on == 1 {
			p.numSingle++
		}
		if off == 1 {
			p.numSingle++
		}
	}
	for _, elem := range p.elems {
		g := p.gid[elem]
		ng := p.groupNew[g]
		p.gid[elem] = ng
		p.moveMember(elem, g, ng)
	}
	p.unmarkPath(links)
	return split
}

// moveMember unlinks element e from group g's membership list and pushes it
// onto ng's.
func (p *Partition) moveMember(e, g, ng int32) {
	prev, next := p.memberPrev[e], p.memberNext[e]
	if prev >= 0 {
		p.memberNext[prev] = next
	} else {
		p.memberHead[g] = next
	}
	if next >= 0 {
		p.memberPrev[next] = prev
	}
	head := p.memberHead[ng]
	p.memberNext[e] = head
	p.memberPrev[e] = -1
	if head >= 0 {
		p.memberPrev[head] = e
	}
	p.memberHead[ng] = e
}

// SplitAffected refines the partition like Split and reports to note which
// physical links may have had their splittability context changed: the
// constituent links of every member of every group that was properly split
// (both halves), each link once. This is the incremental-scoring contract
// PMC relies on: a candidate path's CountSplittable term can only change
// when one of its links constitutes an element of a group the selected path
// split, so rescoring can be confined to paths touching the reported links
// (plus, for the Σw term, the selected path's own links). It returns the
// number of groups properly split.
//
// The report is exact at every supported beta: the membership lists cover
// the whole virtual element universe, and pair/triple members decode back
// to physical links through the decode tables. Split runs in full before
// the walk, so where the walk stops never changes the partition. The walk
// stops as soon as note returns false, having reported exactly the first
// links of the full report, in order; and it stops once every physical link
// has been reported, because further members can only repeat links, which
// keeps the full report cheap even on the huge early-construction groups.
func (p *Partition) SplitAffected(links []int32, note func(li int32) bool) int {
	split := p.Split(links)
	if p.beta == 0 || split == 0 {
		return split
	}
	p.affEpoch++
	remaining := p.l
	for _, g := range p.scratch { // the groups Split gave a new id
		ng := p.groupNew[g]
		if p.groupSize[g] == 0 {
			// Every member moved: membership is unchanged, only the
			// group id differs, so no path's count changed.
			continue
		}
		for _, h := range [2]int32{g, ng} {
			for e := p.memberHead[h]; e >= 0; e = p.memberNext[e] {
				n, more := p.noteConstituents(e, note)
				if remaining -= n; !more || remaining == 0 {
					return split
				}
			}
		}
	}
	return split
}

// AppendUnrefined appends to links, each once, the constituent physical
// links of every element that still shares its group, and returns the
// extended slice: a path can refine the partition further only through one
// of them. The result is empty exactly when Done, at every beta >= 1; at
// beta == 0 identifiability is not tracked and nothing is appended.
func (p *Partition) AppendUnrefined(links []int32) []int32 {
	if p.beta == 0 {
		return links
	}
	p.affEpoch++
	remaining := p.l
	note := func(li int32) bool {
		links = append(links, li)
		return true
	}
	for g, size := range p.groupSize {
		if size < 2 {
			continue
		}
		for e := p.memberHead[g]; e >= 0; e = p.memberNext[e] {
			n, _ := p.noteConstituents(e, note)
			if remaining -= n; remaining == 0 {
				return links
			}
		}
	}
	return links
}

// GroupOf returns the group id of physical link l (for tests).
func (p *Partition) GroupOf(l int) int32 { return p.gid[l] }

// PairGroup returns the group id of the virtual link {i, j} (for tests).
// Requires beta >= 2.
func (p *Partition) PairGroup(i, j int) int32 {
	if p.beta < 2 {
		panic("refine: PairGroup requires beta >= 2")
	}
	if i > j {
		i, j = j, i
	}
	return p.gid[p.l+p.pairIndex(i, j)]
}
