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
// each element plus one intrusive membership list per group, so a
// Fattree(48) subproblem (2,304 links, 2.65 M virtual pairs) costs 16
// bytes per element — a few dozen megabytes.
//
// Virtual elements are stored by dense combinatorial rank (pairIndex,
// tripleIndex). A compact int16 decode table maps each rank back to its
// constituent physical links, with arithmetic inverses (decodePair,
// decodeTriple) as the tested ground truth, so SplitAffected reports the
// exact affected-link set at every supported β.
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
	scratch    []int32 // reusable visited-group list

	// Intrusive membership lists over the full element universe (physical
	// links, pairs and triples alike), maintained whenever beta >= 1:
	// memberHead[g] threads group g's members through memberNext/
	// memberPrev. They let SplitAffected enumerate every member of a
	// properly split group in O(|group|) and decode it back to physical
	// links, making the affected-link report exact at every supported
	// beta.
	memberHead  []int32
	memberNext  []int32
	memberPrev  []int32
	splitGroups []int32 // scratch: groups that allocated a new id this Split

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

// appendConstituents decodes element elem to its constituent physical links
// through the decode tables and appends each to aff unless already reported
// this affEpoch. It returns the extended slice and the number of links
// appended.
func (p *Partition) appendConstituents(elem int32, aff []int32) ([]int32, int) {
	added := 0
	e := p.affEpoch
	mark := p.affMark
	switch {
	case int(elem) < p.l:
		if mark[elem] != e {
			mark[elem] = e
			aff = append(aff, elem)
			added++
		}
	case int(elem) < p.l+len(p.pairA):
		r := int(elem) - p.l
		i, j := int32(p.pairA[r]), int32(p.pairB[r])
		if mark[i] != e {
			mark[i] = e
			aff = append(aff, i)
			added++
		}
		if mark[j] != e {
			mark[j] = e
			aff = append(aff, j)
			added++
		}
	default:
		r := int(elem) - p.l - len(p.pairA)
		i, j, k := int32(p.tripA[r]), int32(p.tripB[r]), int32(p.tripC[r])
		if mark[i] != e {
			mark[i] = e
			aff = append(aff, i)
			added++
		}
		if mark[j] != e {
			mark[j] = e
			aff = append(aff, j)
			added++
		}
		if mark[k] != e {
			mark[k] = e
			aff = append(aff, k)
			added++
		}
	}
	return aff, added
}

// forEachElementOnPath invokes fn with the element index of every element
// (physical, pair, triple) that intersects the path. Each element is
// visited exactly once. links must contain valid, distinct local link ids;
// p.inPath must already mark them (managed by the exported callers).
func (p *Partition) forEachElementOnPath(links []int32, fn func(elem int)) {
	for _, l := range links {
		fn(int(l))
	}
	if p.beta < 2 {
		return
	}
	pairBase := p.l
	for _, lRaw := range links {
		li := int(lRaw)
		// Pairs {li, m}: to visit each pair once, only the smallest
		// on-path member owns it, i.e. skip m that are on the path and
		// smaller than li.
		for m := 0; m < p.l; m++ {
			if m == li {
				continue
			}
			if p.inPath[m] && m < li {
				continue
			}
			var idx int
			if li < m {
				idx = p.pairIndex(li, m)
			} else {
				idx = p.pairIndex(m, li)
			}
			fn(pairBase + idx)
		}
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
				fn(tripleBase + p.tripleIndex(a, b, c))
			}
		}
	}
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
	if p.beta == 0 {
		return 0
	}
	if p.beta == 1 {
		return p.countSplittableLinks(links)
	}
	if p.beta == 2 {
		return p.countSplittablePairs(links)
	}
	links = p.markPathDedup(links)
	p.epoch++
	e := p.epoch
	groups := p.scratch[:0]
	p.forEachElementOnPath(links, func(elem int) {
		g := p.gid[elem]
		if p.groupMark[g] != e {
			p.groupMark[g] = e
			p.groupOnCnt[g] = 0
			groups = append(groups, g)
		}
		p.groupOnCnt[g]++
	})
	n := 0
	for _, g := range groups {
		if p.groupOnCnt[g] < p.groupSize[g] {
			n++
		}
	}
	p.scratch = groups[:0]
	p.unmarkPath(links)
	return n
}

// countSplittablePairs is the beta == 2 fast path of CountSplittable: the
// same owned-pair enumeration as forEachElementOnPath, but inlined into
// direct loops so the per-element group visit compiles without a closure
// call — every score evaluation of a β=2 construction lands here, and the
// indirect call was the single hottest line of the profile. The m > li half
// of each path link's block is a contiguous rank run, so that gid walk is
// sequential and prefetch-friendly.
func (p *Partition) countSplittablePairs(links []int32) int {
	links = p.markPathDedup(links)
	p.epoch++
	e := p.epoch
	groups := p.scratch[:0]
	gid, gMark, gOn := p.gid, p.groupMark, p.groupOnCnt
	for _, l := range links {
		g := gid[l]
		if gMark[g] != e {
			gMark[g] = e
			gOn[g] = 0
			groups = append(groups, g)
		}
		gOn[g]++
	}
	pairBase := p.l
	for _, lRaw := range links {
		li := int(lRaw)
		// Pairs {m, li} with m < li: rank jumps block to block; skip
		// on-path m (their block owns the pair).
		for m := 0; m < li; m++ {
			if p.inPath[m] {
				continue
			}
			g := gid[pairBase+p.pairBlockStart(m)+li-m-1]
			if gMark[g] != e {
				gMark[g] = e
				gOn[g] = 0
				groups = append(groups, g)
			}
			gOn[g]++
		}
		// Pairs {li, m} with m > li: ranks are contiguous.
		base := pairBase + p.pairBlockStart(li) - li - 1
		for idx := base + li + 1; idx <= base+p.l-1; idx++ {
			g := gid[idx]
			if gMark[g] != e {
				gMark[g] = e
				gOn[g] = 0
				groups = append(groups, g)
			}
			gOn[g]++
		}
	}
	n := 0
	for _, g := range groups {
		if gOn[g] < p.groupSize[g] {
			n++
		}
	}
	p.scratch = groups[:0]
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
	p.scratch = groups[:0]
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
	e := p.epoch
	split := 0
	p.splitGroups = p.splitGroups[:0]
	p.forEachElementOnPath(links, func(elem int) {
		g := p.gid[elem]
		if p.groupMark[g] != e {
			p.groupMark[g] = e
			if p.groupSize[g] == 1 {
				// A singleton fully on the path: nothing to split.
				p.groupNew[g] = g
				return
			}
			ng := int32(len(p.groupSize))
			p.groupSize = append(p.groupSize, 0)
			p.groupMark = append(p.groupMark, e)
			p.groupNew = append(p.groupNew, ng)
			p.groupOnCnt = append(p.groupOnCnt, 0)
			if p.memberHead != nil {
				p.memberHead = append(p.memberHead, -1)
			}
			p.groupNew[g] = ng
			p.splitGroups = append(p.splitGroups, g)
			p.numGroups++
			split++ // provisional; retracted below if the split was total
		}
		ng := p.groupNew[g]
		if ng == g {
			return
		}
		p.gid[elem] = ng
		if p.memberHead != nil {
			p.moveMember(int32(elem), g, ng)
		}
		p.groupSize[g]--
		p.groupSize[ng]++
		switch p.groupSize[ng] {
		case 1:
			p.numSingle++
		case 2:
			p.numSingle--
		}
		switch p.groupSize[g] {
		case 1:
			p.numSingle++
		case 0:
			// Every member moved: not a real split after all.
			p.numSingle--
			p.numGroups--
			split--
		}
	})
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

// SplitAffected refines the partition like Split and additionally reports
// which physical links may have had their splittability context changed —
// the constituent links of every member of every group that was properly
// split (both halves). This is the incremental-scoring contract PMC relies
// on: a candidate path's CountSplittable term can only change when one of
// its links constitutes an element of a group the selected path split, so
// rescoring can be confined to paths touching the returned links (plus, for
// the Σw term, the selected path's own links).
//
// Affected links are appended to aff — each link at most once — and the
// extended slice is returned. exact is true at every supported beta: the
// membership lists cover the whole virtual element universe, and pair/
// triple members decode back to physical links arithmetically. The walk
// stops early once every physical link has been reported, because at that
// point the affected set has provably converged to its maximum — further
// members can only repeat links — so the report stays exactly the
// brute-force set even on the huge early-construction groups.
func (p *Partition) SplitAffected(links []int32, aff []int32) (split int, out []int32, exact bool) {
	split = p.Split(links)
	if p.beta == 0 || split == 0 {
		return split, aff, true
	}
	p.affEpoch++
	remaining := p.l
	for _, g := range p.splitGroups {
		ng := p.groupNew[g]
		if p.groupSize[g] == 0 {
			// Every member moved: membership is unchanged, only the
			// group id differs, so no path's count changed.
			continue
		}
		for _, h := range [2]int32{g, ng} {
			for e := p.memberHead[h]; e >= 0; e = p.memberNext[e] {
				var n int
				aff, n = p.appendConstituents(e, aff)
				remaining -= n
				if remaining == 0 {
					return split, aff, true
				}
			}
		}
	}
	return split, aff, true
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
	for g, size := range p.groupSize {
		if size < 2 {
			continue
		}
		for e := p.memberHead[g]; e >= 0; e = p.memberNext[e] {
			var n int
			links, n = p.appendConstituents(e, links)
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
