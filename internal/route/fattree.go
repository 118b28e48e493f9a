package route

import (
	"slices"

	"github.com/detector-net/detector/internal/topo"
)

// FattreePaths is the candidate path universe of a k-ary Fattree: every
// ordered ToR pair routed via every core switch. Path index layout is
// (orderedPair(src, dst) * numCores + core).
//
// Intra-pod pairs are also routed via cores: this matches the paper's
// original-path counts (Fattree(12): 72·71·36 = 184,032) and lets the probe
// matrix cover aggregation-core links from every pod.
type FattreePaths struct {
	F *topo.Fattree

	nToR   int
	nCores int
	h      int // k/2: ToRs and aggs per pod, cores per group
	// repBound caches the representative cutoff: source-pod-0 paths form a
	// contiguous index prefix, so the representatives among any ascending
	// paths are a prefix of them.
	repBound int
	// Every link a path can cross, resolved through the topology's link map
	// once: torAgg[t*h+g] joins ToR t to its pod's agg g, and
	// aggCore[pod*nCores+c] joins the pod's agg c/h to core c. A row is
	// then four slice reads, where going through PathLinks is four map
	// lookups; podBase[t] = pod(t)*nCores and group[c] = c/h spare it the
	// divisions too.
	torAgg  []topo.LinkID
	aggCore []topo.LinkID
	podBase []int32
	group   []int32
	// at inverts the link tables: at[l] is l's index in torAgg, or
	// len(torAgg) plus its index in aggCore; -1 when no path crosses l.
	at []int32
}

var (
	_ PathSet      = (*FattreePaths)(nil)
	_ Symmetric    = (*FattreePaths)(nil)
	_ HopsProvider = (*FattreePaths)(nil)
	_ Generator    = (*FattreePaths)(nil)
)

// NewFattreePaths enumerates the candidate paths of f.
func NewFattreePaths(f *topo.Fattree) *FattreePaths {
	h := f.Half()
	p := &FattreePaths{F: f, nToR: f.NumToRs(), nCores: f.NumCores(), h: h}
	p.repBound = h * (p.nToR - 1) * p.nCores
	p.torAgg = make([]topo.LinkID, p.nToR*h)
	for t, tor := range f.ToRList() {
		for g := 0; g < h; g++ {
			p.torAgg[t*h+g] = f.MustLink(tor, f.AggID[t/h][g])
		}
	}
	p.aggCore = make([]topo.LinkID, f.K*p.nCores)
	for pod := 0; pod < f.K; pod++ {
		for c := 0; c < p.nCores; c++ {
			p.aggCore[pod*p.nCores+c] = f.MustLink(f.AggID[pod][c/h], f.CoreID[c])
		}
	}
	p.podBase = make([]int32, p.nToR)
	for t := range p.podBase {
		p.podBase[t] = int32(t / h * p.nCores)
	}
	p.group = make([]int32, p.nCores)
	for c := range p.group {
		p.group[c] = int32(c / h)
	}
	p.at = make([]int32, f.NumLinks())
	for l := range p.at {
		p.at[l] = -1
	}
	for i, l := range p.torAgg {
		p.at[l] = int32(i)
	}
	for i, l := range p.aggCore {
		p.at[l] = int32(len(p.torAgg) + i)
	}
	return p
}

// Len returns nToR*(nToR-1)*nCores.
func (p *FattreePaths) Len() int { return p.nToR * (p.nToR - 1) * p.nCores }

// Decode splits path index i into (src ToR index, dst ToR index, core index).
func (p *FattreePaths) Decode(i int) (s, d, c int) {
	c = i % p.nCores
	s, d = unpackPair(i/p.nCores, p.nToR)
	return s, d, c
}

// Encode is the inverse of Decode.
func (p *FattreePaths) Encode(s, d, c int) int {
	return orderedPair(s, d, p.nToR)*p.nCores + c
}

// AppendLinks implements PathSet, in PathLinks order: up edge–agg, up
// agg–core, [down agg–core,] down edge–agg. A same-pod path re-descends
// through the agg it went up by, so its agg–core link appears once.
func (p *FattreePaths) AppendLinks(i int, buf []topo.LinkID) []topo.LinkID {
	s, d, c := p.Decode(i)
	g := int(p.group[c])
	sp, dp := int(p.podBase[s]), int(p.podBase[d])
	buf = append(buf, p.torAgg[s*p.h+g], p.aggCore[sp+c])
	if dp != sp {
		buf = append(buf, p.aggCore[dp+c])
	}
	return append(buf, p.torAgg[d*p.h+g])
}

// AppendRowsThrough implements Generator, read off the index layout:
//   - ToR t's link to agg g carries every path from or to t via a group-g
//     core;
//   - pod p's agg–core link to core c carries every path via c with an end
//     in pod p.
//
// Either way the ends span one range of ToRs (t alone, or p's), so for
// each source the destinations are every other ToR when the source is in
// the range, the range otherwise; pair order is source-major, so that
// lists the rows ascending. A link no path crosses (a server link, an ID
// outside the fabric) carries none.
func (p *FattreePaths) AppendRowsThrough(l topo.LinkID, buf []int32) []int32 {
	if l < 0 || int(l) >= len(p.at) || p.at[l] < 0 {
		return buf
	}
	n, h, nc := p.nToR, p.h, p.nCores
	// lo, hi: the range of ToRs; cores c0..c0+cn-1.
	var lo, hi, c0, cn int
	if at := int(p.at[l]); at < len(p.torAgg) {
		lo, hi, c0, cn = at/h, at/h+1, at%h*h, h
	} else {
		at -= len(p.torAgg)
		lo, c0, cn = at/nc*h, at%nc, 1
		hi = lo + h
	}
	for s := 0; s < n; s++ {
		from, to := lo, hi
		if s >= lo && s < hi {
			from, to = 0, n
		}
		for d := from; d < to; d++ {
			if d == s {
				continue
			}
			base := int32(orderedPair(s, d, n)*nc + c0)
			for c := base; c < base+int32(cn); c++ {
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// Endpoints implements PathSet.
func (p *FattreePaths) Endpoints(i int) (src, dst topo.NodeID) {
	s, d, _ := p.Decode(i)
	tors := p.F.ToRList()
	return tors[s], tors[d]
}

// HasHops implements HopsProvider.
func (p *FattreePaths) HasHops() bool { return true }

// AppendHops implements HopsProvider.
func (p *FattreePaths) AppendHops(i int, buf []topo.NodeID) []topo.NodeID {
	s, d, c := p.Decode(i)
	tors := p.F.ToRList()
	return p.F.PathHops(tors[s], tors[d], c, buf)
}

// PristineComponents implements Decomposer. Every link of a via-core path
// belongs to the aggregation-position group g of its core, so the matrix
// splits into k/2 components (§4.3, Observation 1). Component g holds every
// ToR–agg_g link, every agg_g–core link of a group-g core, and every path
// via a group-g core. They come out in group order, which is smallest-link
// order: the topology numbers edge–agg links pod by pod, ToR by ToR, agg by
// agg, so group g's smallest link is ToR 0's link to agg g.
func (p *FattreePaths) PristineComponents() []Component {
	if p.Len() == 0 {
		return nil
	}
	h := p.h
	nPairs := p.nToR * (p.nToR - 1)
	comps := make([]Component, h)
	for g := range comps {
		links := make([]topo.LinkID, 0, p.nToR+p.F.K*h)
		for t := 0; t < p.nToR; t++ {
			links = append(links, p.torAgg[t*h+g])
		}
		for pod := 0; pod < p.F.K; pod++ {
			links = append(links, p.aggCore[pod*p.nCores+g*h:pod*p.nCores+(g+1)*h]...)
		}
		slices.Sort(links)
		// Path index is pair*nCores + core: group g's cores are one
		// contiguous run of h in every pair's block, so its paths are a
		// span and none is listed.
		comps[g] = Component{Links: links, Paths: PathSpan(g*h, h, p.nCores, nPairs*h)}
	}
	return comps
}

// shift applies the family's automorphism shift generator sigma r times:
// pods rotate by r and cores rotate by r within their group. sigma has
// order k (lcm of the pod cycle k and the in-group core cycle k/2).
func (p *FattreePaths) shift(s, d, c, r int) (int, int, int) {
	k, h := p.F.K, p.F.Half()
	sp, se := s/h, s%h
	dp, de := d/h, d%h
	g, ci := c/h, c%h
	sp = (sp + r) % k
	dp = (dp + r) % k
	ci = (ci + r) % h
	return sp*h + se, dp*h + de, g*h + ci
}

// AppendRepresentatives implements Symmetric: the canonical orbit member
// is the unique rotation with source pod 0. Source ToR index is the major
// axis of the path-index layout, so pod-0 sources are exactly the indices
// below repBound: a prefix of paths, found by Paths.Search.
func (p *FattreePaths) AppendRepresentatives(paths Paths, rows []int32) []int32 {
	n := paths.Search(int32(p.repBound))
	rows = slices.Grow(rows, n)
	for r := range int32(n) {
		rows = append(rows, r)
	}
	return rows
}

// AppendOrbit implements Symmetric: the k-1 non-identity rotations.
func (p *FattreePaths) AppendOrbit(i int, buf []int) []int {
	s, d, c := p.Decode(i)
	for r := 1; r < p.F.K; r++ {
		s2, d2, c2 := p.shift(s, d, c, r)
		buf = append(buf, p.Encode(s2, d2, c2))
	}
	return buf
}
