package route

import (
	"cmp"
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
	// repBound caches the representative cutoff: source-pod-0 paths form a
	// contiguous index prefix, so IsRepresentative is one comparison.
	repBound int
}

var (
	_ PathSet      = (*FattreePaths)(nil)
	_ Symmetric    = (*FattreePaths)(nil)
	_ HopsProvider = (*FattreePaths)(nil)
	_ BulkLinker   = (*FattreePaths)(nil)
	_ Decomposer   = (*FattreePaths)(nil)
)

// NewFattreePaths enumerates the candidate paths of f.
func NewFattreePaths(f *topo.Fattree) *FattreePaths {
	p := &FattreePaths{F: f, nToR: f.NumToRs(), nCores: f.NumCores()}
	p.repBound = f.Half() * (p.nToR - 1) * p.nCores
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

// AppendLinks implements PathSet.
func (p *FattreePaths) AppendLinks(i int, buf []topo.LinkID) []topo.LinkID {
	s, d, c := p.Decode(i)
	tors := p.F.ToRList()
	return p.F.PathLinks(tors[s], tors[d], c, buf)
}

// AppendAllLinks implements BulkLinker: it emits every candidate path's
// links in index order with pure arithmetic per path. Every distinct
// ToR–agg and agg–core link is resolved through the topology's link map
// exactly once up front; a naive per-path materialization pays four map
// lookups per path, which dominates the whole scan.
func (p *FattreePaths) AppendAllLinks(links []topo.LinkID, offsets []int32) ([]topo.LinkID, []int32) {
	f := p.F
	tors := f.ToRList()
	h := f.Half()
	torAgg := make([]topo.LinkID, p.nToR*h)
	for t, tor := range tors {
		pod := t / h
		for g := 0; g < h; g++ {
			torAgg[t*h+g] = f.MustLink(tor, f.AggID[pod][g])
		}
	}
	aggCore := make([]topo.LinkID, f.K*p.nCores)
	for pod := 0; pod < f.K; pod++ {
		for c := 0; c < p.nCores; c++ {
			aggCore[pod*p.nCores+c] = f.MustLink(f.AggID[pod][c/h], f.CoreID[c])
		}
	}
	checkArenaSize(len(links) + p.Len()*4)
	if cap(links)-len(links) < p.Len()*4 {
		grown := make([]topo.LinkID, len(links), len(links)+p.Len()*4)
		copy(grown, links)
		links = grown
	}
	for s := 0; s < p.nToR; s++ {
		sp := s / h
		for d := 0; d < p.nToR; d++ {
			if d == s {
				continue
			}
			dp := d / h
			for c := 0; c < p.nCores; c++ {
				g := c / h
				// Same link order as PathLinks: up edge-agg, up agg-core,
				// [down agg-core,] down edge-agg.
				links = append(links, torAgg[s*h+g], aggCore[sp*p.nCores+c])
				if dp != sp {
					links = append(links, aggCore[dp*p.nCores+c])
				}
				links = append(links, torAgg[d*h+g])
				offsets = append(offsets, int32(len(links)))
			}
		}
	}
	return links, offsets
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
// via a group-g core.
func (p *FattreePaths) PristineComponents() []Component {
	if p.Len() == 0 {
		return nil
	}
	f, h := p.F, p.F.Half()
	tors := f.ToRList()
	nPairs := p.nToR * (p.nToR - 1)
	comps := make([]Component, h)
	for g := range comps {
		links := make([]topo.LinkID, 0, p.nToR+f.K*h)
		for t, tor := range tors {
			links = append(links, f.MustLink(tor, f.AggID[t/h][g]))
		}
		for pod := 0; pod < f.K; pod++ {
			for c := g * h; c < (g+1)*h; c++ {
				links = append(links, f.MustLink(f.AggID[pod][g], f.CoreID[c]))
			}
		}
		slices.Sort(links)
		// Path index is pair*nCores + core: group g's cores are one
		// contiguous run of h in every pair's block.
		paths := make([]int32, 0, nPairs*h)
		for pair := 0; pair < nPairs; pair++ {
			base := int32(pair*p.nCores + g*h)
			for c := base; c < base+int32(h); c++ {
				paths = append(paths, c)
			}
		}
		comps[g] = Component{Links: links, Paths: paths}
	}
	slices.SortFunc(comps, func(a, b Component) int { return cmp.Compare(a.Links[0], b.Links[0]) })
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

// IsRepresentative implements Symmetric: the canonical orbit member is the
// unique rotation with source pod 0. Source ToR index is the major axis of
// the path-index layout, so pod-0 sources are exactly the indices below
// repBound.
func (p *FattreePaths) IsRepresentative(i int) bool {
	return i < p.repBound
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
