package route

import (
	"github.com/detector-net/detector/internal/topo"
)

// VL2Paths is the candidate path universe of a VL2(DA, DI, T) topology:
// every ordered ToR pair routed via every (up-agg, intermediate, down-agg)
// choice — 2 * DA/2 * 2 candidates per pair. Index layout is
// (orderedPair(src,dst) * 4*nInt) + (up * 2*nInt) + (mid * 2) + down.
type VL2Paths struct {
	V    *topo.VL2
	nToR int
	nInt int
}

var (
	_ PathSet    = (*VL2Paths)(nil)
	_ Symmetric  = (*VL2Paths)(nil)
	_ BulkLinker = (*VL2Paths)(nil)
)

// NewVL2Paths enumerates the candidate paths of v.
func NewVL2Paths(v *topo.VL2) *VL2Paths {
	return &VL2Paths{V: v, nToR: v.NumToRs(), nInt: v.NumInts()}
}

// PerPair returns the number of candidate paths per ordered ToR pair.
func (p *VL2Paths) PerPair() int { return 4 * p.nInt }

// Len returns nToR*(nToR-1) * 4*nInt.
func (p *VL2Paths) Len() int { return p.nToR * (p.nToR - 1) * p.PerPair() }

// Decode splits path index i into coordinates.
func (p *VL2Paths) Decode(i int) (src, dst, up, mid, down int) {
	via := i % p.PerPair()
	src, dst = unpackPair(i/p.PerPair(), p.nToR)
	up = via / (2 * p.nInt)
	mid = (via / 2) % p.nInt
	down = via % 2
	return src, dst, up, mid, down
}

// Encode is the inverse of Decode.
func (p *VL2Paths) Encode(src, dst, up, mid, down int) int {
	via := up*2*p.nInt + mid*2 + down
	return orderedPair(src, dst, p.nToR)*p.PerPair() + via
}

// AppendLinks implements PathSet.
func (p *VL2Paths) AppendLinks(i int, buf []topo.LinkID) []topo.LinkID {
	src, dst, up, mid, down := p.Decode(i)
	return p.V.PathLinks(src, dst, up, mid, down, buf)
}

// AppendAllLinks implements BulkLinker: it emits every candidate path's
// links in index order with pure arithmetic per path. The distinct
// ToR-agg and agg-intermediate links are resolved through the topology's
// link map exactly once up front; the generic fallback pays up to four map
// lookups per path, which dominates the scan.
func (p *VL2Paths) AppendAllLinks(links []topo.LinkID, offsets []int32) ([]topo.LinkID, []int32) {
	v := p.V
	gs := p.groupSize()
	// torAgg[tr*2+u] is ToR tr's uplink to member u of its agg pair.
	torAgg := make([]topo.LinkID, p.nToR*2)
	for tr := 0; tr < p.nToR; tr++ {
		g := tr / gs
		torAgg[tr*2] = v.MustLink(v.TorID[tr], v.AggID[2*g])
		torAgg[tr*2+1] = v.MustLink(v.TorID[tr], v.AggID[2*g+1])
	}
	// aggInt[a*nInt+m] is aggregation switch a's link to intermediate m.
	aggInt := make([]topo.LinkID, v.DI*p.nInt)
	for a := 0; a < v.DI; a++ {
		for m := 0; m < p.nInt; m++ {
			aggInt[a*p.nInt+m] = v.MustLink(v.AggID[a], v.IntID[m])
		}
	}
	checkArenaSize(len(links) + p.Len()*4)
	if cap(links)-len(links) < p.Len()*4 {
		grown := make([]topo.LinkID, len(links), len(links)+p.Len()*4)
		copy(grown, links)
		links = grown
	}
	// Index order: ordered (src, dst) pair major, then up, mid, down —
	// matching Decode. Same link order as PathLinks: ToR up, agg-int up,
	// [int-agg down when distinct,] agg-ToR down.
	for s := 0; s < p.nToR; s++ {
		sg := s / gs
		for d := 0; d < p.nToR; d++ {
			if d == s {
				continue
			}
			dg := d / gs
			for up := 0; up < 2; up++ {
				aggUp := 2*sg + up
				for mid := 0; mid < p.nInt; mid++ {
					for down := 0; down < 2; down++ {
						aggDown := 2*dg + down
						links = append(links, torAgg[s*2+up], aggInt[aggUp*p.nInt+mid])
						if aggDown != aggUp {
							links = append(links, aggInt[aggDown*p.nInt+mid])
						}
						links = append(links, torAgg[d*2+down])
						offsets = append(offsets, int32(len(links)))
					}
				}
			}
		}
	}
	return links, offsets
}

// Endpoints implements PathSet.
func (p *VL2Paths) Endpoints(i int) (src, dst topo.NodeID) {
	s, d, _, _, _ := p.Decode(i)
	return p.V.TorID[s], p.V.TorID[d]
}

// groupSize returns the number of ToRs per aggregation pair (DA/2).
func (p *VL2Paths) groupSize() int { return p.V.DA / 2 }

// numGroups returns the number of aggregation pairs (DI/2).
func (p *VL2Paths) numGroups() int { return p.V.DI / 2 }

// shift applies the automorphism shift generator: ToRs advance one
// aggregation-pair group (offset within group preserved) and intermediates
// rotate by one. The generator order is lcm(DI/2, DA/2).
func (p *VL2Paths) shift(src, dst, mid, r int) (int, int, int) {
	gs := p.groupSize()
	src = (src + r*gs) % p.nToR
	dst = (dst + r*gs) % p.nToR
	mid = (mid + r) % p.nInt
	return src, dst, mid
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// AppendRepresentatives implements Symmetric by isRepresentative.
func (p *VL2Paths) AppendRepresentatives(paths Paths, rows []int32) []int32 {
	return AppendWhere(paths, rows, p.isRepresentative)
}

// isRepresentative reports whether path i is canonical: canonical orbit
// members have the source ToR in group 0 and the minimal intermediate index
// within the residue coset reachable by further whole-group rotations.
func (p *VL2Paths) isRepresentative(i int) bool {
	src, _, _, mid, _ := p.Decode(i)
	if src/p.groupSize() != 0 {
		return false
	}
	// Rotations that keep src in group 0 are multiples of DI/2; they move
	// mid by multiples of DI/2 mod nInt, whose subgroup is generated by
	// gcd(DI/2, nInt).
	return mid < gcd(p.numGroups(), p.nInt)
}

// AppendOrbit implements Symmetric.
func (p *VL2Paths) AppendOrbit(i int, buf []int) []int {
	src, dst, up, mid, down := p.Decode(i)
	order := p.numGroups() * p.nInt / gcd(p.numGroups(), p.nInt)
	for r := 1; r < order; r++ {
		s2, d2, m2 := p.shift(src, dst, mid, r)
		buf = append(buf, p.Encode(s2, d2, up, m2, down))
	}
	return buf
}
