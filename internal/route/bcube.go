package route

import (
	"github.com/detector-net/detector/internal/topo"
)

// BCubePaths is the candidate path universe of BCube(n, k): the k+1 parallel
// paths of BuildPathSet for every ordered server pair (the paper treats
// BCube servers as switches, §4.4 footnote 2). Index layout is
// (orderedPair(src,dst) * (k+1)) + parallelIndex.
type BCubePaths struct {
	B    *topo.BCube
	nSrv int
}

var (
	_ PathSet    = (*BCubePaths)(nil)
	_ Symmetric  = (*BCubePaths)(nil)
	_ BulkLinker = (*BCubePaths)(nil)
)

// NewBCubePaths enumerates the candidate paths of b.
func NewBCubePaths(b *topo.BCube) *BCubePaths {
	return &BCubePaths{B: b, nSrv: b.NumServers()}
}

// PerPair returns k+1, the number of parallel paths per ordered pair.
func (p *BCubePaths) PerPair() int { return p.B.K + 1 }

// Len returns nSrv*(nSrv-1)*(k+1).
func (p *BCubePaths) Len() int { return p.nSrv * (p.nSrv - 1) * p.PerPair() }

// Decode splits path index idx into (src label, dst label, parallel index).
func (p *BCubePaths) Decode(idx int) (src, dst, pi int) {
	pi = idx % p.PerPair()
	src, dst = unpackPair(idx/p.PerPair(), p.nSrv)
	return src, dst, pi
}

// Encode is the inverse of Decode.
func (p *BCubePaths) Encode(src, dst, pi int) int {
	return orderedPair(src, dst, p.nSrv)*p.PerPair() + pi
}

// AppendLinks implements PathSet.
func (p *BCubePaths) AppendLinks(idx int, buf []topo.LinkID) []topo.LinkID {
	src, dst, pi := p.Decode(idx)
	return p.B.BuildPathLinks(src, dst, pi, buf)
}

// AppendAllLinks implements BulkLinker: it replays the BuildPathSet
// construction for every ordered pair and parallel index with pure digit
// arithmetic, emitting links from a precomputed (server, level) → link
// table. Every BCube link is a server-switch link, so the table has
// nSrv*(k+1) entries resolved through the link map exactly once; the
// generic fallback pays two map lookups per hop per path.
func (p *BCubePaths) AppendAllLinks(links []topo.LinkID, offsets []int32) ([]topo.LinkID, []int32) {
	b := p.B
	kk := b.K + 1
	table := make([]topo.LinkID, p.nSrv*kk)
	for a := 0; a < p.nSrv; a++ {
		for lvl := 0; lvl < kk; lvl++ {
			table[a*kk+lvl] = b.MustLink(b.SrvID[a], b.SwitchFor(a, lvl))
		}
	}
	// Digit-correction orders per parallel index (BCube paper, Fig. 5):
	// shiftPerms for pairs whose digit i differs, detourPerms for the
	// neighbor detour when it does not (digit i is restored last).
	shiftPerms := make([][]int, kk)  // (i, i-1, ..., 0, K, ..., i+1)
	detourPerms := make([][]int, kk) // (i-1, ..., 0, K, ..., i+1)
	for i := 0; i < kk; i++ {
		for d := i; d >= 0; d-- {
			shiftPerms[i] = append(shiftPerms[i], d)
		}
		for d := i - 1; d >= 0; d-- {
			detourPerms[i] = append(detourPerms[i], d)
		}
		for d := b.K; d > i; d-- {
			shiftPerms[i] = append(shiftPerms[i], d)
			detourPerms[i] = append(detourPerms[i], d)
		}
	}
	emitHop := func(x, y, lvl int) {
		links = append(links, table[x*kk+lvl], table[y*kk+lvl])
	}
	dcRoute := func(cur, dst int, perm []int) {
		for _, dg := range perm {
			want := b.Digit(dst, dg)
			if b.Digit(cur, dg) == want {
				continue
			}
			next := b.SetDigit(cur, dg, want)
			emitHop(cur, next, dg)
			cur = next
		}
	}
	// Worst case 2*(k+2) links per path (detour, all digits differing).
	bound := p.Len() * 2 * (b.K + 2)
	checkArenaSize(len(links) + bound)
	if cap(links)-len(links) < bound {
		grown := make([]topo.LinkID, len(links), len(links)+bound)
		copy(grown, links)
		links = grown
	}
	for s := 0; s < p.nSrv; s++ {
		for d := 0; d < p.nSrv; d++ {
			if d == s {
				continue
			}
			for i := 0; i < kk; i++ {
				if b.Digit(s, i) != b.Digit(d, i) {
					dcRoute(s, d, shiftPerms[i])
				} else {
					c := (b.Digit(s, i) + 1) % b.N
					mid := b.SetDigit(s, i, c)
					emitHop(s, mid, i)
					last := b.SetDigit(d, i, c)
					dcRoute(mid, last, detourPerms[i])
					emitHop(last, d, i)
				}
				offsets = append(offsets, int32(len(links)))
			}
		}
	}
	return links, offsets
}

// Endpoints implements PathSet.
func (p *BCubePaths) Endpoints(idx int) (src, dst topo.NodeID) {
	s, d, _ := p.Decode(idx)
	return p.B.SrvID[s], p.B.SrvID[d]
}

// shift applies the automorphism shift generator: every digit of both
// endpoint labels advances by one modulo n (a translation of the BCube
// lattice). The generator order is n.
func (p *BCubePaths) shift(label, r int) int {
	out := 0
	for i := 0; i <= p.B.K; i++ {
		d := (p.B.Digit(label, i) + r) % p.B.N
		out = p.B.SetDigit(out, i, d)
	}
	return out
}

// AppendRepresentatives implements Symmetric by isRepresentative.
func (p *BCubePaths) AppendRepresentatives(paths Paths, rows []int32) []int32 {
	return AppendWhere(paths, rows, p.isRepresentative)
}

// isRepresentative reports whether path idx is canonical: the canonical
// orbit member has source digit 0 equal to zero.
func (p *BCubePaths) isRepresentative(idx int) bool {
	src, _, _ := p.Decode(idx)
	return p.B.Digit(src, 0) == 0
}

// AppendOrbit implements Symmetric.
func (p *BCubePaths) AppendOrbit(idx int, buf []int) []int {
	src, dst, pi := p.Decode(idx)
	for r := 1; r < p.B.N; r++ {
		buf = append(buf, p.Encode(p.shift(src, r), p.shift(dst, r), pi))
	}
	return buf
}
