package route

import (
	"hash"
	"hash/fnv"

	"github.com/detector-net/detector/internal/topo"
)

// sigHash is the FNV-1a stream the three matrix fingerprints share: every
// value is folded in as eight little-endian bytes.
type sigHash struct {
	h hash.Hash64
	b [8]byte
}

func newSigHash() *sigHash { return &sigHash{h: fnv.New64a()} }

func (s *sigHash) w64(v uint64) {
	for i := 0; i < 8; i++ {
		s.b[i] = byte(v >> (8 * i))
	}
	s.h.Write(s.b[:])
}

func (s *sigHash) row(links []topo.LinkID) {
	s.w64(uint64(len(links)))
	for _, l := range links {
		s.w64(uint64(l))
	}
}

// MatrixSignature fingerprints a materialized candidate matrix: the
// link-ID space size plus every row's link set, in row order. Two engines
// that derive the same candidate paths from the same topology produce the
// same signature, so a shard service can refuse work from a coordinator
// built for a different matrix (mismatched radix, topology family or
// candidate generation) instead of silently computing a wrong answer. The
// sharded control plane stamps every construction request with it.
func MatrixSignature(csr *CSR, numLinks int) uint64 {
	s := newSigHash()
	s.w64(uint64(numLinks))
	n := csr.Len()
	s.w64(uint64(n))
	for i := 0; i < n; i++ {
		s.row(csr.Row(i))
	}
	return s.h.Sum64()
}

// RowsSignature fingerprints exactly what a PLL engine reads from a probe
// matrix: the link-ID space and every row's link set, in row order —
// neither the endpoints (only the caller's unhealthy-server filter reads
// them) nor the wire path IDs. It is the content address of a diagnosis
// plane part on the localize wire: a shard service that rebuilds the rows
// from an install frame can recompute it, which it could not for a
// fingerprint over fields that never travel.
func RowsSignature(p *Probes) uint64 {
	s := newSigHash()
	s.w64(uint64(p.NumLinks))
	s.w64(uint64(p.NumPaths()))
	for _, links := range p.PathLinks {
		s.row(links)
	}
	return s.h.Sum64()
}

// ProbesSignature fingerprints a served probe matrix by content: link-ID
// space, every row's link set and endpoints, and the wire path IDs when
// sparse. The diagnoser's /matrix fetch allocates a fresh matrix every
// window, so pointer identity cannot tell "same matrix" from "new
// construction cycle" on that path — this signature can, which is what
// lets the diagnosis plane keep its partition and engines across windows
// instead of rebuilding them for an unchanged matrix.
func ProbesSignature(p *Probes) uint64 {
	s := newSigHash()
	s.w64(uint64(p.NumLinks))
	s.w64(uint64(p.NumPaths()))
	for i, links := range p.PathLinks {
		s.row(links)
		s.w64(uint64(p.Src[i]))
		s.w64(uint64(p.Dst[i]))
	}
	ids := p.IDs()
	s.w64(uint64(len(ids)))
	for _, id := range ids {
		s.w64(uint64(id))
	}
	return s.h.Sum64()
}
