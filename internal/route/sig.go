package route

import "github.com/detector-net/detector/internal/topo"

// Hash is the fingerprint stream the matrix signatures are built on: one
// 64-bit word per step through a fixed multiply-xorshift mix, so a value
// is the same in every process and on every platform. The zero
// Hash is ready to use. It is a content address, not a defence against an
// adversary choosing matrices.
type Hash struct{ h uint64 }

const (
	hashStep = 0x9e3779b97f4a7c15 // 2^64/φ: keeps leading zero words from vanishing
	hashMul  = 0xff51afd7ed558ccd // MurmurHash3's 64-bit finalizer multiplier
)

func mix(h, v uint64) uint64 {
	h = (h + hashStep) ^ v
	h *= hashMul
	return h ^ h>>32
}

// Word folds one value into the stream.
func (s *Hash) Word(v uint64) { s.h = mix(s.h, v) }

// Links folds a link set, length first. The set is digested on its own and
// enters the stream as one word, which leaves consecutive rows of a matrix
// independent of each other until that last step.
func (s *Hash) Links(links []topo.LinkID) {
	r := uint64(len(links))
	for _, l := range links {
		r = mix(r, uint64(l))
	}
	s.h = mix(s.h, r)
}

// Sum64 returns the fingerprint of everything folded in so far.
func (s *Hash) Sum64() uint64 { return s.h }

// MatrixSignature fingerprints a materialized candidate matrix: the
// link-ID space size plus every row's link set, in row order. Two engines
// that derive the same candidate paths from the same topology produce the
// same signature, so a shard service can refuse work from a coordinator
// built for a different matrix (mismatched radix, topology family or
// candidate generation) instead of silently computing a wrong answer. The
// sharded control plane stamps every construction request to such a shard
// with it (CSR.Signature). It reads rows through CSR.AppendRow, so a
// matrix whose rows are generated stores none for it.
func MatrixSignature(csr *CSR, numLinks int) uint64 {
	built.signature.Add(1)
	var s Hash
	s.Word(uint64(numLinks))
	n := csr.Len()
	s.Word(uint64(n))
	var row []topo.LinkID
	for i := 0; i < n; i++ {
		row = csr.AppendRow(i, row[:0])
		s.Links(row)
	}
	return s.Sum64()
}

// Signature returns MatrixSignature(c, numLinks), computed on first read
// and kept; numLinks is the topology's link-ID space size. Only a handshake
// with a shard that may hold another matrix, or an operator's placement
// view, reads it, so a matrix that meets neither never pays for the pass.
func (c *CSR) Signature(numLinks int) uint64 {
	return *c.sig.get(func() *uint64 {
		v := MatrixSignature(c, numLinks)
		return &v
	})
}

// RowsSignature fingerprints exactly what a PLL engine reads from a probe
// matrix: the link-ID space and every row's link set, in row order —
// neither the endpoints (only the caller's unhealthy-server filter reads
// them) nor the wire path IDs. It is the content address of a diagnosis
// plane part on the localize wire: a shard service that rebuilds the rows
// from an install frame can recompute it, which it could not for a
// fingerprint over fields that never travel.
func RowsSignature(p *Probes) uint64 {
	var s Hash
	s.Word(uint64(p.NumLinks))
	s.Word(uint64(p.NumPaths()))
	for _, links := range p.PathLinks {
		s.Links(links)
	}
	return s.Sum64()
}

// ProbesSignature fingerprints a served probe matrix by content: link-ID
// space, every row's link set and endpoints, and the wire path IDs when
// sparse. A matrix decoded afresh from /matrix is a new allocation every
// time, so pointer identity cannot tell "same matrix" from "new
// construction cycle" on that path — this signature can, which is what
// lets the diagnosis plane keep its partition and engines across windows
// instead of rebuilding them for an unchanged matrix.
func ProbesSignature(p *Probes) uint64 {
	var s Hash
	s.Word(uint64(p.NumLinks))
	s.Word(uint64(p.NumPaths()))
	for i, links := range p.PathLinks {
		s.Links(links)
		s.Word(uint64(p.Src[i]))
		s.Word(uint64(p.Dst[i]))
	}
	ids := p.IDs()
	s.Word(uint64(len(ids)))
	for _, id := range ids {
		s.Word(uint64(id))
	}
	return s.Sum64()
}
