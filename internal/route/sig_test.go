package route

import (
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

func csrOf(rows ...[]topo.LinkID) *CSR { return NewCSR(rows) }

// TestHashIsFixed pins the fingerprint function: a coordinator and a shard
// service compute MatrixSignature in different processes and compare, so
// the value for given content must never depend on the process, the
// platform or the build.
func TestHashIsFixed(t *testing.T) {
	var h Hash
	if got := h.Sum64(); got != 0 {
		t.Errorf("empty stream hashes to %#x, want 0", got)
	}
	h.Word(0)
	h.Links([]topo.LinkID{3, 1, 4})
	if got, want := h.Sum64(), uint64(0x90c70ef59d6b4046); got != want {
		t.Errorf("Word(0), Links{3,1,4} hashes to %#016x, pinned %#016x", got, want)
	}
	if got, want := MatrixSignature(csrOf([]topo.LinkID{0, 1}, []topo.LinkID{2}), 3), uint64(0x5936bc81a8f2cb87); got != want {
		t.Errorf("MatrixSignature hashes to %#016x, pinned %#016x", got, want)
	}
}

// TestHashSeesStructure: content that differs only in where a row ends, in
// a leading zero, or in order must not collide.
func TestHashSeesStructure(t *testing.T) {
	sigs := map[uint64]string{}
	for name, c := range map[string]*CSR{
		"{0,1}{2}":  csrOf([]topo.LinkID{0, 1}, []topo.LinkID{2}),
		"{0}{1,2}":  csrOf([]topo.LinkID{0}, []topo.LinkID{1, 2}),
		"{0,1,2}":   csrOf([]topo.LinkID{0, 1, 2}),
		"{}{0,1,2}": csrOf(nil, []topo.LinkID{0, 1, 2}),
		"{1,0}{2}":  csrOf([]topo.LinkID{1, 0}, []topo.LinkID{2}),
		"{0}{0}":    csrOf([]topo.LinkID{0}, []topo.LinkID{0}),
		"{0}{0}{0}": csrOf([]topo.LinkID{0}, []topo.LinkID{0}, []topo.LinkID{0}),
	} {
		s := MatrixSignature(c, 3)
		if other, dup := sigs[s]; dup {
			t.Errorf("%s and %s share signature %#016x", name, other, s)
		}
		sigs[s] = name
	}
	var a, b Hash
	a.Word(0)
	if a.Sum64() == b.Sum64() {
		t.Error("a leading zero word leaves the stream unchanged")
	}
}

var sigSink uint64

// BenchmarkMatrixSignatureFattree16 fingerprints the 1.04 M-row candidate
// matrix a Fattree(16) controller and each of its shards hash once per cold
// start, from generated rows with none stored: ~20-30 ms on a 2-vCPU host,
// against ~8-10 ms over a stored matrix that took ~13 ms to write out
// (~72 ms when the stream was FNV-1a a byte at a time).
func BenchmarkMatrixSignatureFattree16(b *testing.B) {
	f := topo.MustFattree(16)
	csr := MaterializeCSR(NewFattreePaths(f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigSink = MatrixSignature(csr, f.NumLinks())
	}
}
