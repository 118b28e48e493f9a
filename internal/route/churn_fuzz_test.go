package route

import (
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

// FuzzIncrementalDecompose drives an arbitrary sequence of multi-link churn
// steps against the incremental differ and checks after every step that
// diff-then-splice equals a from-scratch masked decomposition. A step is a
// count byte (1-3 links) followed by one byte per link of a Fattree(4)
// candidate matrix: a down link comes back up, an up link goes down, and an
// up link whose byte has the high bit set is listed in both down and up — it
// flaps within the step, beside the step's real transitions. The active-row
// counts the rebuild's early exit reads are checked from scratch too.
func FuzzIncrementalDecompose(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 3})
	f.Add([]byte{1, 2, 1, 2, 1})
	f.Add([]byte{7, 11, 7, 0, 11, 5})
	f.Add([]byte{2, 4, 9, 13, 2, 4, 0x80 | 9, 20, 1, 0x80 | 30})
	// Splits: both core links of agg-0-0 (32, 33) cut pod 0's share of its
	// component off; then pod 1's too (36, 37); then the links come back.
	f.Add([]byte{1, 32, 33, 1, 36, 37, 1, 33, 36, 1, 32, 37})
	f.Add([]byte{2, 32, 33, 0x80 | 5, 2, 32, 33, 36})

	ft := topo.MustFattree(4)
	csr := MaterializeCSR(NewFattreePaths(ft))
	numLinks := ft.NumLinks()

	f.Fuzz(func(t *testing.T, toggles []byte) {
		if len(toggles) > 64 {
			toggles = toggles[:64]
		}
		inc := mustIncremental(t, csr, numLinks, nil)
		down := make(map[topo.LinkID]bool)
		for len(toggles) > 0 {
			n := 1 + int(toggles[0])%3
			toggles = toggles[1:]
			var dn, up []topo.LinkID
			for ; n > 0 && len(toggles) > 0; n-- {
				b := toggles[0]
				toggles = toggles[1:]
				l := topo.LinkID(int(b&0x7f) % numLinks)
				switch {
				case contains(dn, l) || contains(up, l):
				case down[l]:
					up = append(up, l)
					down[l] = false
				case b&0x80 != 0:
					dn, up = append(dn, l), append(up, l)
				default:
					dn = append(dn, l)
					down[l] = true
				}
			}
			if _, err := inc.Apply(dn, up); err != nil {
				t.Fatal(err)
			}
			var cur []topo.LinkID
			for dl, d := range down {
				if d {
					cur = append(cur, dl)
				}
			}
			assertActiveCounts(t, inc, cur)
			want := DecomposeMasked(csr, numLinks, cur)
			got := inc.Components()
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !equalComps(got, want) {
				t.Fatalf("after down=%v up=%v: incremental %d components diverge from full recompute %d", dn, up, len(got), len(want))
			}
		}
	})
}
