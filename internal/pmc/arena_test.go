package pmc

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestLeaderReadsOnlyWhatItScores: a class leader's solve over an arena
// that loads rows as its greedy reads them makes the picks, reseeds and
// orbit queries of refSolve, which keeps no arena, and its arena holds
// exactly the rows its greedy read: the representatives and the logged
// orbit images, or every row where the completion pass ran. No array of
// the solve is sized by the component's rows but the selected-row bitset:
// a Fattree(16) (3,1) leader solve allocates under leaderSolveBound.
func TestLeaderReadsOnlyWhatItScores(t *testing.T) {
	const leaderSolveBound = 1 << 20 // measured ≈ 0.81 MB
	type fabric struct {
		name     string
		ps       route.PathSet
		numLinks int
	}
	var fabrics []fabric
	for _, k := range []int{4, 8, 16} {
		f := topo.MustFattree(k)
		fabrics = append(fabrics, fabric{fmt.Sprintf("Fattree(%d)", k), route.NewFattreePaths(f), f.NumLinks()})
	}
	v, b := topo.MustVL2(8, 4, 2), topo.MustBCube(4, 1)
	fabrics = append(fabrics,
		fabric{"VL2(8,4,2)", route.NewVL2Paths(v), v.NumLinks()},
		fabric{"BCube(4,1)", route.NewBCubePaths(b), b.NumLinks()},
		// One representative per component and no orbit: the orbit pass
		// cannot cover the component, and completion loads every row.
		fabric{"shiftedReps", shiftedReps{}, 6},
	)
	completed := 0
	for _, fb := range fabrics {
		csr := route.MaterializeCSR(fb.ps)
		comps := csr.Pristine(fb.numLinks).Comps
		localOf := make([]int32, fb.numLinks)
		setLocal(localOf, comps)
		for _, ab := range [][2]int{{3, 1}, {1, 2}} {
			opt := Options{Alpha: ab[0], Beta: ab[1]}
			t.Run(fmt.Sprintf("%s/a%db%d", fb.name, ab[0], ab[1]), func(t *testing.T) {
				sym, err := prepareComponents(fb.ps, comps[:1], opt)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ar := newArena(csr, &comps[0], localOf)
				cr, es, err := solveComponent(sym, ar, opt, false)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				alloc := after.TotalAlloc - before.TotalAlloc
				checkAgainstReference(t, sym, csr, &comps[0], localOf, opt, cr, es)
				want := make([]bool, comps[0].Paths.Len())
				if es.full {
					completed++
					for r := range want {
						want[r] = true
					}
				} else {
					want = es.readRows()
				}
				held := 0
				for r, w := range want {
					if got := ar.slot(int32(r)) >= 0; got != w {
						t.Fatalf("row %d: loaded %v, read by the greedy %v", r, got, w)
					}
					if w {
						held++
					}
				}
				t.Logf("%d of %d rows loaded, completion ran: %v; the solve allocated %d B", held, len(want), es.full, alloc)
				if fb.name == "Fattree(16)" && opt.Alpha == 3 && alloc >= leaderSolveBound {
					t.Fatalf("the leader solve allocated %d B, want under %d B", alloc, leaderSolveBound)
				}
			})
		}
	}
	if completed == 0 {
		t.Fatal("no case ran the completion pass")
	}
}
