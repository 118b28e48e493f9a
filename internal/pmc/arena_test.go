package pmc

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestLeaderReadsOnlyWhatItScores: a class leader's solve over an arena
// that loads rows as its greedy reads them makes the picks, score
// evaluations, reseeds and orbit queries of one over an arena of every
// row, and holds exactly the rows its greedy read: the representatives and
// the logged orbit images, or every row where the completion pass ran.
func TestLeaderReadsOnlyWhatItScores(t *testing.T) {
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
				solve := func(loadAll bool) (*componentResult, *classEntry, *compArena) {
					ar := newArena(csr, &comps[0], localOf)
					cr, e, err := solveComponent(sym, ar, opt, loadAll)
					if err != nil {
						t.Fatal(err)
					}
					return cr, e, ar
				}
				sparse, es, ar := solve(false)
				dense, ed, _ := solve(true)
				if !reflect.DeepEqual(sparse.selected, dense.selected) || sparse.evals != dense.evals ||
					sparse.reseeds != dense.reseeds || sparse.candidates != dense.candidates {
					t.Fatalf("on demand: %d paths, %d evals, %d reseeds, %d candidates; every row up front: %d, %d, %d, %d",
						len(sparse.selected), sparse.evals, sparse.reseeds, sparse.candidates,
						len(dense.selected), dense.evals, dense.reseeds, dense.candidates)
				}
				if !reflect.DeepEqual(es.orbit, ed.orbit) || !reflect.DeepEqual(es.reps, ed.reps) || es.full != ed.full {
					t.Fatal("the two arenas' greedies made other orbit queries or passes")
				}
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
					if got := ar.loaded.get(int32(r)); got != w {
						t.Fatalf("row %d: loaded %v, read by the greedy %v", r, got, w)
					}
					if w {
						held++
					}
				}
				t.Logf("%d of %d rows loaded, completion ran: %v", held, len(want), es.full)
			})
		}
	}
	if completed == 0 {
		t.Fatal("no case ran the completion pass")
	}
}
