package expt

import (
	"fmt"
	"io"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// Table3Row is one topology's selected-path counts at the paper's three
// (α, β) operating points (paper Table 3).
type Table3Row struct {
	Name     string
	Original int
	// Selected[i] is the path count for configs (1,0), (1,1), (3,2).
	Selected [3]int
}

// Table3Configs are the paper's columns.
var Table3Configs = [3][2]int{{1, 0}, {1, 1}, {3, 2}}

// Table3 counts PMC-selected paths per (α, β). Defaults run Fattree(16),
// VL2(20,12,20) and BCube(4,2); Big adds Fattree(32), VL2(72,48,40) and
// BCube(8,2) — half the paper's largest column, enough to check the
// selected-to-original ratio trend.
func Table3(w io.Writer, p Params) ([]Table3Row, error) {
	var cases []table2Case
	f := topo.MustFattree(16)
	cases = append(cases, table2Case{f.Name, f.Topology, route.NewFattreePaths(f)})
	v := topo.MustVL2(20, 12, 20)
	cases = append(cases, table2Case{v.Name, v.Topology, route.NewVL2Paths(v)})
	b := topo.MustBCube(4, 2)
	cases = append(cases, table2Case{b.Name, b.Topology, route.NewBCubePaths(b)})
	if p.Big {
		f32 := topo.MustFattree(32)
		cases = append(cases, table2Case{f32.Name, f32.Topology, route.NewFattreePaths(f32)})
		v2 := topo.MustVL2(72, 48, 40)
		cases = append(cases, table2Case{v2.Name, v2.Topology, route.NewVL2Paths(v2)})
		b2 := topo.MustBCube(8, 2)
		cases = append(cases, table2Case{b2.Name, b2.Topology, route.NewBCubePaths(b2)})
	}

	var rows []Table3Row
	for _, c := range cases {
		row := Table3Row{Name: c.name, Original: c.paths.Len()}
		for i, cfg := range Table3Configs {
			res, err := pmc.Construct(c.paths, c.topo.NumLinks(), pmc.Options{Alpha: cfg[0], Beta: cfg[1]})
			if err != nil {
				return nil, fmt.Errorf("table3 %s (%d,%d): %w", c.name, cfg[0], cfg[1], err)
			}
			row.Selected[i] = len(res.Selected)
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(w, "Table 3: selected paths per (alpha, beta) (paper Table 3)")
	t := newTable(w)
	t.row("DCN", "original", "(1,0)", "(1,1)", "(3,2)")
	for _, r := range rows {
		t.row(r.Name, r.Original, r.Selected[0], r.Selected[1], r.Selected[2])
	}
	t.flush()
	return rows, nil
}
