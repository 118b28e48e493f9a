package expt

import (
	"fmt"
	"io"
	"time"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// Table2Row is one topology's PMC runtime at each optimization level
// (paper Table 2, α=2, β=1).
type Table2Row struct {
	Name      string
	Nodes     int
	Links     int
	Paths     int
	Strawman  time.Duration
	Decompose time.Duration
	Lazy      time.Duration
	Symmetry  time.Duration
	// SkippedStrawman and SkippedDecompose flag over-budget cells (the
	// paper's ">24h" entries).
	SkippedStrawman  bool
	SkippedDecompose bool
}

// table2Case couples a topology with its candidate paths.
type table2Case struct {
	name  string
	topo  *topo.Topology
	paths route.PathSet
}

// table2Cases returns the benchmark instances: CI-sized by default, plus
// paper-adjacent sizes with Big (the paper's largest — Fattree(72),
// VL2(140,120,100), BCube(8,4) — are out of reach without its 10-CPU rack
// server, and the shape is visible well before that).
func table2Cases(big bool) []table2Case {
	var cases []table2Case
	add := func(name string, t *topo.Topology, ps route.PathSet) {
		cases = append(cases, table2Case{name, t, ps})
	}
	f8 := topo.MustFattree(8)
	add(f8.Name, f8.Topology, route.NewFattreePaths(f8))
	f12 := topo.MustFattree(12)
	add(f12.Name, f12.Topology, route.NewFattreePaths(f12))
	v := topo.MustVL2(20, 12, 20)
	add(v.Name, v.Topology, route.NewVL2Paths(v))
	b := topo.MustBCube(4, 2)
	add(b.Name, b.Topology, route.NewBCubePaths(b))
	if big {
		f16 := topo.MustFattree(16)
		add(f16.Name, f16.Topology, route.NewFattreePaths(f16))
		f24 := topo.MustFattree(24)
		add(f24.Name, f24.Topology, route.NewFattreePaths(f24))
		v2 := topo.MustVL2(40, 24, 40)
		add(v2.Name, v2.Topology, route.NewVL2Paths(v2))
		b2 := topo.MustBCube(8, 2)
		add(b2.Name, b2.Topology, route.NewBCubePaths(b2))
	}
	return cases
}

// strawmanPathCap bounds the instances the O(m²)-ish strawman attempts —
// the stand-in for the paper's ">24h" cells.
const strawmanPathCap = 250_000

// decompOnlyCap bounds decomposition-without-lazy runs; the paper's own
// Table 2 shows this level taking 23+ minutes at Fattree(24) scale.
const decompOnlyCap = 2_000_000

// Table2 measures PMC runtime per optimization level. Levels are cumulative
// exactly as in the paper: strawman, +decomposition, +lazy update,
// +symmetry reduction.
func Table2(w io.Writer, p Params) ([]Table2Row, error) {
	var rows []Table2Row
	for _, c := range table2Cases(p.Big) {
		st := c.topo.Stats()
		row := Table2Row{Name: c.name, Nodes: st.Nodes, Links: st.Links, Paths: c.paths.Len()}
		runOne := func(opt pmc.Options) (time.Duration, error) {
			res, err := pmc.Construct(c.paths, c.topo.NumLinks(), opt)
			if err != nil {
				return 0, fmt.Errorf("table2 %s: %w", c.name, err)
			}
			return res.Stats.Elapsed, nil
		}
		var err error
		if c.paths.Len() <= strawmanPathCap {
			if row.Strawman, err = runOne(pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoDecompose | pmc.NoLazy | pmc.NoSymmetry}); err != nil {
				return nil, err
			}
		} else {
			row.SkippedStrawman = true
		}
		if c.paths.Len() <= decompOnlyCap {
			if row.Decompose, err = runOne(pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoLazy | pmc.NoSymmetry}); err != nil {
				return nil, err
			}
		} else {
			row.SkippedDecompose = true
		}
		if row.Lazy, err = runOne(pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}); err != nil {
			return nil, err
		}
		if row.Symmetry, err = runOne(pmc.Options{Alpha: 2, Beta: 1}); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(w, "Table 2: PMC running time, alpha=2 beta=1 (paper Table 2)")
	t := newTable(w)
	t.row("DCN", "nodes", "links", "orig paths", "strawman", "+decompose", "+lazy", "+symmetry")
	for _, r := range rows {
		straw := fmtDur(r.Strawman)
		if r.SkippedStrawman {
			straw = "skipped"
		}
		decomp := fmtDur(r.Decompose)
		if r.SkippedDecompose {
			decomp = "skipped"
		}
		t.row(r.Name, r.Nodes, r.Links, r.Paths, straw,
			decomp, fmtDur(r.Lazy), fmtDur(r.Symmetry))
	}
	t.flush()
	return rows, nil
}
