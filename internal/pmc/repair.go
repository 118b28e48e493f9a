package pmc

import "github.com/detector-net/detector/internal/route"

// repair answers a masked component M — one a down-link mask cut out of a
// pristine component P — from P's selection: the selected paths M still
// has ("kept"), completed by the completion pass. The selection is a
// function of (P's class selection, M, options), never of history, so an
// incremental cycle and a from-scratch boot with the same links down agree,
// and a link coming back up restores P's selection exactly.
//
// Kept rows alone often meet α and β (the paper keeps α-coverage so the
// matrix survives failures between recomputations); then no arena over M
// is built. Otherwise the completion pass runs over the kept rows plus the
// rows through a deficient link: a link still under α, or a constituent of
// an element that still shares its refinement group. That is decision for
// decision the pass over all of M's rows after the same kept rows:
//   - A row through no deficient link has no marginal gain, and never
//     regains one: weights only rise, and a row that splits no group
//     splits none of that group's refinements. The full pass parks it and
//     never picks it.
//   - The heap breaks ties by row, and the restricted arena keeps M's row
//     order; the one place the parked rows show — whether the pass's
//     first sweep ends on a push — is replayed through parkedTail.
//   - Over-dirtying only rescores a row to its cached value.
//
// parentSel is P's selection, ascending path indices; pristine holds P;
// localOf must translate M's links. A path of M the pass reads that leaves
// M is an error.
func repair(csr *route.CSR, pristine *route.Pristine, comp *route.Component, parentSel []int, localOf []int32, opt Options) (*componentResult, error) {
	// Kept: the parent's selected paths that M still has, as M's rows.
	var kept []int32
	for _, pid := range parentSel {
		if r := comp.Paths.Find(int32(pid)); r >= 0 {
			kept = append(kept, r)
		}
	}
	cs, err := repairState(csr, comp, kept, ascending(len(kept)), localOf, opt)
	if err != nil {
		return nil, err
	}
	cr := &componentResult{}
	if !cs.done() {
		// The rows through a deficient link, as P lists them: those
		// that are M's join the kept ones.
		deficient := make([]bool, len(comp.Links))
		for li, w := range cs.w {
			deficient[li] = int(w) < opt.Alpha
		}
		for _, li := range cs.part.AppendUnrefined(nil) {
			deficient[li] = true
		}
		through := newBitset(csr.Len())
		var rows []int32
		for li, d := range deficient {
			if d {
				rows = pristine.AppendRowsThrough(comp.Links[li], rows[:0])
				for _, pid := range rows {
					through.set(pid)
				}
			}
		}
		var sub, subKept []int32 // rows the completion pass is offered; the kept ones among them, as its rows
		tail := int32(-1)        // the last row it is not offered
		k := 0
		w := comp.Paths.Walk()
		for r := range comp.Paths.Len() {
			pid := w.Next()
			switch {
			case k < len(kept) && kept[k] == int32(r):
				k++
				subKept = append(subKept, int32(len(sub)))
			case through.get(pid):
			default:
				tail = pid
				continue
			}
			sub = append(sub, int32(r))
		}
		if cs, err = repairState(csr, comp, sub, subKept, localOf, opt); err != nil {
			return nil, err
		}
		cs.parkedTail = tail
		cr.candidates = len(sub)
		cr.reseeds = cs.pass(nil, ascending(len(sub)))
		cr.evals = cs.evals
	}
	cr.coverageMet = cs.uncovered == 0
	cr.identMet = opt.Beta == 0 || cs.part.Done()
	cr.selected = make([]int, 0, cs.nSelected)
	w := cs.ar.pathIDs.Walk()
	for r := range cs.ar.numRows() {
		if pid := w.Next(); cs.selected.get(int32(r)) {
			cr.selected = append(cr.selected, int(pid))
		}
	}
	return cr, nil
}

// ascending returns the rows 0..n-1.
func ascending(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// repairState starts the greedy on an arena over the given rows of comp
// (ascending) and selects sel, rows of that arena, in order.
func repairState(csr *route.CSR, comp *route.Component, rows, sel []int32, localOf []int32, opt Options) (*componentState, error) {
	paths := make([]int32, len(rows))
	for i, r := range rows {
		paths[i] = comp.Paths.At(int(r))
	}
	ar := newArena(csr, &route.Component{Links: comp.Links, Paths: route.PathList(paths)}, localOf)
	if err := ar.loadAll(); err != nil {
		return nil, err
	}
	cs := newComponentState(ar, len(comp.Links), opt)
	cs.beginStep()
	for _, r := range sel {
		cs.sel(r)
	}
	return cs, nil
}
