package pmc

import (
	"time"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// Repaired is one masked component's answer: its selected paths, ascending,
// and whether they meet α and β on it.
type Repaired struct {
	Selected              []int
	CoverageMet, IdentMet bool
}

// Repair answers masked components from their parents' selections (see
// repair): comps[i] must lie inside one component of the pristine
// decomposition csr.Pristine(numLinks), parents[i] must be that pristine
// component's selection under opt, ascending, and no two of comps may
// share a link. It repairs them on opt.Workers goroutines and solves no
// class. Stats counts the components in Components, Repaired and Selected,
// and their completion passes in Candidates, ScoreEvals and Reseeds.
func Repair(csr *route.CSR, comps []route.Component, parents [][]int, numLinks int, opt Options) ([]Repaired, Stats, error) {
	start := time.Now()
	if err := checkTargets(opt); err != nil {
		return nil, Stats{}, err
	}
	pristine := csr.Pristine(numLinks)
	localOf := make([]int32, numLinks)
	setLocal(localOf, comps)
	crs := make([]*componentResult, len(comps))
	err := parallel(len(comps), workersOf(opt), func(i int) error {
		cr, err := repair(csr, pristine, &comps[i], parents[i], localOf, opt)
		crs[i] = cr
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]Repaired, len(comps))
	st := Stats{Components: len(comps), Repaired: len(comps), CoverageMet: true, IdentMet: opt.Beta >= 1}
	for i, cr := range crs {
		out[i] = Repaired{Selected: cr.selected, CoverageMet: cr.coverageMet, IdentMet: cr.identMet}
		st.Candidates += cr.candidates
		st.ScoreEvals += cr.evals
		st.Reseeds += cr.reseeds
		st.Selected += len(cr.selected)
		st.CoverageMet = st.CoverageMet && cr.coverageMet
		st.IdentMet = st.IdentMet && cr.identMet
	}
	st.Elapsed = time.Since(start)
	return out, st, nil
}

// repair answers a masked component M — one a down-link mask cut out of a
// pristine component P — from P's selection: the selected paths M still
// has ("kept"), completed by the completion pass. The selection is a
// function of (P's class selection, M, options), never of history, so an
// incremental cycle and a from-scratch boot with the same links down agree,
// and a link coming back up restores P's selection exactly.
//
// The kept rows' links are taken without an arena (keptState). Kept rows
// alone often meet α and β (the paper keeps α-coverage so the matrix
// survives failures between recomputations); then no arena over M is
// built. Otherwise one arena is built, and the completion pass runs over
// the kept rows plus the rows through a deficient link: a link still under
// α, or a constituent of an element that still shares its refinement
// group. That is decision for decision the pass over all of M's rows after
// the same kept rows:
//   - A row through no deficient link has no marginal gain, and never
//     regains one: weights only rise, and a row that splits no group
//     splits none of that group's refinements. The full pass parks it and
//     never picks it.
//   - The lazy greedy's queue breaks ties by candidate position, and the
//     restricted arena keeps M's row order, so positions order as M's
//     rows do; the one place the parked rows show — whether the pass's
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
	cs, err := keptState(csr, comp, kept, localOf, opt)
	if err != nil {
		return nil, err
	}
	cr := &componentResult{}
	if cs.done() {
		cr.selected = make([]int, 0, len(kept))
		for _, r := range kept {
			cr.selected = append(cr.selected, int(comp.Paths.At(int(r))))
		}
	} else {
		sub, subKept, tail := offered(pristine, comp, kept, cs.deficient())
		paths := make([]int32, len(sub))
		for i, r := range sub {
			paths[i] = comp.Paths.At(int(r))
		}
		ar := newArena(csr, &route.Component{Links: comp.Links, Paths: route.PathList(paths)}, localOf)
		if err := ar.loadAll(); err != nil {
			return nil, err
		}
		cs.attach(ar)
		for _, p := range subKept {
			cs.selected.set(p)
		}
		cs.parkedTail = tail
		cr.candidates = len(sub)
		cr.reseeds = cs.pass(nil)
		cr.evals = cs.evals
		cr.selected = make([]int, 0, cs.nSelected)
		for p, pid := range paths {
			if cs.selected.get(int32(p)) {
				cr.selected = append(cr.selected, int(pid))
			}
		}
	}
	cr.coverageMet = cs.uncovered == 0
	cr.identMet = opt.Beta == 0 || cs.part.Done()
	return cr, nil
}

// keptState starts the greedy with the kept rows of comp (ascending)
// selected. It takes their links without an arena: it holds their link
// weights and refinement partition, and no candidate until a pass's arena
// is attached.
func keptState(csr *route.CSR, comp *route.Component, kept []int32, localOf []int32, opt Options) (*componentState, error) {
	cs := newComponentState(nil, len(comp.Links), opt)
	var buf []topo.LinkID
	var row []int32
	for _, r := range kept {
		pid := comp.Paths.At(int(r))
		buf = csr.AppendRow(int(pid), buf[:0])
		var err error
		if row, err = appendLocal(row[:0], comp, localOf, pid, buf); err != nil {
			return nil, err
		}
		cs.take(row)
	}
	cs.nSelected = len(kept)
	return cs, nil
}

// deficient marks the local links a completion pass can still make
// progress on: a link under α, or a constituent of an element that still
// shares its refinement group.
func (cs *componentState) deficient() []bool {
	d := make([]bool, len(cs.w))
	for li, w := range cs.w {
		d[li] = int(w) < cs.opt.Alpha
	}
	for _, li := range cs.part.AppendUnrefined(nil) {
		d[li] = true
	}
	return d
}

// offered picks the rows of M (comp) a repair's completion pass is offered:
// the kept rows and the rows through a deficient link. It walks M's paths
// against the rows through those links, as P lists them, ascending and
// once each, so it marks nothing over the matrix. It returns the offered
// rows, ascending, the kept ones' positions among them, and the largest
// path id of M it leaves out, -1 when none.
func offered(pristine *route.Pristine, comp *route.Component, kept []int32, deficient []bool) (sub, subKept []int32, tail int32) {
	// Each list ascends, so they merge into the union one at a time. They
	// are read twice, first to size the two merge buffers: a list costs
	// far less to read again than the buffers' regrowth.
	var rows []int32
	n := 0
	for li, d := range deficient {
		if d {
			rows = pristine.AppendRowsThrough(comp.Links[li], rows[:0])
			n += len(rows)
		}
	}
	through, spare := make([]int32, 0, n), make([]int32, 0, n)
	for li, d := range deficient {
		if d {
			rows = pristine.AppendRowsThrough(comp.Links[li], rows[:0])
			through, spare = mergeUnion(spare[:0], through, rows), through
		}
	}
	sub = make([]int32, 0, len(kept)+len(through))
	subKept = make([]int32, 0, len(kept))
	tail = -1
	k, t := 0, 0
	w := comp.Paths.Walk()
	for r := range comp.Paths.Len() {
		pid := w.Next()
		for t < len(through) && through[t] < pid {
			t++
		}
		switch {
		case k < len(kept) && kept[k] == int32(r):
			k++
			subKept = append(subKept, int32(len(sub)))
		case t < len(through) && through[t] == pid:
		default:
			tail = pid
			continue
		}
		sub = append(sub, int32(r))
	}
	return sub, subKept, tail
}

// mergeUnion appends to dst the values of a and b, both ascending, in
// ascending order and once each.
func mergeUnion(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
}

// ascending returns the rows 0..n-1.
func ascending(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
