// Package pmc implements deTector's Probe Matrix Construction algorithm
// (paper §4, Alg. 1): a greedy path selector that builds a probe matrix with
// α-coverage and β-identifiability from a topology's candidate path set,
// approximately minimizing the number of probe paths.
//
// The three observations of §4.3 are one algorithm, and the zero Options
// runs all of it. Per independent component of the routing matrix
// (Observation 1, solved in parallel), construction is two passes of one
// CELF-style lazy greedy (Observation 2):
//
//   - The orbit pass scores only orbit representatives under the family's
//     automorphism shift generator and batch-selects, with each pick, the
//     orbit images present in the component that still have positive
//     marginal gain (Observation 3). PathSets without a shift generator
//     have no representatives and skip it.
//   - The completion pass runs the same greedy over every row, and only if
//     the orbit pass left α or β unmet. On a pristine Fattree component the
//     automorphism maps the component onto itself, the orbit pass meets the
//     targets, and completion is a no-op.
//
// A component a down-link mask has cut out of a pristine one is not solved:
// it is repaired (repair.go). Its parent's selection, minus the paths the
// mask removed, usually still meets α and β — the paper keeps α-coverage so
// the matrix survives failures between recomputations — and where it does
// not, the completion pass runs over only the rows that can still make
// progress. The selection is a function of (component content, options)
// for a pristine component and of (parent's selection, component, options)
// for a masked one, never of what the engine solved before.
//
// The paper argues scores are monotone; package refine documents a
// counterexample, so the lazy greedy re-validates every popped candidate
// and parks zero-gain candidates for later reseeding — the resulting matrix
// always passes the Verify checks even where monotonicity fails.
//
// Table 2's strawman → decomposition → lazy update → symmetry reduction
// progression is measured by leaving observations out (Options.Ablate).
//
// # Scoring engine
//
// All variants run on a flattened CSR scoring engine. Construct takes the
// candidate matrix (route.MaterializeCSR) and its pristine decomposition
// (CSR.Pristine: stated by the family when it can, found over the rows
// otherwise), and each solved component then loads the rows its greedy
// reads into an arena of component-local link indices plus an inverted
// link→paths index over the running pass's candidates (see compArena in
// csr.go): the orbit pass loads the representatives and each orbit image
// it logs, the completion pass, when it runs, every row. Rows are read
// through CSR.AppendRow, which generates a family's rows (route.Generator:
// a Fattree) without storing them, and so does a class follower's exact
// check for its own rows; the leader's rows it compares them with are
// copied from the leader's arena into the class entry. A Fattree's matrix
// stores no row, its pristine components name their paths as spans
// (route.Paths) that the arena does not list, and a cold construction's
// leader reads one row in ~15 on a Fattree(16). A pass's arrays are
// sized by what it reads: the arena by the rows loaded, the score caches,
// the inverted index and the lazy greedy's bucket queue by the pass's
// candidates, indexed by candidate position; only the selected-row bitset
// has a bit per row of the component. The greedy inner loops walk
// contiguous int32 slices: no AppendLinks calls, no global→local lookups,
// no map accesses.
//
// On top of the inverted index, scoring is incremental. The invariant is:
// a candidate's score (Eq. 1) can only change when a selected path shares a
// physical link with it (the Σw term and the α-coverage marginal) or shares
// a refinement group with it (the identifiability gain term — a group's
// splittability only changes for paths intersecting a group that the
// selection properly split; refine.SplitAffected reports those links
// exactly at every supported β, decoding virtual pair/triple members back
// to their constituent physical links). After each selection step the
// engine dirties only the rows reachable from the affected links through
// the inverted index, or every candidate once the candidates through the
// step's links add up to the candidates themselves; cached scores of clean
// rows are reused verbatim. A step keeps that sum running as it notes links
// and stops refine's affected-link walk the moment the sum decides the
// fill, which early in a β ≥ 2 construction is almost at once: the links
// the walk would still report could not change the dirty set. The
// selection sequence is identical to a full-rescan engine for fixed
// options: clean candidates return exactly the score a rescan would
// (hash-pinned for β ∈ {1,2} in incremental_test.go, differentially proven
// in refine's oracle tests, and step by step in step_test.go).
package pmc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/refine"
	"github.com/detector-net/detector/internal/route"
)

// Options configures Construct.
type Options struct {
	// Alpha is the required link coverage (>= 1 unless Beta >= 1 carries
	// the run). Beta is the required identifiability level (0..3).
	Alpha, Beta int
	// Ablate leaves observations of §4.3 out of the run, for Table 2. The
	// zero value is the paper's full algorithm.
	Ablate Ablation
	// Workers bounds component-level parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxElements caps the per-component refinement universe
	// (links + pairs [+ triples]); 0 means DefaultMaxElements. Construct
	// fails rather than thrash when a Beta >= 2 run would exceed it.
	MaxElements int
	// NoEvenness drops the Σw[link] term from the path score (Eq. 1),
	// isolating the evenness mechanism for ablation: without it the
	// greedy piles probe paths onto already-covered links (§4.2 reports a
	// max-min coverage gap of 188 on a 64-ary Fattree without evenness).
	NoEvenness bool
}

// Ablation is a set of §4.3 observations to run without.
type Ablation uint8

const (
	// NoDecompose solves the whole matrix as one component (without
	// Observation 1). Only Construct reads it: ConstructComponents is
	// handed its partition.
	NoDecompose Ablation = 1 << iota
	// NoLazy rescans the candidates on every pick instead of deferring
	// score updates on a priority queue (without Observation 2).
	NoLazy
	// NoSymmetry skips the orbit pass, so every row is scored (without
	// Observation 3).
	NoSymmetry
)

// DefaultMaxElements bounds refinement memory to roughly 1 GiB: each
// element costs 12 bytes of partition state (group id + intrusive
// membership links), and at beta >= 2 a pair adds 4 bytes of decode table
// and 4 of shared-pair lists (a triple adds 6 of decode table), so 48 M
// pair elements take 0.94 GiB. The per-group counters, 20 bytes per group
// id, come on top and grow as refinement splits groups.
const DefaultMaxElements = 48 << 20

// Stats reports how the construction went.
//
// Components that share a class with a component solved before them in
// the same call reuse its rows: they count in Components and Selected but
// not in Classes, Candidates, ScoreEvals or Reseeds. A repaired component
// counts in Repaired, and its completion pass, if it ran one, in
// Candidates, ScoreEvals and Reseeds; a class solved only to give it its
// parent's selection counts in Classes.
type Stats struct {
	Components  int
	Classes     int   // greedy solves run: one per component class not reused
	Repaired    int   // masked components answered by repairing their parent's selection
	Candidates  int   // rows offered to the greedy: orbit representatives, plus every row where completion ran
	ScoreEvals  int64 // total score computations
	Reseeds     int   // lazy-mode park-list rescans
	Selected    int
	Elapsed     time.Duration
	CoverageMet bool // every component link reached Alpha coverage
	IdentMet    bool // every component partition fully refined (Beta >= 1)
}

// AddWork adds o's work — Classes, Repaired, Candidates, ScoreEvals and
// Reseeds — to s.
func (s *Stats) AddWork(o Stats) {
	s.Classes += o.Classes
	s.Repaired += o.Repaired
	s.Candidates += o.Candidates
	s.ScoreEvals += o.ScoreEvals
	s.Reseeds += o.Reseeds
}

// Result is a constructed probe matrix: indices into the candidate PathSet.
type Result struct {
	Selected []int
	Stats    Stats
}

// Construct runs PMC over the candidate paths. numLinks is the topology's
// link-ID space size. The returned selection is deterministic for fixed
// options.
func Construct(ps route.PathSet, numLinks int, opt Options) (*Result, error) {
	start := time.Now()
	csr := route.MaterializeCSR(ps)
	if opt.Ablate&NoDecompose != 0 {
		comps := []route.Component{route.SingleComponentCSR(csr, numLinks)}
		return constructComponents(ps, csr, comps, numLinks, opt, nil, start)
	}
	// Nothing is down: the components are the pristine decomposition.
	pristine := csr.Pristine(numLinks)
	return constructComponents(ps, csr, pristine.Comps, numLinks, opt, pristine, start)
}

// ConstructComponents runs the PMC greedy over an explicit subset of
// components of an already-materialized candidate matrix. It is the
// component-slice entry point the sharded controller plane builds on: a
// coordinator materializes and decomposes once (route.MaterializeCSR +
// CSR.Pristine), then each shard solves only the components assigned
// to it. Because components are independent subproblems and Result.Selected
// is sorted, concatenating the selections of any partition of the component
// set and re-sorting reproduces Construct's output bit for bit.
//
// Components of one class (equal component-local content, see classEntry)
// are solved once per call and the leader's rows reused for the rest,
// bit-identical, because a selection is a function of that content and
// the options. Nothing is remembered across calls.
//
// A component a down-link mask cut out of one pristine component P (every
// link inside P, fewer paths) is repaired instead (Repair) from P's
// selection, which a class solve in this call supplies. The pristine
// decomposition is csr.Pristine(numLinks).
func ConstructComponents(ps route.PathSet, csr *route.CSR, comps []route.Component, numLinks int, opt Options) (*Result, error) {
	start := time.Now()
	return constructComponents(ps, csr, comps, numLinks, opt, csr.Pristine(numLinks), start)
}

// checkTargets validates the (alpha, beta) targets.
func checkTargets(opt Options) error {
	if opt.Alpha < 0 || opt.Beta < 0 || opt.Beta > refine.MaxBeta {
		return fmt.Errorf("pmc: invalid (alpha,beta) = (%d,%d)", opt.Alpha, opt.Beta)
	}
	if opt.Alpha == 0 && opt.Beta == 0 {
		return fmt.Errorf("pmc: alpha and beta cannot both be zero")
	}
	return nil
}

// prepareComponents validates options against the component set and
// resolves the shift generator the orbit pass uses, nil when there is none.
func prepareComponents(ps route.PathSet, comps []route.Component, opt Options) (route.Symmetric, error) {
	if err := checkTargets(opt); err != nil {
		return nil, err
	}
	maxElems := opt.MaxElements
	if maxElems == 0 {
		maxElems = DefaultMaxElements
	}

	for _, c := range comps {
		if n := elementCount(len(c.Links), opt.Beta); n > maxElems {
			return nil, fmt.Errorf("pmc: component with %d links needs %d refinement elements at beta=%d (max %d); decompose the matrix or lower beta",
				len(c.Links), n, opt.Beta, maxElems)
		}
		// refine's int16 decode tables cap beta >= 2 components at 2^15-1
		// links; reject here (even under a raised MaxElements) so the
		// limit surfaces as an error, not a worker panic.
		if opt.Beta >= 2 && len(c.Links) > 32767 {
			return nil, fmt.Errorf("pmc: component with %d links exceeds the %d-link limit of beta=%d refinement; decompose the matrix or lower beta",
				len(c.Links), 32767, opt.Beta)
		}
	}
	var sym route.Symmetric
	if opt.Ablate&NoSymmetry == 0 {
		sym, _ = ps.(route.Symmetric)
	}
	return sym, nil
}

func constructComponents(ps route.PathSet, csr *route.CSR, comps []route.Component, numLinks int, opt Options, pristine *route.Pristine, start time.Time) (*Result, error) {
	// A component the down-link mask cut out of one pristine component is
	// repaired from that parent's class selection. Every other component,
	// and each such parent once, is answered by class.
	solve, slot, masked := comps, []int(nil), []bool(nil)
	if pristine != nil {
		solve, slot, masked = splitMasked(comps, pristine)
	}
	sym, err := prepareComponents(ps, solve, opt)
	if err != nil {
		return nil, err
	}
	localOf := make([]int32, numLinks)
	solved, err := solveClasses(sym, csr, solve, localOf, opt, pristine, workersOf(opt))
	if err != nil {
		return nil, err
	}

	res := &Result{Stats: Stats{
		Components:  len(comps),
		CoverageMet: true,
		IdentMet:    opt.Beta >= 1,
	}}
	for _, cr := range solved {
		res.Stats.Candidates += cr.candidates
		res.Stats.ScoreEvals += cr.evals
		res.Stats.Reseeds += cr.reseeds
		if cr.solved {
			res.Stats.Classes++
		}
	}
	results := solved
	if masked != nil {
		var cut []route.Component
		var parents [][]int
		for ci := range comps {
			if masked[ci] {
				cut = append(cut, comps[ci])
				parents = append(parents, solved[slot[ci]].selected)
			}
		}
		repaired, st, err := Repair(csr, cut, parents, numLinks, opt)
		if err != nil {
			return nil, err
		}
		res.Stats.AddWork(st)
		results = make([]*componentResult, len(comps))
		for ci := range comps {
			if !masked[ci] {
				results[ci] = solved[slot[ci]]
				continue
			}
			r := repaired[0]
			repaired = repaired[1:]
			results[ci] = &componentResult{selected: r.Selected, coverageMet: r.CoverageMet, identMet: r.IdentMet}
		}
	}
	for _, cr := range results {
		res.Selected = append(res.Selected, cr.selected...)
		res.Stats.CoverageMet = res.Stats.CoverageMet && cr.coverageMet
		res.Stats.IdentMet = res.Stats.IdentMet && cr.identMet
	}
	sort.Ints(res.Selected)
	res.Stats.Selected = len(res.Selected)
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// workersOf is the component-level parallelism opt asks for.
func workersOf(opt Options) int {
	if opt.Workers > 0 {
		return opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// splitMasked picks out the components a down-link mask cut out of one
// pristine component: all links inside it, fewer paths. solve holds the
// other components in order, then each masked component's parent once
// (unless the parent itself is in comps); slot[ci] is comps[ci]'s index in
// solve, or its parent's when masked[ci]. With nothing masked, solve is
// comps and masked is nil.
func splitMasked(comps []route.Component, pristine *route.Pristine) (solve []route.Component, slot []int, masked []bool) {
	parents := make([]int, len(comps))
	masked = make([]bool, len(comps))
	cut := false
	for ci := range comps {
		p := pristine.Parent(&comps[ci])
		parents[ci] = p
		masked[ci] = p >= 0 && comps[ci].Paths.Len() < pristine.Comps[p].Paths.Len()
		cut = cut || masked[ci]
	}
	if !cut {
		return comps, nil, nil
	}
	slot = make([]int, len(comps))
	slotOf := make(map[int]int) // pristine component -> index in solve
	for ci := range comps {
		if masked[ci] {
			continue
		}
		if p := parents[ci]; p >= 0 {
			slotOf[p] = len(solve) // the parent itself is asked for
		}
		slot[ci] = len(solve)
		solve = append(solve, comps[ci])
	}
	for ci := range comps {
		if !masked[ci] {
			continue
		}
		p := parents[ci]
		s, ok := slotOf[p]
		if !ok {
			s = len(solve)
			slotOf[p] = s
			solve = append(solve, pristine.Comps[p])
		}
		slot[ci] = s
	}
	return solve, slot, masked
}

// setLocal points localOf at the local index of every link of comps and
// every other link at -1.
func setLocal(localOf []int32, comps []route.Component) {
	for i := range localOf {
		localOf[i] = -1
	}
	for ci := range comps {
		for li, l := range comps[ci].Links {
			localOf[l] = int32(li)
		}
	}
}

// solveClasses answers every component by class: from the head of its
// shape group in this call, or by solving it. comps must not share links;
// localOf (numLinks long) is left translating their links. pristine, when
// not nil, is the matrix's pristine decomposition: a component that is one
// of its components is checked on the rows its class leader read, any
// other on every row (classEntry.everyRow).
//
// Every member of a class has its link and path counts, so components are
// grouped by that shape. A group's head is solved; every other member
// takes one exact check against the head's entry (classEntry.matches) and
// reuses its rows. Members that fail it form the next round's groups, so
// several classes of one shape still share solves. A foreign head's solve
// checks every row, so a row of it that leaves it is reported even where
// its greedy would not read it.
func solveClasses(sym route.Symmetric, csr *route.CSR, comps []route.Component, localOf []int32, opt Options, pristine *route.Pristine, workers int) ([]*componentResult, error) {
	// Every link belongs to at most one component, so one shared
	// global→local translation array serves all workers read-only.
	setLocal(localOf, comps)
	results := make([]*componentResult, len(comps))
	pending := ascending(len(comps))
	for len(pending) > 0 {
		type shape struct{ links, paths int }
		groupOf := make(map[shape]int)
		var groups [][]int32 // head first, then members, in pending order
		for _, ci := range pending {
			s := shape{len(comps[ci].Links), comps[ci].Paths.Len()}
			g, ok := groupOf[s]
			if !ok {
				g = len(groups)
				groupOf[s] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], ci)
		}
		entries := make([]*classEntry, len(groups))
		err := parallel(len(groups), workers, func(g int) error {
			comp := &comps[groups[g][0]]
			cr, e, err := solveComponent(sym, newArena(csr, comp, localOf), opt, foreign(comp, pristine))
			results[groups[g][0]], entries[g] = cr, e
			return err
		})
		if err != nil {
			return nil, err
		}
		var members, headOf []int32
		for g, grp := range groups {
			for _, ci := range grp[1:] {
				members = append(members, ci)
				headOf = append(headOf, int32(g))
			}
		}
		parallel(len(members), workers, func(i int) error {
			comp, e := &comps[members[i]], entries[headOf[i]]
			if e.matches(csr, sym, comp, localOf, pristine) {
				results[members[i]] = e.reuse(comp)
			}
			return nil
		})
		pending = pending[:0]
		for _, ci := range members {
			if results[ci] == nil {
				pending = append(pending, ci)
			}
		}
	}
	return results, nil
}

// parallel runs f(0..n-1) on at most workers goroutines and returns the
// first error by index.
func parallel(n, workers int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func elementCount(l, beta int) int {
	n := l
	if beta >= 2 {
		n += l * (l - 1) / 2
	}
	if beta >= 3 {
		n += l * (l - 1) * (l - 2) / 6
	}
	return n
}

type componentResult struct {
	selected    []int
	solved      bool // false when reused from a class leader
	candidates  int
	evals       int64
	reseeds     int
	coverageMet bool
	identMet    bool
}

// componentState holds the greedy's mutable view of one subproblem: the
// link weights and refinement partition of what it selected, the rows it
// selected, and, for the running pass, the arena with per-candidate score
// caches and incremental dirty tracking. score, marginal and dirty are
// indexed by candidate position, which is the candidate's arena slot, and
// sized by the pass's candidates; selected alone has a bit per row of the
// component.
type componentState struct {
	opt Options
	ar  *compArena

	w         []int32
	part      *refine.Partition
	uncovered int

	selected  bitset // by row
	nSelected int

	score    []int32 // cached Eq. 1 score per candidate
	marginal bitset  // cached positive-marginal flag per candidate
	dirty    bitset  // candidates whose cache is stale

	// Per-step scratch for dirty propagation: the unique local links whose
	// weight or group context changed during the current selection step,
	// and stepMass, the candidates through them counted once per link. Once
	// stepMass reaches the pass's candidates the step dirties them all, and
	// the step notes no more links (see endStep).
	stepLinks []int32
	linkMark  []int32
	stepEpoch int32
	stepMass  int

	// orbitLog records every orbit query the orbit pass made: row, image
	// count, then the images present in the component as rows, in
	// AppendOrbit order. With the arena and the representative rows, it is
	// everything the greedy reads from the PathSet (see classEntry.matches).
	orbitLog []int32

	// parkedTail is the largest path id among the component's rows that an
	// arena built over only some of them (see repair) leaves out, -1 when
	// it has them all. Every such row has no marginal gain, so a pass over
	// all rows would park it; it can only tell whether that pass's first
	// sweep ended on a push.
	parkedTail int32

	evals int64
}

// newComponentState starts the greedy on an arena over a component with
// numLinks local links, nothing selected. ar may be nil while the greedy
// only takes rows (see repair); it must be set before a pass.
func newComponentState(ar *compArena, numLinks int, opt Options) *componentState {
	cs := &componentState{
		opt:        opt,
		w:          make([]int32, numLinks),
		part:       refine.MustPartition(numLinks, opt.Beta),
		linkMark:   make([]int32, numLinks),
		parkedTail: -1,
	}
	if ar != nil {
		cs.attach(ar)
	}
	if opt.Alpha > 0 {
		cs.uncovered = numLinks
	}
	return cs
}

// attach gives the greedy the arena ar, with none of its rows selected.
func (cs *componentState) attach(ar *compArena) {
	cs.ar = ar
	cs.selected = newBitset(ar.numRows())
}

// cache stores a freshly computed (score, marginal) for candidate p.
func (cs *componentState) cache(p, s int32, m bool) {
	cs.score[p] = s
	if m {
		cs.marginal.set(p)
	} else {
		cs.marginal.clear(p)
	}
	cs.dirty.clear(p)
}

// rowWeight computes the Σw term of Eq. 1 for slot p and whether the row
// still covers an under-target link (NoEvenness zeroes the sum but not the
// coverage marginal).
func (cs *componentState) rowWeight(p int32) (sum int32, covers bool) {
	alpha := int32(cs.opt.Alpha)
	for _, li := range cs.ar.row(p) {
		wl := cs.w[li]
		sum += wl
		if wl < alpha {
			covers = true
		}
	}
	if cs.opt.NoEvenness {
		sum = 0
	}
	return sum, covers
}

// scoreRow computes the PMC score (Eq. 1) of the row at slot p and whether
// selecting it makes progress (positive marginal).
func (cs *componentState) scoreRow(p int32) (score int32, marginalGain bool) {
	cs.evals++
	sum, covers := cs.rowWeight(p)
	gain := int32(0)
	if cs.opt.Beta >= 1 {
		gain = int32(cs.part.CountSplittable(cs.ar.row(p)))
	}
	return sum - gain, covers || gain > 0
}

// beginStep starts a selection step (one greedy pick plus its orbit images):
// affected links accumulate until endStep propagates them to dirty rows.
func (cs *componentState) beginStep() {
	cs.stepEpoch++
	cs.stepLinks = cs.stepLinks[:0]
	cs.stepMass = 0
}

// noteLink adds li to the step's links, and the candidates through it to
// stepMass, unless the step noted li already. It reports whether the step
// still dirties fewer than every candidate, that is, whether noting more
// links can still change what endStep dirties.
func (cs *componentState) noteLink(li int32) bool {
	if cs.linkMark[li] != cs.stepEpoch {
		cs.linkMark[li] = cs.stepEpoch
		cs.stepLinks = append(cs.stepLinks, li)
		cs.stepMass += int(cs.ar.invOff[li+1] - cs.ar.invOff[li])
	}
	return cs.stepMass < cs.ar.ncand
}

// saturated reports whether the running step already dirties every
// candidate.
func (cs *componentState) saturated() bool {
	return cs.stepMass >= cs.ar.ncand
}

// sel commits the row at slot p: takes its links and records the
// selection.
func (cs *componentState) sel(p int32) {
	cs.take(cs.ar.row(p))
	cs.selected.set(cs.ar.rowOf[p])
	cs.nSelected++
}

// take bumps the link weights of a selected row's local links, refines the
// partition by them, and notes the links whose context changed: the row's
// own, then those refine reports, until the step is saturated. A take in a
// saturated step, and one with no arena (whose pass starts with every
// candidate dirty), only splits the partition: no endStep reads what it
// would note.
func (cs *componentState) take(row []int32) {
	for _, li := range row {
		cs.w[li]++
		if int(cs.w[li]) == cs.opt.Alpha {
			cs.uncovered--
		}
	}
	if cs.ar == nil || cs.saturated() {
		cs.part.Split(row)
		return
	}
	for _, li := range row {
		cs.noteLink(li)
	}
	cs.part.SplitAffected(row, cs.noteLink)
}

// endStep dirties every candidate whose cached score may have changed:
// candidates sharing an accumulated link, found through the inverted index.
// When a step saturates the index — the candidates through its links
// outnumber the candidates themselves, as happens while refinement groups
// are still large — a single bitset fill is cheaper than walking it. The
// test counts only the pass's candidates, so which other rows an arena has
// loaded never shows in Stats.ScoreEvals. Over-dirtying only costs
// recomputes that return the cached value; it never changes a selection.
//
// stepMass only grows, so the fill is decided the moment it reaches the
// candidates, and the links a step would note after that cannot change the
// bitset: take stops noting them there, and the fill is the one the full
// affected set gives.
func (cs *componentState) endStep() {
	if cs.saturated() {
		cs.dirty.fill()
		return
	}
	for _, li := range cs.stepLinks {
		for _, p := range cs.ar.posThrough(li) {
			cs.dirty.set(p)
		}
	}
}

// done reports whether the component satisfies both targets.
func (cs *componentState) done() bool {
	if cs.uncovered > 0 {
		return false
	}
	return cs.opt.Beta == 0 || cs.part.Done()
}

// selectWithOrbit commits the row at slot p and, in the orbit pass, every
// orbit image present in the component that still has positive marginal
// gain. An image is absent when the component is not closed under the
// automorphism (a caller's own partition; masked components are repaired,
// not solved). Each image present is loaded as it is logged. Orbit images
// are scored fresh (not from cache) because earlier selections in the same
// step change their scores before the step's dirty propagation runs.
func (cs *componentState) selectWithOrbit(p int32, sym route.Symmetric, orbitBuf []int) []int {
	cs.beginStep()
	cs.sel(p)
	if sym != nil {
		ar := cs.ar
		r := ar.rowOf[p]
		orbitBuf = sym.AppendOrbit(int(ar.pathIDs.At(int(r))), orbitBuf[:0])
		cs.orbitLog = append(cs.orbitLog, r, 0)
		head := len(cs.orbitLog)
		for _, img := range orbitBuf {
			ir := ar.pathIDs.Find(int32(img))
			if ir < 0 {
				continue
			}
			cs.orbitLog = append(cs.orbitLog, ir)
			ip := ar.load(ir)
			if cs.selected.get(ir) {
				continue
			}
			if _, marginalGain := cs.scoreRow(ip); marginalGain {
				cs.sel(ip)
			}
		}
		cs.orbitLog[head-1] = int32(len(cs.orbitLog) - head)
	}
	cs.endStep()
	return orbitBuf
}

// pass runs one greedy over the arena's candidates: it indexes them, starts
// their score caches all dirty (a cache of an earlier pass indexed other
// positions) and selects until the targets are met or no candidate makes
// progress.
func (cs *componentState) pass(sym route.Symmetric) (reseeds int) {
	n := cs.ar.ncand
	cs.ar.index()
	cs.score = make([]int32, n)
	cs.marginal, cs.dirty = newBitset(n), newBitset(n)
	cs.dirty.fill()
	if cs.opt.Ablate&NoLazy != 0 {
		strawmanGreedy(cs, sym)
		return 0
	}
	return lazyGreedy(cs, sym)
}

// solveComponent runs both passes on one component and returns its result
// together with the class entry the component's class in this call reuses.
// ar is a fresh arena over the component; it loads the rows the greedy
// reads as it reads them. checkAll first generates every row, storing
// none, so that a component whose rows may leave it (one not of the
// matrix's pristine decomposition) is refused whatever its greedy reads.
// Either way the greedy makes the same reads and picks.
func solveComponent(sym route.Symmetric, ar *compArena, opt Options, checkAll bool) (*componentResult, *classEntry, error) {
	comp := ar.comp
	if checkAll {
		if err := ar.checkAll(); err != nil {
			return nil, nil, err
		}
	}
	cs := newComponentState(ar, len(comp.Links), opt)
	cr := &componentResult{solved: true}

	var reps []int32
	if sym != nil {
		reps = sym.AppendRepresentatives(comp.Paths, nil)
		if err := ar.loadCands(reps); err != nil {
			return nil, nil, err
		}
		cr.candidates += len(reps)
		cr.reseeds += cs.pass(sym)
	}
	// Completion reads every row; with no shift generator nothing but
	// completion reads them.
	full := sym == nil || !cs.done()
	if !cs.done() {
		if err := ar.loadAll(); err != nil {
			return nil, nil, err
		}
		cr.candidates += comp.Paths.Len()
		cr.reseeds += cs.pass(nil)
	}
	if ar.err != nil { // an orbit image
		return nil, nil, ar.err
	}

	cr.evals = cs.evals
	cr.coverageMet = cs.uncovered == 0
	cr.identMet = opt.Beta == 0 || cs.part.Done()
	e := &classEntry{
		links:       comp.Links,
		paths:       comp.Paths,
		rows:        cs.selected.appendSet(make([]int32, 0, cs.nSelected)),
		reps:        reps,
		orbit:       cs.orbitLog,
		full:        full,
		coverageMet: cr.coverageMet,
		identMet:    cr.identMet,
	}
	if !full {
		e.keepReads(ar)
	}
	cr.selected = e.pathsOf(comp)
	return cr, e, nil
}

// strawmanGreedy rescans the remaining candidates each iteration — the
// baseline greedy policy of Table 2's "Strawman" column. Exact dirty
// tracking (every supported beta) means only stale rows are rescored; the
// scan over cached scores is otherwise branch-predictable slice walking.
//
// Note on what the column measures: the original paper's strawman re-derives
// every candidate's score from scratch each iteration. Here every variant
// (strawman included) runs on the shared incremental CSR engine, so Table 2
// now compares greedy *policies* — rescan-the-frontier vs CELF vs orbit
// reduction — on equal engine footing, with selections identical to the
// full-rescan implementation decision for decision (pinned in
// incremental_test.go). Absolute strawman times are therefore lower than a
// faithful reimplementation of the paper's unoptimized loop would be.
func strawmanGreedy(cs *componentState, sym route.Symmetric) {
	var orbitBuf []int
	rowOf := cs.ar.rowOf
	for !cs.done() {
		best := int32(-1)
		bestScore := int32(0)
		for p := range int32(cs.ar.ncand) {
			if cs.selected.get(rowOf[p]) {
				continue
			}
			var s int32
			var m bool
			if cs.dirty.get(p) {
				s, m = cs.scoreRow(p)
				cs.cache(p, s, m)
			} else {
				s, m = cs.score[p], cs.marginal.get(p)
			}
			if !m {
				continue
			}
			if best < 0 || s < bestScore {
				best, bestScore = p, s
			}
		}
		if best < 0 {
			return // no candidate makes progress; targets unreachable
		}
		orbitBuf = cs.selectWithOrbit(best, sym, orbitBuf)
	}
}

// lazyGreedy is the CELF-style variant: candidates are seeded at score -1
// (the exact initial score when every element shares one group; on a
// completion pass, where selections already stand, merely a key no row
// undercuts without a gain larger than its weight) and marked dirty, and a
// popped candidate is rescored only when dirty — a clean pop's cached
// score is exact and, being the queue's minimum, wins immediately. Dirty
// pops are pushed back when their fresh score falls behind the next one.
// Zero-marginal candidates are parked; if the queue drains before the
// targets are met, parked candidates are reseeded, rescoring only the dirty
// ones (this covers the non-monotone cases Observation 2 misses).
//
// The queue is a bucketQueue over candidate positions. It pops by
// (score, position), and positions ascend with rows, so it pops what a
// heap keyed on (score, row) would, and the picks do not depend on it.
func lazyGreedy(cs *componentState, sym route.Symmetric) (reseeds int) {
	ar := cs.ar
	q := newBucketQueue(ar.ncand)
	var parked []int32
	var orbitBuf []int

	// Initial drain. While any -1 seed remains, the seeded queue pops
	// candidates in ascending position order and every pop rescores (the
	// caches start dirty), so it is equivalent to this linear scan:
	// candidates scoring at or below the seed are selected on the spot, the
	// rest are pushed at their fresh scores.
	lastWasPush := false
	var lastS, lastP int32
	for p := range int32(ar.ncand) {
		if cs.done() {
			return reseeds
		}
		if cs.selected.get(ar.rowOf[p]) {
			continue
		}
		s, m := cs.scoreRow(p)
		cs.cache(p, s, m)
		switch {
		case !m:
			parked = append(parked, p)
			lastWasPush = false
		case s <= -1:
			orbitBuf = cs.selectWithOrbit(p, sym, orbitBuf)
			lastWasPush = false
		default:
			q.push(s, p)
			lastS, lastP, lastWasPush = s, p, true
		}
	}
	// The final seeded pop compares against the minimum of the already
	// re-keyed entries, not the seed: replay that one comparison exactly.
	// lastS is at most the others' minimum exactly when it is the queue's.
	// A row the arena leaves out after it would have been parked last,
	// with no such pop.
	if lastWasPush && ar.pathIDs.At(int(ar.rowOf[lastP])) > cs.parkedTail && q.minScore() == lastS {
		q.remove(lastS, lastP)
		orbitBuf = cs.selectWithOrbit(lastP, sym, orbitBuf)
	}
	for !cs.done() {
		if q.len() == 0 {
			// Reseed from the park list: gains can reappear after other
			// selections refine the partition differently. Parked
			// candidates whose cache is still clean are still
			// zero-marginal and are kept without rescoring; those that
			// regained a margin are pushed.
			keep := parked[:0]
			for _, p := range parked {
				if cs.selected.get(ar.rowOf[p]) {
					continue
				}
				if !cs.dirty.get(p) {
					keep = append(keep, p)
					continue
				}
				s, m := cs.scoreRow(p)
				cs.cache(p, s, m)
				if m {
					q.push(s, p)
				} else {
					keep = append(keep, p)
				}
			}
			parked = keep
			if q.len() == 0 {
				return reseeds // nothing can make progress
			}
			reseeds++
			continue
		}
		_, p := q.pop()
		if cs.selected.get(ar.rowOf[p]) {
			continue
		}
		if !cs.dirty.get(p) {
			// The cached score is exact and was the queue's minimum, so a
			// rescan could not find anything better: select or park
			// without recomputing.
			if cs.marginal.get(p) {
				orbitBuf = cs.selectWithOrbit(p, sym, orbitBuf)
			} else {
				parked = append(parked, p)
			}
			continue
		}
		s, m := cs.scoreRow(p)
		cs.cache(p, s, m)
		if !m {
			parked = append(parked, p)
			continue
		}
		if q.len() == 0 || s <= q.minScore() {
			orbitBuf = cs.selectWithOrbit(p, sym, orbitBuf)
			continue
		}
		q.push(s, p)
	}
	return reseeds
}
