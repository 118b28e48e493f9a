package pll

// The Engine is PLL bound to one probe matrix, run over a window's
// exceptions instead of its observations. PLL's only inputs are the lossy
// observations and, per link, how many observed paths cross it; when every
// row reports, those counts are a function of the matrix alone. So a
// window is carried as what differs from the all-clean baseline — the rows
// that classify lossy and the rows that did not report — and a pass costs
// O(lossy + absent + links) however many paths the matrix has. The result
// is bit-identical to Localize over the same observations (localizeCore is
// the shared code path; engine_test.go holds the differential), which is
// why Localize stays as the test oracle and the engine is what the
// diagnosis plane runs, in process and on shard services alike.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/detector-net/detector/internal/route"
)

// Window is one measurement window over a matrix, as its exceptions
// against the all-clean baseline. Every row in neither list reported and
// classified clean.
type Window struct {
	// Absent lists the rows with no usable observation this window (no
	// report, or Sent <= 0), strictly ascending.
	Absent []int32
	// Lossy holds the observations that classified lossy under the
	// caller's Config (floor, MinLoss, significance test, unhealthy
	// filter), strictly ascending by Path; only Path, Sent and Lost are
	// read.
	Lossy []Observation
}

// ErrBadWindow marks a Window that breaks the contract above (rows out of
// range or out of order, a row both absent and lossy, impossible
// counters). Transport servers map it to 400: the request is malformed,
// the engine did not fail.
var ErrBadWindow = errors.New("pll: malformed window")

// Engine localizes windows over one probe matrix. It is immutable after
// NewEngine and safe for concurrent use.
type Engine struct {
	p *route.Probes
	// base[l] is the number of matrix rows crossing link l: the hit-ratio
	// denominators of a window in which every row reported.
	base []int32
}

// NewEngine binds an engine to p, which must not change afterwards.
func NewEngine(p *route.Probes) *Engine {
	e := &Engine{p: p, base: make([]int32, p.NumLinks)}
	for _, links := range p.PathLinks {
		for _, l := range links {
			e.base[l]++
		}
	}
	return e
}

// Matrix returns the probe matrix the engine is bound to.
func (e *Engine) Matrix() *route.Probes { return e.p }

// Sparsify reduces one window of observations to its exceptions, applying
// the same preprocessing as Localize: observations with unknown rows or
// Sent <= 0 are dropped (their rows count as absent), unhealthy endpoints
// exonerate a path without removing it from the per-link counts, and the
// rest classify by cfg's thresholds. Rows without links can explain
// nothing and are never lossy.
//
// The window contract is enforced here: at most one observation per row.
// The diagnoser's window state emits exactly that; a duplicate would be
// double-counted by Localize and is an error, not a silent merge.
func (e *Engine) Sparsify(obs []Observation, cfg Config) (Window, error) {
	n := e.p.NumPaths()
	seen := make([]bool, n)
	reported := 0
	var w Window
	for _, o := range obs {
		if o.Sent <= 0 || o.Path < 0 || o.Path >= n {
			continue
		}
		if seen[o.Path] {
			return Window{}, fmt.Errorf("pll: row %d observed twice in one window", o.Path)
		}
		seen[o.Path] = true
		reported++
		// Counters first: a clean row, the common case, never touches the matrix.
		if !cfg.lossy(o) || len(e.p.PathLinks[o.Path]) == 0 || cfg.unhealthyPath(e.p, o.Path) {
			continue
		}
		w.Lossy = append(w.Lossy, Observation{Path: o.Path, Sent: o.Sent, Lost: o.Lost})
	}
	sort.Slice(w.Lossy, func(i, j int) bool { return w.Lossy[i].Path < w.Lossy[j].Path })
	if reported < n {
		w.Absent = make([]int32, 0, n-reported)
		for row, ok := range seen {
			if !ok {
				w.Absent = append(w.Absent, int32(row))
			}
		}
	}
	return w, nil
}

// check enforces the Window contract against the engine's matrix.
func (e *Engine) check(w Window) error {
	n := e.p.NumPaths()
	for i, row := range w.Absent {
		if row < 0 || int(row) >= n {
			return fmt.Errorf("%w: absent row %d out of range [0,%d)", ErrBadWindow, row, n)
		}
		if i > 0 && w.Absent[i-1] >= row {
			return fmt.Errorf("%w: absent rows not strictly ascending at index %d", ErrBadWindow, i)
		}
	}
	a := 0
	for i, o := range w.Lossy {
		if o.Path < 0 || o.Path >= n {
			return fmt.Errorf("%w: lossy row %d out of range [0,%d)", ErrBadWindow, o.Path, n)
		}
		if i > 0 && w.Lossy[i-1].Path >= o.Path {
			return fmt.Errorf("%w: lossy rows not strictly ascending at index %d", ErrBadWindow, i)
		}
		if o.Sent <= 0 || o.Lost < 0 || o.Lost > o.Sent {
			return fmt.Errorf("%w: lossy row %d has impossible counters sent=%d lost=%d",
				ErrBadWindow, o.Path, o.Sent, o.Lost)
		}
		if len(e.p.PathLinks[o.Path]) == 0 {
			return fmt.Errorf("%w: lossy row %d crosses no link", ErrBadWindow, o.Path)
		}
		for a < len(w.Absent) && int(w.Absent[a]) < o.Path {
			a++
		}
		if a < len(w.Absent) && int(w.Absent[a]) == o.Path {
			return fmt.Errorf("%w: row %d is both absent and lossy", ErrBadWindow, o.Path)
		}
	}
	return nil
}

// Localize runs one PLL pass over a window. Of cfg only HitRatio and
// Workers are read — classification already happened in Sparsify.
func (e *Engine) Localize(w Window, cfg Config) (*Result, error) {
	start := time.Now()
	if !(cfg.HitRatio > 0 && cfg.HitRatio <= 1) { // NaN fails too
		return nil, fmt.Errorf("pll: hit ratio must be in (0,1], got %v", cfg.HitRatio)
	}
	if err := e.check(w); err != nil {
		return nil, err
	}
	res := &Result{LossyPaths: len(w.Lossy)}
	if len(w.Lossy) == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	pathsThrough := e.base
	if len(w.Absent) > 0 {
		pathsThrough = append([]int32(nil), e.base...)
		for _, row := range w.Absent {
			for _, l := range e.p.PathLinks[row] {
				pathsThrough[l]--
			}
		}
	}
	res.Bad, res.UnexplainedPaths = localizeCore(e.p, w.Lossy, pathsThrough, cfg)
	res.Elapsed = time.Since(start)
	return res, nil
}
