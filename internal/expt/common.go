// Package expt regenerates every table and figure of the deTector paper's
// evaluation (§4.4, §6). Each driver returns structured rows and renders a
// text table, so the same code backs the cmd/experiments CLI, the top-level
// benchmarks and EXPERIMENTS.md.
//
// Absolute numbers differ from the paper — the substrate is a simulator on
// commodity CPUs, not the authors' FPGA testbed — but each driver is built
// to reproduce the paper's *shape*: who wins, by roughly what factor, and
// where the knees are. Default sizes fit CI; the Big flag unlocks
// paper-scale instances.
package expt

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// Params are shared experiment knobs.
type Params struct {
	// Trials is the number of random scenarios averaged per cell.
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// Big unlocks paper-scale instances (minutes of runtime).
	Big bool
	// K overrides the Fattree radix of the large-scale simulations
	// (Table 4 default 18, Table 5 default 24; the paper uses 48 for
	// Table 5 — pass K=48 with Big for the full-scale run).
	K int
	// ProbesPerPath is the per-window probe count of simulation drivers.
	ProbesPerPath int
	// Beta overrides the identifiability level of Table 5's probe matrix
	// (default 2, the paper's configuration). β=2 sweeps on Fattree(16)+
	// run on the exact incremental scoring engine; lowering to 1 isolates
	// what identifiability costs in paths and construction time.
	Beta int
	// Scenario restricts the fault-injection suite to one fault mode
	// (lossy, silent-partial, congested, delayed, incast, flapping);
	// empty sweeps all of them.
	Scenario string
}

// DefaultParams fits a CI box.
func DefaultParams() Params {
	return Params{Trials: 10, Seed: 1, ProbesPerPath: 400}
}

func (p Params) rng() *rand.Rand { return rand.New(rand.NewSource(p.Seed)) }

// table renders aligned rows.
type table struct {
	w *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cols ...any) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// fmtDur renders durations compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// buildMatrix constructs and materializes a probe matrix for a Fattree.
func buildMatrix(f *topo.Fattree, alpha, beta int) (*route.Probes, *pmc.Result, error) {
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: alpha, Beta: beta})
	if err != nil {
		return nil, nil, err
	}
	return route.NewProbes(ps, res.Selected, f.NumLinks()), res, nil
}
