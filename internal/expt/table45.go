package expt

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/detector-net/detector/internal/eval"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// FailedLinkCounts is the paper's Table 4/5 x-axis.
var FailedLinkCounts = []int{1, 5, 10, 20, 50}

// Table4Row is the localization accuracy of one probe-matrix configuration
// across concurrent-failure counts (paper Table 4).
type Table4Row struct {
	Alpha, Beta int
	Paths       int
	// Accuracy[i] pools trials at FailedLinkCounts[i].
	Accuracy [5]float64
}

// table45FailureConfig is the failure mix of the large-scale simulations:
// link-level faults only (Table 4 and 5 count failed links), with loss
// rates from 1% up — low-rate tails are studied separately via the noise
// analysis in Table 5's false-negative discussion; EXPERIMENTS.md records
// the substitution.
func table45FailureConfig(n int) sim.FailureConfig {
	cfg := sim.DefaultFailureConfig()
	cfg.Failures = n
	cfg.SwitchFrac = 0
	cfg.MinRate = 0.01
	cfg.IncludeServerLinks = false
	return cfg
}

// simAccuracy runs `trials` random scenarios with numFailed concurrent link
// failures and pools the confusion counts of PLL on the given matrix.
func simAccuracy(f *topo.Fattree, probes *route.Probes, numFailed, trials, probesPerPath int, rng *rand.Rand) (eval.Confusion, error) {
	var pooled eval.Confusion
	for tr := 0; tr < trials; tr++ {
		scen, err := sim.Generate(f.Topology, table45FailureConfig(numFailed), rng)
		if err != nil {
			return pooled, err
		}
		n := sim.NewNetwork(f.Topology, scen)
		obs := sim.SimulateWindow(n, probes, sim.ProbeWindowConfig{ProbesPerPath: probesPerPath}, rng)
		res, err := pll.Localize(probes, obs, pll.DefaultConfig())
		if err != nil {
			return pooled, err
		}
		pooled.Add(eval.Compare(res.BadLinks(), scen.BadLinks()))
	}
	return pooled, nil
}

// Table4 sweeps probe-matrix (α, β) configurations on an 18-radix Fattree
// (default; p.K overrides) and measures PLL accuracy against concurrent
// failures. The paper's headline: identifiability buys far more accuracy
// than coverage, and β=1 already exceeds 90%.
func Table4(w io.Writer, p Params) ([]Table4Row, error) {
	k := p.K
	if k == 0 {
		if p.Big {
			k = 18 // the paper's instance
		} else {
			k = 8 // same shape, CI-sized
		}
	}
	f, err := topo.NewFattree(k)
	if err != nil {
		return nil, err
	}
	ps := route.NewFattreePaths(f)

	configs := [][2]int{{1, 0}, {2, 0}, {3, 0}, {1, 1}, {1, 2}}
	if p.Big {
		configs = append(configs, [2]int{1, 3})
	}
	rng := p.rng()
	var rows []Table4Row
	for _, cfg := range configs {
		res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: cfg[0], Beta: cfg[1]})
		if err != nil {
			return nil, fmt.Errorf("table4 (%d,%d): %w", cfg[0], cfg[1], err)
		}
		probes := route.NewProbes(ps, res.Selected, f.NumLinks())
		row := Table4Row{Alpha: cfg[0], Beta: cfg[1], Paths: len(res.Selected)}
		for i, nf := range FailedLinkCounts {
			c, err := simAccuracy(f, probes, nf, p.Trials, p.ProbesPerPath, rng)
			if err != nil {
				return nil, err
			}
			row.Accuracy[i] = c.Accuracy()
		}
		rows = append(rows, row)
	}

	fmt.Fprintf(w, "Table 4: accuracy vs probe matrix (alpha,beta), Fattree(%d) (paper Table 4, 18-radix)\n", k)
	t := newTable(w)
	t.row("(a,b)", "paths", "1 fail", "5", "10", "20", "50")
	for _, r := range rows {
		t.row(fmt.Sprintf("(%d,%d)", r.Alpha, r.Beta), r.Paths,
			pct(r.Accuracy[0]), pct(r.Accuracy[1]), pct(r.Accuracy[2]), pct(r.Accuracy[3]), pct(r.Accuracy[4]))
	}
	t.flush()
	return rows, nil
}

// Table5Row is the full confusion breakdown at one failure count.
type Table5Row struct {
	Failed                  int
	Accuracy, FalsePositive float64
	FalseNegative           float64
}

// Table5 measures accuracy / false positives / false negatives of a
// 2-identifiable matrix at scale (paper: 48-ary Fattree; default here 16,
// Big default 24, p.K overrides — pass K=48 for the paper's instance).
func Table5(w io.Writer, p Params) ([]Table5Row, error) {
	k := p.K
	if k == 0 {
		if p.Big {
			k = 24
		} else {
			k = 16
		}
	}
	beta := p.Beta
	if beta == 0 {
		beta = 2
	}
	f, err := topo.NewFattree(k)
	if err != nil {
		return nil, err
	}
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 1, Beta: beta})
	if err != nil {
		return nil, err
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())

	rng := p.rng()
	var rows []Table5Row
	for _, nf := range FailedLinkCounts {
		c, err := simAccuracy(f, probes, nf, p.Trials, p.ProbesPerPath, rng)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Failed:        nf,
			Accuracy:      c.Accuracy(),
			FalsePositive: c.FalsePositiveRatio(),
			FalseNegative: c.FalseNegativeRatio(),
		})
	}

	fmt.Fprintf(w, "Table 5: (1,%d) matrix on Fattree(%d), %d paths (paper Table 5, 48-ary)\n", beta, k, len(res.Selected))
	t := newTable(w)
	t.row("# failed links", "accuracy", "false positive", "false negative")
	for _, r := range rows {
		t.row(r.Failed, pct(r.Accuracy), pct(r.FalsePositive), pct(r.FalseNegative))
	}
	t.flush()
	return rows, nil
}
