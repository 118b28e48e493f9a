package expt

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/eval"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// ServerLevelRow is one failure-count cell of the server-level sharding
// sweep: the interior-partition plane's merged verdicts scored against
// ground truth and against the unsharded global localizer.
type ServerLevelRow struct {
	Failed int
	// Accuracy and FalsePositive score the interior plane's merged
	// verdicts against the injected faults, pooled over trials.
	Accuracy, FalsePositive float64
	// AgreeGlobal is the fraction of trials whose merged bad-link set is
	// identical to one global pll.Localize over the whole matrix.
	AgreeGlobal float64
	// Disagreements pools the merge's per-cut-link disagreement count —
	// the measured accuracy-bound surface the interior partition trades
	// for parallelism.
	Disagreements int
}

// ServerLevelResult is the full sweep: both partition geometries plus the
// accuracy table.
type ServerLevelResult struct {
	// Exact and Approx describe the component plane (route.ComponentPartition)
	// and the interior plane (route.InteriorPartition) over the same served
	// server-level matrix.
	Exact, Approx shard.PlaneStats
	// NumPaths is the served matrix's row count.
	NumPaths int
	// DisagreementBound is the static per-window bound on Disagreements:
	// the sum over shard-level cut links of (sharing shards - 1).
	DisagreementBound int
	Rows              []ServerLevelRow
}

// serverLevelMatrix boots an in-process controller on Fattree(k) and
// returns the served server-level probe matrix — the same pinger-expanded
// routes (pinger uplink, ToR-level links, responder downlink) the
// diagnoser fetches over HTTP, which is exactly the matrix shape that
// entangles the component partition into one part.
func serverLevelMatrix(k int) (*topo.Fattree, *route.Probes, error) {
	f, err := topo.NewFattree(k)
	if err != nil {
		return nil, nil, err
	}
	cfg := control.DefaultConfig()
	cfg.WindowMS = 100
	ctrl := control.New(f, cfg)
	defer ctrl.Close()
	if err := ctrl.RunCycle(nil); err != nil {
		return nil, nil, err
	}
	return f, ctrl.ProbeMatrix(), nil
}

// solidLossScenario fails nf distinct covered links with non-gray random
// loss at solid rates (log-uniform 10%-50%): the regime where the global
// localizer is reliable, so the sweep isolates what the interior
// partition costs rather than what PLL costs.
func solidLossScenario(covered []topo.LinkID, nf int, rng *rand.Rand) *sim.Scenario {
	picked := make(map[topo.LinkID]bool, nf)
	fails := make([]sim.Failure, 0, nf)
	for len(fails) < nf {
		l := covered[rng.Intn(len(covered))]
		if picked[l] {
			continue
		}
		picked[l] = true
		p := math.Exp(math.Log(0.1) + rng.Float64()*math.Log(0.5/0.1))
		fails = append(fails, sim.Failure{Link: l, Model: sim.RandomLoss{P: p}, FromSwitch: -1})
	}
	return sim.NewScenario(fails...)
}

func badLinkSet(r *pll.Result) []topo.LinkID {
	out := make([]topo.LinkID, len(r.Bad))
	for i, v := range r.Bad {
		out[i] = v.Link
	}
	return out
}

func sameLinkSet(a, b []topo.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ServerLevel measures the server-level diagnosis sharding trade: on a
// Fattree(k) server-level matrix the component partition collapses to one
// part (every route carries its pinger's uplink, entangling the
// components), so the sweep builds both planes over four shard slots,
// verifies the interior plane actually spreads, and scores its merged
// verdicts against ground truth and the unsharded localizer at 1-10
// concurrent solid-loss faults.
func ServerLevel(w io.Writer, p Params) (*ServerLevelResult, error) {
	k := p.K
	if k == 0 {
		k = 16
		if p.Big {
			k = 24
		}
	}
	f, probes, err := serverLevelMatrix(k)
	if err != nil {
		return nil, err
	}

	alive := []int{0, 1, 2, 3}
	exact := shard.NewPlane(probes, alive)
	approx := shard.NewPlaneFrom(probes, alive, route.InteriorPartition(probes))
	res := &ServerLevelResult{
		Exact:    exact.Stats(),
		Approx:   approx.Stats(),
		NumPaths: probes.NumPaths(),
	}
	for _, c := range approx.CutLinks() {
		res.DisagreementBound += c.Parts - 1
	}

	var covered []topo.LinkID
	for l := 0; l < probes.NumLinks; l++ {
		if len(probes.PathsThrough(topo.LinkID(l))) > 0 {
			covered = append(covered, topo.LinkID(l))
		}
	}

	rng := p.rng()
	cfg := pll.DefaultConfig()
	for _, nf := range ScenarioCounts {
		row := ServerLevelRow{Failed: nf}
		var pooled eval.Confusion
		agree := 0
		for tr := 0; tr < p.Trials; tr++ {
			scen := solidLossScenario(covered, nf, rng)
			net := sim.NewNetwork(f.Topology, scen)
			obs := sim.SimulateWindow(net, probes, sim.ProbeWindowConfig{ProbesPerPath: p.ProbesPerPath}, rng)
			merged, ms, err := approx.LocalizeCycleStats(nil, obs, cfg)
			if err != nil {
				return nil, fmt.Errorf("serverlevel x%d: %w", nf, err)
			}
			global, err := pll.Localize(probes, obs, cfg)
			if err != nil {
				return nil, fmt.Errorf("serverlevel x%d: %w", nf, err)
			}
			pooled.Add(eval.Compare(badLinkSet(merged), scen.BadLinks()))
			if sameLinkSet(badLinkSet(merged), badLinkSet(global)) {
				agree++
			}
			row.Disagreements += ms.Disagreements
		}
		row.Accuracy = pooled.Accuracy()
		row.FalsePositive = pooled.FalsePositiveRatio()
		row.AgreeGlobal = float64(agree) / float64(p.Trials)
		res.Rows = append(res.Rows, row)
	}

	fmt.Fprintf(w, "Server-level sharding: Fattree(%d), %d served routes, %d shard slots\n",
		k, res.NumPaths, len(alive))
	t := newTable(w)
	t.row("partition", "parts", "partitions", "cut links", "max repl")
	t.row("component", res.Exact.Parts, res.Exact.Partitions, res.Exact.CutLinks, res.Exact.MaxReplication)
	t.row("interior", res.Approx.Parts, res.Approx.Partitions, res.Approx.CutLinks, res.Approx.MaxReplication)
	t.flush()
	fmt.Fprintf(w, "per-window disagreement bound: %d\n", res.DisagreementBound)
	t = newTable(w)
	t.row("faults", "accuracy", "false pos", "agree global", "disagreements")
	for _, r := range res.Rows {
		t.row(r.Failed, pct(r.Accuracy), pct(r.FalsePositive), pct(r.AgreeGlobal), r.Disagreements)
	}
	t.flush()
	return res, nil
}
