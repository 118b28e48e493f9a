package expt

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/detector-net/detector/internal/eval"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// ScenarioCounts is the gray-failure suite's x-axis: concurrent same-mode
// faults per scenario. It stops at 10 — beyond that the interesting axis is
// Table 5's, not the verdict lattice's.
var ScenarioCounts = []int{1, 5, 10}

// ScenarioRow is one (fault mode, failure count) cell of the suite.
type ScenarioRow struct {
	Mode   sim.FaultMode
	Failed int
	// Accuracy and FalsePositive score the detection set against ground
	// truth: hard link-down alerts for loss-class modes, soft advisories
	// for congestion/delay-class modes.
	Accuracy, FalsePositive float64
	// LinkDownFP counts hard link-down alerts raised on links that are not
	// truly hard-faulted, pooled over trials. For congested / delayed /
	// incast scenarios any such alert is the false "link down" page the
	// lattice exists to suppress; the suite expects 0.
	LinkDownFP int
	// VerdictOK is the fraction of detected true-fault links whose verdict
	// matches the mode's expected class.
	VerdictOK float64
}

// expectedVerdict maps a fault mode to the verdict class the lattice is
// expected to emit for it.
func expectedVerdict(m sim.FaultMode) pll.VerdictClass {
	switch m {
	case sim.ModeLossy:
		return pll.VerdictLossy
	case sim.ModeSilentPartial:
		return pll.VerdictSilentPartial
	case sim.ModeCongested, sim.ModeIncast:
		return pll.VerdictCongested
	case sim.ModeDelayed:
		return pll.VerdictDelayed
	case sim.ModeFlapping:
		return pll.VerdictFlapping
	}
	return pll.VerdictUnknown
}

// scenarioCell runs `trials` scenarios of one mode and failure count and
// pools the detection confusion, hard-alert false pages and verdict hits.
//
// Each trial replays the diagnoser's window protocol end to end: a healthy
// warmup window seeds the per-path RTT baselines and the first loss-rate
// history sample, fault windows extend the history (flapping runs five so
// the series can oscillate, everything else settles in one), and the final
// window's observations plus its switch-counter delta feed localization and
// the lattice exactly as diag.RunWindow wires them.
func scenarioCell(f *topo.Fattree, probes *route.Probes, mode sim.FaultMode, numFailed, trials, probesPerPath int, rng *rand.Rand) (ScenarioRow, error) {
	row := ScenarioRow{Mode: mode, Failed: numFailed}
	expect := expectedVerdict(mode)
	var pooled eval.Confusion
	verdictNum, verdictDen := 0, 0

	for tr := 0; tr < trials; tr++ {
		scen, err := sim.GenerateMode(f.Topology, mode, numFailed, rng)
		if err != nil {
			return row, err
		}
		net := sim.NewNetwork(f.Topology, scen)

		// Healthy warmup on a clean network: baselines and history sample 0.
		healthy := sim.NewNetwork(f.Topology, nil)
		warm := sim.SimulateSignalWindow(healthy, probes, sim.SignalWindowConfig{ProbesPerPath: probesPerPath}, rng)
		// Depth 6 keeps every recorded window: the warmup and up to four
		// fault windows before the verdict window.
		sigs := &pll.Signals{History: pll.NewHistory(probes.NumPaths(), 6), BaseRTTNS: make([]int64, probes.NumPaths())}
		record := func(obs []pll.Observation, baseline bool) {
			for _, o := range obs {
				if o.Sent > 0 {
					sigs.History.Append(o.Path, float64(o.Lost)/float64(o.Sent))
				}
				if baseline && o.MeanRTTNS > 0 {
					sigs.BaseRTTNS[o.Path] = o.MeanRTTNS
				}
			}
		}
		record(warm, true)

		windows := 1
		if mode == sim.ModeFlapping {
			windows = 5 // down on even windows; the verdict window (4) is down
		}
		var obs []pll.Observation
		var before map[topo.LinkID]int64
		for wd := 0; wd < windows; wd++ {
			if wd == windows-1 {
				before = net.CounterSnapshot()
			}
			obs = sim.SimulateSignalWindow(net, probes, sim.SignalWindowConfig{ProbesPerPath: probesPerPath, Window: wd}, rng)
			if wd < windows-1 {
				record(obs, false)
			}
		}
		after := net.CounterSnapshot()
		sigs.Counters = func(l topo.LinkID) (int64, bool) { return after[l] - before[l], true }

		res, err := pll.Localize(probes, obs, pll.DefaultConfig())
		if err != nil {
			return row, err
		}
		scfg := pll.DefaultSignalConfig()

		// The diagnoser's split: lattice-filter the loss localization into
		// hard link-down alerts vs soft advisories, then add the signal-only
		// localization (faults the loss pipeline cannot see).
		verdicts := make(map[topo.LinkID]pll.VerdictClass)
		var hard, soft []topo.LinkID
		for _, v := range res.Bad {
			vc := pll.ClassifyVerdict(probes, obs, v.Link, sigs, scfg)
			verdicts[v.Link] = vc
			if vc == pll.VerdictCongested || vc == pll.VerdictDelayed {
				soft = append(soft, v.Link)
			} else {
				hard = append(hard, v.Link)
			}
		}
		sres := pll.LocalizeSignals(probes, obs, sigs, scfg, pll.DefaultConfig())
		for _, sv := range append(append([]pll.SoftVerdict(nil), sres.Congested...), sres.Delayed...) {
			if _, dup := verdicts[sv.Link]; !dup {
				verdicts[sv.Link] = sv.Class
				soft = append(soft, sv.Link)
			}
		}

		truth := make(map[topo.LinkID]bool)
		for _, l := range scen.BadLinks() {
			truth[l] = true
		}
		predicted := hard
		if !expect.Hard() {
			predicted = soft
		}
		pooled.Add(eval.Compare(predicted, scen.BadLinks()))
		for _, l := range hard {
			if !truth[l] || !expect.Hard() {
				row.LinkDownFP++
			}
		}
		for _, l := range predicted {
			if truth[l] {
				verdictDen++
				if verdicts[l] == expect {
					verdictNum++
				}
			}
		}
	}

	row.Accuracy = pooled.Accuracy()
	row.FalsePositive = pooled.FalsePositiveRatio()
	if verdictDen > 0 {
		row.VerdictOK = float64(verdictNum) / float64(verdictDen)
	}
	return row, nil
}

// ScenarioSweep runs the gray-failure and congestion scenario suite (paper
// §7's failure-mode discrimination, evaluated Table-5 style): for each fault
// mode and concurrent-fault count it measures detection accuracy, false
// positives, false link-down pages and verdict correctness on a Fattree
// with a (1,β) probe matrix. p.Scenario restricts the sweep to one mode.
func ScenarioSweep(w io.Writer, p Params) ([]ScenarioRow, error) {
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
	modes := sim.FaultModes()
	if p.Scenario != "" {
		m, err := sim.ParseFaultMode(p.Scenario)
		if err != nil {
			return nil, err
		}
		modes = []sim.FaultMode{m}
	}
	f, err := topo.NewFattree(k)
	if err != nil {
		return nil, err
	}
	probes, res, err := buildMatrix(f, 1, beta)
	if err != nil {
		return nil, err
	}

	rng := p.rng()
	var rows []ScenarioRow
	for _, mode := range modes {
		for _, nf := range ScenarioCounts {
			row, err := scenarioCell(f, probes, mode, nf, p.Trials, p.ProbesPerPath, rng)
			if err != nil {
				return nil, fmt.Errorf("scenario %s x%d: %w", mode, nf, err)
			}
			rows = append(rows, row)
		}
	}

	fmt.Fprintf(w, "Scenario suite: verdict lattice on Fattree(%d), (1,%d) matrix, %d paths\n", k, beta, len(res.Selected))
	t := newTable(w)
	t.row("mode", "faults", "detection", "false pos", "link-down FP", "verdict ok")
	for _, r := range rows {
		t.row(r.Mode, r.Failed, pct(r.Accuracy), pct(r.FalsePositive), r.LinkDownFP, pct(r.VerdictOK))
	}
	t.flush()
	return rows, nil
}
