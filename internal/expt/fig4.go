package expt

import (
	"fmt"
	"io"
	"time"

	"github.com/detector-net/detector/internal/eval"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// Fig4Frequencies is the probing-rate x-axis (probes/second per pinger).
var Fig4Frequencies = []int{1, 5, 10, 15, 20, 30}

// Fig4Row is one probing frequency's outcomes across all four subfigures.
type Fig4Row struct {
	PPS int
	// (a) localization quality.
	Accuracy, FalsePositive float64
	// (b) pinger overhead: modeled from the paper's packet size (850 B)
	// and its measured 10pps operating point (0.4% CPU, 13 MB).
	BandwidthKbps float64
	CPUPercent    float64
	MemoryMB      float64
	// (c, d) workload impact from the queueing model.
	RTTMean time.Duration
	Jitter  time.Duration
}

// Fig4 reproduces the sensitivity analysis of paper Fig. 4 on the 4-ary
// testbed topology: higher probing frequency improves accuracy and false
// positives with diminishing returns past 10-15 pps, while overhead grows
// linearly and workload RTT/jitter stay flat.
func Fig4(w io.Writer, p Params) ([]Fig4Row, error) {
	f := topo.MustFattree(4)
	probes, _, err := buildMatrix(f, 3, 1)
	if err != nil {
		return nil, err
	}
	rng := p.rng()
	load, err := sim.GenerateLoad(f, sim.DefaultWorkloadConfig(), rng)
	if err != nil {
		return nil, err
	}
	lat := sim.DefaultLatencyModel()

	// Paths per pinger: 2 pingers per rack share the rack's outgoing paths
	// with 2x redundancy, so each pinger probes ~2*paths/(#racks*2).
	pathsPerPinger := float64(2*probes.NumPaths()) / float64(len(f.ToRs())*2)
	const windowSec = 30

	// Pre-draw the failure scenarios once and reuse them at every
	// frequency: the sweep is a paired comparison, not independent draws.
	scens := make([]*sim.Scenario, p.Trials)
	for tr := range scens {
		// Link-level faults only: whole-switch events fail several links
		// at once and PLL's parsimony then caps accuracy for reasons
		// orthogonal to probing frequency, which is what this figure
		// studies (the multi-failure regime is Fig. 6 / Table 4).
		cfg := sim.DefaultFailureConfig()
		cfg.MinRate = 0.01
		cfg.SwitchFrac = 0
		scen, err := sim.Generate(f.Topology, cfg, rng)
		if err != nil {
			return nil, err
		}
		scens[tr] = scen
	}

	var rows []Fig4Row
	for _, pps := range Fig4Frequencies {
		probesPerPath := int(float64(pps) * windowSec / pathsPerPinger)
		if probesPerPath < 1 {
			probesPerPath = 1
		}
		var pooled eval.Confusion
		for tr := 0; tr < p.Trials; tr++ {
			scen := scens[tr]
			n := sim.NewNetwork(f.Topology, scen)
			obs := sim.SimulateWindow(n, probes, sim.ProbeWindowConfig{ProbesPerPath: probesPerPath}, rng)
			res, err := pll.Localize(probes, obs, pll.DefaultConfig())
			if err != nil {
				return nil, err
			}
			pooled.Add(eval.Compare(res.BadLinks(), switchOnly(f, scen.BadLinks())))
		}

		// Workload RTT under combined workload + probe traffic.
		probeLoad := cloneLoad(load)
		addProbeLoad(f, probes, probeLoad, pps)
		src, dst := f.ServerID[0][0][0], f.ServerID[2][0][0]
		links, _ := route.FattreeServerPath(f, src, dst, 0)
		rtts := lat.RTTSamples(links, probeLoad, 300, rng)
		var mean time.Duration
		for _, r := range rtts {
			mean += r
		}
		mean /= time.Duration(len(rtts))

		rows = append(rows, Fig4Row{
			PPS:           pps,
			Accuracy:      pooled.Accuracy(),
			FalsePositive: pooled.FalsePositiveRatio(),
			BandwidthKbps: float64(pps) * 850 * 8 / 1000 * 2, // probe + echo
			CPUPercent:    0.04 * float64(pps),
			MemoryMB:      13,
			RTTMean:       mean,
			Jitter:        sim.Jitter(rtts),
		})
	}

	fmt.Fprintln(w, "Figure 4: probing-frequency sensitivity on Fattree(4) (paper Fig. 4)")
	t := newTable(w)
	t.row("pps", "accuracy", "false pos", "bw(Kbps)", "cpu%", "mem(MB)", "rtt", "jitter")
	for _, r := range rows {
		t.row(r.PPS, pct(r.Accuracy), pct(r.FalsePositive),
			fmt.Sprintf("%.0f", r.BandwidthKbps), fmt.Sprintf("%.2f", r.CPUPercent),
			fmt.Sprintf("%.0f", r.MemoryMB), fmtDur(r.RTTMean), fmtDur(r.Jitter))
	}
	t.flush()
	return rows, nil
}

// switchOnly filters ground truth to the links the ToR-level matrix can
// localize; server-link faults are the intra-rack prober's job.
func switchOnly(f *topo.Fattree, links []topo.LinkID) []topo.LinkID {
	var out []topo.LinkID
	for _, l := range links {
		if f.Link(l).Tier != topo.TierServerEdge {
			out = append(out, l)
		}
	}
	return out
}

func cloneLoad(in *sim.Load) *sim.Load {
	out := sim.NewLoad()
	for l, v := range in.BytesPerSec {
		out.BytesPerSec[l] = v
	}
	return out
}

// addProbeLoad spreads each pinger's probe bytes over its paths.
func addProbeLoad(f *topo.Fattree, probes *route.Probes, load *sim.Load, pps int) {
	perPath := float64(pps) * 850 / float64(probes.NumPaths()/(len(f.ToRs())*2)+1)
	for _, links := range probes.PathLinks {
		load.Add(links, perPath)
	}
}
