// Top-level benchmarks: one per paper table and figure (regenerating the
// experiment at reduced trial counts), plus ablation benches for the design
// choices called out in DESIGN.md. Run the full harness with:
//
//	go test -bench=. -benchmem .
//
// For paper-style output (full trials, bigger instances) use
// cmd/experiments instead; benchmarks exist to track the cost of each
// pipeline and to regression-test the optimizations' relative speed.
package detector_test

import (
	"io"
	"math/rand"
	"testing"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/expt"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
	"github.com/detector-net/detector/internal/wire"
)

func benchParams() expt.Params {
	return expt.Params{Trials: 3, Seed: 42, ProbesPerPath: 200}
}

// BenchmarkTable1Capabilities measures the capability drill (paper Table 1).
func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table1(io.Discard, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 2: PMC runtime per optimization level on Fattree(8) (the paper's
// progression strawman -> decompose -> lazy -> symmetry).
func benchPMC(b *testing.B, opt pmc.Options) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmc.Construct(ps, f.NumLinks(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2PMCStrawman(b *testing.B) {
	benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoDecompose | pmc.NoLazy | pmc.NoSymmetry})
}

func BenchmarkTable2PMCDecompose(b *testing.B) {
	benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoLazy | pmc.NoSymmetry})
}

func BenchmarkTable2PMCLazy(b *testing.B) {
	benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry})
}

func BenchmarkTable2PMCSymmetry(b *testing.B) {
	benchPMC(b, pmc.Options{Alpha: 2, Beta: 1})
}

// β=2 construction benches: the Table 5 configuration (1,2) running on the
// exact incremental scoring engine — refine.SplitAffected reports exact
// affected links for the virtual pair universe, so cached scores survive
// selections at β=2 exactly as they do at β=1. Fattree(8) keeps the
// per-commit cost low; BenchmarkServedCycle has the Fattree(16) case.
func BenchmarkBeta2PMCLazy(b *testing.B) {
	benchPMC(b, pmc.Options{Alpha: 1, Beta: 2, Ablate: pmc.NoSymmetry})
}

func BenchmarkBeta2PMCStrawman(b *testing.B) {
	benchPMC(b, pmc.Options{Alpha: 1, Beta: 2, Ablate: pmc.NoLazy | pmc.NoSymmetry})
}

// BenchmarkServedCycle is a cold construction cycle as the controller
// serves it: control.New + RunCycle(nil), everything from path enumeration
// to built pinglists. Fattree(12) at (1,2) is the cycle bench/'s
// control-f12-b2 repeats; Fattree(16) at (1,2) is the β=2 cycle one radix
// up, whose time is mostly refinement: ~11-14 ms at GOMAXPROCS=1, ~34-60
// ms while each selection step walked its whole affected-link report.
// Fattree(24) is the served path above the fabrics bench/ builds, where a
// per-candidate copy in the coordinator or a shard (11.9 M candidates)
// shows in B/op.
func BenchmarkServedCycle(b *testing.B) {
	for _, c := range []struct {
		name           string
		k, alpha, beta int
	}{
		{"Fattree16-a3b1", 16, 3, 1},
		{"Fattree12-a1b2", 12, 1, 2},
		{"Fattree16-a1b2", 16, 1, 2},
		{"Fattree24-a3b1", 24, 3, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := topo.MustFattree(c.k)
			cfg := control.DefaultConfig()
			cfg.Alpha, cfg.Beta = c.alpha, c.beta
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctl := control.New(f, cfg)
				err := ctl.RunCycle(nil)
				st := ctl.PMCStats()
				ctl.Close()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Selected), "paths")
				b.ReportMetric(float64(st.ScoreEvals), "score-evals")
			}
		})
	}
}

// BenchmarkPMCMaterializeCSR times the Fattree(8) candidate matrix's
// construction, MaterializeCSR, which for a family that generates its rows
// stores nothing, then one pass that generates every row (AppendRow, as the
// matrix signature, the class leader's arena, the class follower checks
// and a churn step read rows).
func BenchmarkPMCMaterializeCSR(b *testing.B) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	b.ReportAllocs()
	b.ResetTimer()
	var row []topo.LinkID
	for i := 0; i < b.N; i++ {
		csr := route.MaterializeCSR(ps)
		links := 0
		for p := 0; p < csr.Len(); p++ {
			row = csr.AppendRow(p, row[:0])
			links += len(row)
		}
		if links < 3*ps.Len() {
			b.Fatal("short materialization")
		}
	}
}

// BenchmarkTable3Paths regenerates the selected-path counts (paper Table 3).
func BenchmarkTable3Paths(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table3(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Accuracy regenerates the identifiability-vs-accuracy sweep
// (paper Table 4).
func BenchmarkTable4Accuracy(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table4(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5LargeScale regenerates the (1,2) large-scale run at CI
// size (paper Table 5 uses a 48-ary Fattree; cmd/experiments -k 48).
func BenchmarkTable5LargeScale(b *testing.B) {
	p := benchParams()
	p.K = 8
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table5(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Sensitivity regenerates the probing-frequency sweep
// (paper Fig. 4a-d).
func BenchmarkFig4Sensitivity(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig4(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Comparison regenerates the three-system budget sweep
// (paper Fig. 5).
func BenchmarkFig5Comparison(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig5(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6MultiFailure regenerates the concurrent-failure sweep
// (paper Fig. 6).
func BenchmarkFig6MultiFailure(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig6(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPingerThroughput measures the per-probe cost of the agent wire
// path (marshal + unmarshal + reverse), the measured side of Fig. 4(b):
// the paper reports 0.4% CPU at 10 probes/second.
func BenchmarkPingerThroughput(b *testing.B) {
	pkt := &wire.Packet{
		ProbeID: 1, PathID: 2, FlowLabel: 3, SendNS: 4,
		Route: []topo.NodeID{10, 4, 0, 6, 12, 13, 20},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = pkt.Marshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		got, err := wire.Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		_ = got.Reversed(5)
	}
}

// BenchmarkPLLLocalize measures one localization window on a Fattree(16)
// matrix with 10 concurrent failures — the paper's "within 1 second in a
// large DCN" claim (§5.3) scaled to CI.
func BenchmarkPLLLocalize(b *testing.B) {
	f := topo.MustFattree(16)
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 1, Beta: 2})
	if err != nil {
		b.Fatal(err)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	rng := rand.New(rand.NewSource(9))
	cfg := sim.DefaultFailureConfig()
	cfg.Failures = 10
	cfg.SwitchFrac = 0
	cfg.MinRate = 0.01
	cfg.IncludeServerLinks = false
	scen, err := sim.Generate(f.Topology, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	n := sim.NewNetwork(f.Topology, scen)
	obs := sim.SimulateWindow(n, probes, sim.ProbeWindowConfig{ProbesPerPath: 200}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Localize(probes, obs, pll.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations: the design choices DESIGN.md calls out.

// BenchmarkAblationLazy isolates the CELF lazy-update speedup at fixed
// decomposition (compare Off/On ns/op).
func BenchmarkAblationLazy(b *testing.B) {
	b.Run("Off", func(b *testing.B) { benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoLazy | pmc.NoSymmetry}) })
	b.Run("On", func(b *testing.B) { benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}) })
}

// BenchmarkAblationDecompose isolates Observation 1 at fixed lazy updates.
func BenchmarkAblationDecompose(b *testing.B) {
	b.Run("Off", func(b *testing.B) {
		benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoDecompose | pmc.NoSymmetry})
	})
	b.Run("On", func(b *testing.B) { benchPMC(b, pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}) })
}

// BenchmarkAblationSymmetry isolates Observation 3 on a larger instance
// where orbit reduction matters.
func BenchmarkAblationSymmetry(b *testing.B) {
	f := topo.MustFattree(12)
	ps := route.NewFattreePaths(f)
	run := func(b *testing.B, ablate pmc.Ablation) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 2, Beta: 1, Ablate: ablate})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Off", func(b *testing.B) { run(b, pmc.NoSymmetry) })
	b.Run("On", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationHitRatio sweeps PLL's hit-ratio threshold; tau = 1.0
// degenerates to Tomo's exoneration rule and loses partial-loss failures
// (accuracy is reported via the b.ReportMetric hook).
func BenchmarkAblationHitRatio(b *testing.B) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 3, Beta: 1, Ablate: pmc.NoSymmetry})
	if err != nil {
		b.Fatal(err)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	for _, tau := range []float64{0.3, 0.6, 0.9, 1.0} {
		b.Run(ratioName(tau), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			cfg := pll.DefaultConfig()
			cfg.HitRatio = tau
			hits, total := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				links := f.SwitchLinks()
				bad := links[rng.Intn(len(links))]
				// A narrow blackhole (3 of 32 buckets) probed with few
				// flow labels leaves some paths through the bad link
				// clean — exactly the case where Tomo's exoneration rule
				// (tau = 1.0) fails.
				scen := sim.NewScenario(sim.Failure{
					Link:       bad,
					Model:      sim.DeterministicLoss{Buckets: 0x00000007, Seed: rng.Uint64()},
					FromSwitch: -1,
				})
				n := sim.NewNetwork(f.Topology, scen)
				obs := sim.SimulateWindow(n, probes, sim.ProbeWindowConfig{ProbesPerPath: 100, PortRange: 4}, rng)
				lres, err := pll.Localize(probes, obs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total++
				for _, l := range lres.BadLinks() {
					if l == bad {
						hits++
						break
					}
				}
			}
			b.ReportMetric(float64(hits)/float64(total), "accuracy")
		})
	}
}

func ratioName(tau float64) string {
	switch tau {
	case 0.3:
		return "tau=0.3"
	case 0.6:
		return "tau=0.6"
	case 0.9:
		return "tau=0.9"
	default:
		return "tau=1.0"
	}
}

// BenchmarkProbeSimulation measures raw simulator throughput (probes/op).
func BenchmarkProbeSimulation(b *testing.B) {
	f := topo.MustFattree(8)
	links := f.PathLinks(f.ToRAt(0, 0), f.ToRAt(3, 1), 5, nil)
	n := sim.NewNetwork(f.Topology, sim.NewScenario(sim.Failure{
		Link: links[1], Model: sim.RandomLoss{P: 0.01}, FromSwitch: -1,
	}))
	rng := rand.New(rand.NewSource(1))
	key := sim.FlowKey{Src: 1, Dst: 2, SrcPort: 33434, DstPort: 7, Proto: sim.UDPProto}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ProbePath(links, key, 100, 16, rng)
	}
}

// BenchmarkAblationEvenness isolates the Σw evenness term of the PMC score
// (Eq. 1), reporting the resulting max-min coverage gap alongside runtime
// (the paper cites a gap of 188 on Fattree(64) without evenness, §4.2).
func BenchmarkAblationEvenness(b *testing.B) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	run := func(b *testing.B, noEvenness bool) {
		gap := 0
		for i := 0; i < b.N; i++ {
			res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{
				Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry, NoEvenness: noEvenness,
			})
			if err != nil {
				b.Fatal(err)
			}
			probes := route.NewProbes(ps, res.Selected, f.NumLinks())
			v := pmc.Verify(probes, f.SwitchLinks(), false)
			gap = v.MaxCoverage - v.MinCoverage
		}
		b.ReportMetric(float64(gap), "coverage-gap")
	}
	b.Run("WithEvenness", func(b *testing.B) { run(b, false) })
	b.Run("NoEvenness", func(b *testing.B) { run(b, true) })
}
