package pll_test

import (
	"math/rand"
	"testing"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

func TestClassifyString(t *testing.T) {
	for _, c := range []pll.LossClass{pll.ClassUnknown, pll.ClassFull, pll.ClassDeterministic, pll.ClassRandom} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func TestClassifyHandCrafted(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1}, {0, 2}, {0, 3},
	}, 4)

	full := []pll.Observation{
		{Path: 0, Sent: 100, Lost: 100},
		{Path: 1, Sent: 100, Lost: 99},
		{Path: 2, Sent: 100, Lost: 100},
	}
	if got := pll.Classify(p, full, 0); got != pll.ClassFull {
		t.Errorf("full loss classified as %v", got)
	}

	blackhole := []pll.Observation{
		{Path: 0, Sent: 100, Lost: 52}, // flows in the blackholed buckets
		{Path: 1, Sent: 100, Lost: 0},  // flows that miss it
		{Path: 2, Sent: 100, Lost: 47},
	}
	if got := pll.Classify(p, blackhole, 0); got != pll.ClassDeterministic {
		t.Errorf("blackhole classified as %v", got)
	}

	random := []pll.Observation{
		{Path: 0, Sent: 1000, Lost: 52},
		{Path: 1, Sent: 1000, Lost: 48},
		{Path: 2, Sent: 1000, Lost: 55},
	}
	if got := pll.Classify(p, random, 0); got != pll.ClassRandom {
		t.Errorf("random loss classified as %v", got)
	}

	if got := pll.Classify(p, nil, 0); got != pll.ClassUnknown {
		t.Errorf("no data classified as %v", got)
	}
	clean := []pll.Observation{{Path: 0, Sent: 100, Lost: 0}, {Path: 1, Sent: 100, Lost: 0}}
	if got := pll.Classify(p, clean, 0); got != pll.ClassUnknown {
		t.Errorf("clean link classified as %v", got)
	}
}

// TestClassifyAgainstSimulator closes the loop: inject each loss kind in
// the simulator, localize, classify, and require the classifier to name
// the injected kind in a strong majority of trials.
func TestClassifyAgainstSimulator(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 3, Beta: 1, Ablate: pmc.NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	rng := rand.New(rand.NewSource(17))
	links := f.SwitchLinks()

	cases := []struct {
		name  string
		model func() sim.LossModel
		want  pll.LossClass
	}{
		{"full", func() sim.LossModel { return sim.FullLoss{} }, pll.ClassFull},
		{"blackhole", func() sim.LossModel {
			return sim.DeterministicLoss{Buckets: 0x000000FF, Seed: rng.Uint64()}
		}, pll.ClassDeterministic},
		{"random", func() sim.LossModel { return sim.RandomLoss{P: 0.10} }, pll.ClassRandom},
	}
	for _, c := range cases {
		hits, trials := 0, 15
		for i := 0; i < trials; i++ {
			bad := links[rng.Intn(len(links))]
			scen := sim.NewScenario(sim.Failure{Link: bad, Model: c.model(), FromSwitch: -1})
			n := sim.NewNetwork(f.Topology, scen)
			obs := sim.SimulateWindow(n, probes, sim.ProbeWindowConfig{ProbesPerPath: 400}, rng)
			lres, err := pll.Localize(probes, obs, pll.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, v := range lres.Bad {
				if v.Link == bad {
					found = true
				}
			}
			if !found {
				continue // localization miss, classification untestable
			}
			if pll.Classify(probes, obs, bad) == c.want {
				hits++
			}
		}
		if hits < trials*2/3 {
			t.Errorf("%s: classified correctly %d of %d trials", c.name, hits, trials)
		}
	}
}
