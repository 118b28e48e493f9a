// Quickstart: the deTector pipeline in one file — build a Fattree, select
// a probe matrix with PMC, simulate a failure, localize it with PLL.
package main

import (
	"fmt"
	"log"
	"math/rand"

	detector "github.com/detector-net/detector"
)

func main() {
	// 1. An 8-ary Fattree: 208 nodes, 384 links, 15,872 candidate paths.
	f := detector.MustFattree(8)
	fmt.Println("topology:", f)

	// 2. PMC selects a probe matrix with 3-coverage and 1-identifiability
	//    using all three of the paper's speedups.
	paths := detector.NewFattreePaths(f)
	res, err := detector.ConstructProbeMatrix(paths, f.NumLinks(), detector.PMCOptions{Alpha: 3, Beta: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe matrix: %d of %d candidate paths (%.2f%%), built in %v\n",
		len(res.Selected), paths.Len(),
		100*float64(len(res.Selected))/float64(paths.Len()), res.Stats.Elapsed)

	probes := detector.NewProbes(paths, res.Selected, f.NumLinks())
	v := detector.VerifyProbeMatrix(probes, f.SwitchLinks(), false)
	fmt.Printf("verified: every link covered by %d..%d paths, 1-identifiable=%v\n",
		v.MinCoverage, v.MaxCoverage, v.Identifiable1)

	// 3. Fail a random aggregation-core link with a flow-selective
	//    blackhole — the failure mode that breaks classic tomography.
	rng := rand.New(rand.NewSource(7))
	links := f.SwitchLinks()
	bad := links[rng.Intn(len(links))]
	lk := f.Link(bad)
	fmt.Printf("injecting blackhole on link %d (%s <-> %s), dropping 25%% of flows\n",
		bad, f.Node(lk.A).Name, f.Node(lk.B).Name)
	scen := detector.NewScenario(detector.Failure{
		Link:       bad,
		Model:      detector.DeterministicLoss{Buckets: 0x000000FF, Seed: 99},
		FromSwitch: -1,
	})

	// 4. Simulate one 30-second measurement window: every probe path gets
	//    300 probes (10/s) with rotating source ports.
	network := detector.NewNetwork(f.Topology, scen)
	obs := detector.SimulateWindow(network, probes, detector.ProbeWindowConfig{
		ProbesPerPath: 300,
	}, rng)

	// 5. PLL localizes from the same window — no second round of probes.
	result, err := detector.Localize(probes, obs, detector.DefaultPLLConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PLL: %d lossy paths analyzed in %v\n", result.LossyPaths, result.Elapsed)
	for _, verdict := range result.Bad {
		l := f.Link(verdict.Link)
		fmt.Printf("  suspected link %d (%s <-> %s), estimated loss rate %.1f%%\n",
			verdict.Link, f.Node(l.A).Name, f.Node(l.B).Name, 100*verdict.Rate)
	}
	c := detector.CompareLinks(result.BadLinks(), scen.BadLinks())
	fmt.Printf("ground truth check: %v\n", c)
}
