// Failuredrill stress-tests localization under concurrent failures, in the
// style of the paper's Table 4: it sweeps probe-matrix identifiability
// levels against rising failure counts on a 12-ary Fattree and prints the
// accuracy surface, demonstrating why identifiability matters more than
// coverage.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	detector "github.com/detector-net/detector"
)

func main() {
	f := detector.MustFattree(12)
	fmt.Println("topology:", f)
	paths := detector.NewFattreePaths(f)
	rng := rand.New(rand.NewSource(2026))

	configs := []struct{ alpha, beta int }{
		{1, 0}, {3, 0}, {1, 1}, {1, 2},
	}
	failures := []int{1, 4, 8, 16}
	const trials = 8
	const probesPerPath = 300

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "matrix\tpaths\t1 failure\t4\t8\t16")
	for _, cfg := range configs {
		res, err := detector.ConstructProbeMatrix(paths, f.NumLinks(), detector.PMCOptions{Alpha: cfg.alpha, Beta: cfg.beta})
		if err != nil {
			log.Fatal(err)
		}
		probes := detector.NewProbes(paths, res.Selected, f.NumLinks())
		row := fmt.Sprintf("(%d,%d)\t%d", cfg.alpha, cfg.beta, len(res.Selected))

		for _, nf := range failures {
			var pooled detector.Confusion
			for tr := 0; tr < trials; tr++ {
				fcfg := detector.DefaultFailureConfig()
				fcfg.Failures = nf
				fcfg.SwitchFrac = 0
				fcfg.MinRate = 0.01
				fcfg.IncludeServerLinks = false
				scen, err := detector.GenerateScenario(f.Topology, fcfg, rng)
				if err != nil {
					log.Fatal(err)
				}
				n := detector.NewNetwork(f.Topology, scen)
				obs := detector.SimulateWindow(n, probes, detector.ProbeWindowConfig{
					ProbesPerPath: probesPerPath,
				}, rng)
				lres, err := detector.Localize(probes, obs, detector.DefaultPLLConfig())
				if err != nil {
					log.Fatal(err)
				}
				pooled.Add(detector.CompareLinks(lres.BadLinks(), scen.BadLinks()))
			}
			row += fmt.Sprintf("\t%.1f%%", 100*pooled.Accuracy())
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
	fmt.Println("\nreading: 1-coverage alone cannot disambiguate (top row); adding")
	fmt.Println("1-identifiability reaches >90% accuracy with a fraction of the paths")
	fmt.Println("that 3-coverage needs — the paper's §6.4 point that identifiability")
	fmt.Println("is the cheaper lever than coverage.")
}
