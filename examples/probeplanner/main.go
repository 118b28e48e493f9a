// Probeplanner is a capacity-planning tool built on the public API: for a
// range of Fattree sizes and (α, β) targets, it reports probe-matrix size,
// per-pinger path load, probing bandwidth, and coverage evenness — the
// numbers an operator needs before rolling deTector out (paper §4.4, §6.1).
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	detector "github.com/detector-net/detector"
)

func main() {
	sizes := []int{8, 16, 24}
	configs := []struct{ alpha, beta int }{{1, 1}, {2, 1}, {1, 2}}
	const (
		pingersPerRack = 2
		redundancy     = 2
		ratePPS        = 10  // paper default
		probeBytes     = 850 // paper's mean probe size
	)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "fattree\t(a,b)\tpaths\tpaths/pinger\tprobe bw/pinger\tcoverage\tevenness gap")
	for _, k := range sizes {
		f := detector.MustFattree(k)
		paths := detector.NewFattreePaths(f)
		for _, cfg := range configs {
			res, err := detector.ConstructProbeMatrix(paths, f.NumLinks(), detector.PMCOptions{Alpha: cfg.alpha, Beta: cfg.beta})
			if err != nil {
				log.Fatal(err)
			}
			probes := detector.NewProbes(paths, res.Selected, f.NumLinks())

			// Each selected ToR-path is probed by `redundancy` pingers;
			// each rack hosts `pingersPerRack` pingers.
			nPingers := len(f.ToRs()) * pingersPerRack
			pathsPerPinger := float64(len(res.Selected)*redundancy) / float64(nPingers)
			// A pinger loops its paths at ratePPS packets per second.
			bwKbps := float64(ratePPS) * probeBytes * 8 * 2 / 1000 // probe + echo

			links := f.SwitchLinks()
			minCov := probes.MinCoverage(links)
			maxCov := 0
			for _, l := range links {
				if c := len(probes.PathsThrough(l)); c > maxCov {
					maxCov = c
				}
			}
			fmt.Fprintf(w, "Fattree(%d)\t(%d,%d)\t%d\t%.1f\t%.0f Kbps\t%d..%d\t%d\n",
				k, cfg.alpha, cfg.beta, len(res.Selected), pathsPerPinger,
				bwKbps, minCov, maxCov, maxCov-minCov)
		}
	}
	w.Flush()
	fmt.Println("\npaths/pinger stays double digits even as the fabric grows — the")
	fmt.Println("paper's point that pinglists remain tiny (§4.4: ~60 paths at k=64,")
	fmt.Println("versus 2000-5000 for Pingmesh).")
}
