// Command pmc computes a deTector probe matrix offline: build a topology,
// run the PMC greedy at the requested (α, β), verify the result, and emit
// the selected paths as JSON (or a summary).
//
// Usage:
//
//	pmc -topo fattree -k 8 -alpha 3 -beta 1
//	pmc -topo vl2 -da 20 -di 12 -t 20 -alpha 1 -beta 1 -json matrix.json
//	pmc -topo bcube -n 4 -bk 2 -alpha 1 -beta 1 -no-symmetry
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// matrixJSON is the exported probe-matrix format.
type matrixJSON struct {
	Topology string      `json:"topology"`
	Alpha    int         `json:"alpha"`
	Beta     int         `json:"beta"`
	NumLinks int         `json:"num_links"`
	Paths    []pathJSON  `json:"paths"`
	Stats    interface{} `json:"stats"`
}

type pathJSON struct {
	Index int           `json:"index"`
	Src   topo.NodeID   `json:"src"`
	Dst   topo.NodeID   `json:"dst"`
	Links []topo.LinkID `json:"links"`
}

func main() {
	var (
		topoKind = flag.String("topo", "fattree", "topology family: fattree | vl2 | bcube")
		k        = flag.Int("k", 8, "fattree radix")
		da       = flag.Int("da", 20, "vl2 aggregation degree")
		di       = flag.Int("di", 12, "vl2 intermediate degree")
		t        = flag.Int("t", 20, "vl2 servers per ToR")
		n        = flag.Int("n", 4, "bcube port count")
		bk       = flag.Int("bk", 2, "bcube levels minus one")
		alpha    = flag.Int("alpha", 3, "coverage target")
		beta     = flag.Int("beta", 1, "identifiability target")
		noDecomp = flag.Bool("no-decompose", false, "disable matrix decomposition")
		noLazy   = flag.Bool("no-lazy", false, "disable lazy (CELF) updates")
		noSym    = flag.Bool("no-symmetry", false, "disable symmetry reduction")
		verify   = flag.Bool("verify", true, "verify coverage/identifiability of the result")
		jsonOut  = flag.String("json", "", "write the matrix as JSON to this file ('-' for stdout)")
	)
	flag.Parse()

	var (
		tp    *topo.Topology
		paths route.PathSet
	)
	switch *topoKind {
	case "fattree":
		f, err := topo.NewFattree(*k)
		fatal(err)
		tp, paths = f.Topology, route.NewFattreePaths(f)
	case "vl2":
		v, err := topo.NewVL2(*da, *di, *t)
		fatal(err)
		tp, paths = v.Topology, route.NewVL2Paths(v)
	case "bcube":
		b, err := topo.NewBCube(*n, *bk)
		fatal(err)
		tp, paths = b.Topology, route.NewBCubePaths(b)
	default:
		fatal(fmt.Errorf("unknown topology %q", *topoKind))
	}

	var ablate pmc.Ablation
	if *noDecomp {
		ablate |= pmc.NoDecompose
	}
	if *noLazy {
		ablate |= pmc.NoLazy
	}
	if *noSym {
		ablate |= pmc.NoSymmetry
	}
	res, err := pmc.Construct(paths, tp.NumLinks(), pmc.Options{Alpha: *alpha, Beta: *beta, Ablate: ablate})
	fatal(err)

	st := tp.Stats()
	fmt.Printf("%s: %d nodes, %d links, %d candidate paths\n", tp.Name, st.Nodes, st.Links, paths.Len())
	fmt.Printf("selected %d paths (%.4f%% of candidates) in %v\n",
		len(res.Selected), 100*float64(len(res.Selected))/float64(paths.Len()), res.Stats.Elapsed)
	fmt.Printf("components=%d classes=%d candidates=%d score-evals=%d coverage-met=%v identifiability-met=%v\n",
		res.Stats.Components, res.Stats.Classes, res.Stats.Candidates, res.Stats.ScoreEvals,
		res.Stats.CoverageMet, res.Stats.IdentMet)

	probes := route.NewProbes(paths, res.Selected, tp.NumLinks())
	if *verify {
		links := tp.SwitchLinks()
		if *topoKind == "bcube" {
			links = links[:0]
			for _, l := range tp.Links {
				links = append(links, l.ID)
			}
		}
		v := pmc.Verify(probes, links, *beta >= 2 && len(links) <= 4096)
		fmt.Printf("verified: coverage %d..%d, 1-identifiable=%v", v.MinCoverage, v.MaxCoverage, v.Identifiable1)
		if *beta >= 2 && len(links) <= 4096 {
			fmt.Printf(", 2-identifiable=%v", v.Identifiable2)
		}
		fmt.Println()
		for _, c := range v.Collisions {
			fmt.Printf("  collision: %s\n", c)
		}
	}

	if *jsonOut != "" {
		out := matrixJSON{
			Topology: tp.Name, Alpha: *alpha, Beta: *beta,
			NumLinks: tp.NumLinks(), Stats: res.Stats,
		}
		for i := range probes.PathLinks {
			out.Paths = append(out.Paths, pathJSON{
				Index: res.Selected[i],
				Src:   probes.Src[i], Dst: probes.Dst[i],
				Links: probes.PathLinks[i],
			})
		}
		w := os.Stdout
		if *jsonOut != "-" {
			file, err := os.Create(*jsonOut)
			fatal(err)
			defer file.Close()
			w = file
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(out))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmc:", err)
		os.Exit(1)
	}
}
