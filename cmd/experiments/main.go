// Command experiments regenerates every table and figure of the deTector
// paper's evaluation. Each experiment prints a text table whose rows mirror
// the paper's; EXPERIMENTS.md records the paper-versus-measured comparison.
//
// Usage:
//
//	experiments -run all                 # everything at CI scale
//	experiments -run table2 -big        # paper-adjacent sizes
//	experiments -run table5 -k 48       # the paper's 48-ary instance
//	experiments -run table4,fig5 -trials 50 -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/detector-net/detector/internal/expt"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiments: table1,table2,table3,table4,table5,fig4,fig5,fig6,scenarios or 'all'")
		trials   = flag.Int("trials", 10, "random scenarios per cell")
		seed     = flag.Int64("seed", 1, "RNG seed")
		big      = flag.Bool("big", false, "paper-adjacent instance sizes (minutes of runtime)")
		k        = flag.Int("k", 0, "override Fattree radix for table4/table5/scenarios (0 = experiment default)")
		probes   = flag.Int("probes", 400, "probes per path per simulated window")
		beta     = flag.Int("beta", 0, "override table5's probe-matrix identifiability level (0 = paper default 2)")
		scenario = flag.String("scenario", "", "restrict the scenario suite to one fault mode: lossy, silent-partial, congested, delayed, incast or flapping (empty = all)")
	)
	flag.Parse()

	p := expt.Params{Trials: *trials, Seed: *seed, Big: *big, K: *k, ProbesPerPath: *probes, Beta: *beta, Scenario: *scenario}

	type driver struct {
		name string
		fn   func() error
	}
	drivers := []driver{
		{"table1", func() error { _, err := expt.Table1(os.Stdout, p); return err }},
		{"table2", func() error { _, err := expt.Table2(os.Stdout, p); return err }},
		{"table3", func() error { _, err := expt.Table3(os.Stdout, p); return err }},
		{"table4", func() error { _, err := expt.Table4(os.Stdout, p); return err }},
		{"table5", func() error { _, err := expt.Table5(os.Stdout, p); return err }},
		{"fig4", func() error { _, err := expt.Fig4(os.Stdout, p); return err }},
		{"fig5", func() error { _, err := expt.Fig5(os.Stdout, p); return err }},
		{"fig6", func() error { _, err := expt.Fig6(os.Stdout, p); return err }},
		{"scenarios", func() error { _, err := expt.ScenarioSweep(os.Stdout, p); return err }},
	}

	want := map[string]bool{}
	all := *run == "all"
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	known := map[string]bool{}
	for _, d := range drivers {
		known[d.name] = true
	}
	for name := range want {
		if name != "all" && !known[name] {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	ran := 0
	for _, d := range drivers {
		if !all && !want[d.name] {
			continue
		}
		if ran > 0 {
			fmt.Println()
		}
		if err := d.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		ran++
	}
}
