package pll_test

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// resultsEqual compares everything the diagnoser consumes: the verdict list
// bit-for-bit (link, float rate, explained count) plus both path counters.
// Elapsed is wall-clock and excluded.
func resultsEqual(a, b *pll.Result) bool {
	if a.LossyPaths != b.LossyPaths || a.UnexplainedPaths != b.UnexplainedPaths ||
		len(a.Bad) != len(b.Bad) {
		return false
	}
	for i := range a.Bad {
		if a.Bad[i] != b.Bad[i] {
			return false
		}
	}
	return true
}

// mustMatchOracle localizes one window both ways — the engine over the
// window's exceptions, pll.Localize over its observations — and requires
// bit-identical results.
func mustMatchOracle(t *testing.T, e *pll.Engine, obs []pll.Observation, cfg pll.Config, what string) *pll.Result {
	t.Helper()
	want, err := pll.Localize(e.Matrix(), obs, cfg)
	if err != nil {
		t.Fatalf("%s: Localize: %v", what, err)
	}
	w, err := e.Sparsify(obs, cfg)
	if err != nil {
		t.Fatalf("%s: Sparsify: %v", what, err)
	}
	got, err := e.Localize(w, cfg)
	if err != nil {
		t.Fatalf("%s: Engine.Localize: %v", what, err)
	}
	if !resultsEqual(got, want) {
		t.Fatalf("%s: engine diverged from the full recompute\n got %+v (bad %+v)\nwant %+v (bad %+v)",
			what, got, got.Bad, want, want.Bad)
	}
	return got
}

// driveDifferential runs a randomized window sequence through the engine
// and the oracle. The sequence churns hard: paths appear, change counters
// and vanish; classification thresholds and the unhealthy set shift
// between windows; observation slices are built in Go map order, so the
// two sides see a fresh permutation every window. Every few windows the
// counters banked so far are localized as one pooled window — the
// diagnoser's slow pass, whose multiset is not any single window's.
func driveDifferential(t *testing.T, p *route.Probes, seed int64, windows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := pll.NewEngine(p)
	cur := make(map[int]pll.Observation)
	pooled := make(map[int]pll.Observation)
	localizedSomething := false

	for w := 0; w < windows; w++ {
		muts := 1 + rng.Intn(p.NumPaths()/2+1)
		for i := 0; i < muts; i++ {
			path := rng.Intn(p.NumPaths())
			switch rng.Intn(8) {
			case 0: // pinger went quiet
				delete(cur, path)
			case 1: // degenerate report: Sent == 0 must equal absence
				cur[path] = pll.Observation{Path: path}
			default:
				o := pll.Observation{Path: path, Sent: 20 + rng.Intn(200)}
				switch rng.Intn(3) {
				case 0: // clean
				case 1: // marginal: a few losses, may sit under MinLoss
					o.Lost = rng.Intn(3)
				default: // clearly lossy
					o.Lost = 1 + rng.Intn(o.Sent)
				}
				cur[path] = o
			}
		}

		cfg := pll.DefaultConfig()
		if w%5 == 3 {
			cfg.MinLoss = 2 + rng.Intn(3)
		}
		if w%7 == 4 {
			cfg.BaselineRate = 1e-3
		}
		if w%3 == 1 { // unhealthy endpoints churn between windows
			cfg.Unhealthy = map[topo.NodeID]bool{}
			for i := 0; i < 1+rng.Intn(3); i++ {
				path := rng.Intn(p.NumPaths())
				if rng.Intn(2) == 0 {
					cfg.Unhealthy[p.Src[path]] = true
				} else {
					cfg.Unhealthy[p.Dst[path]] = true
				}
			}
		}

		obs := make([]pll.Observation, 0, len(cur)+2)
		for _, o := range cur { // map order: a fresh permutation per window
			obs = append(obs, o)
			b := pooled[o.Path]
			pooled[o.Path] = pll.Observation{Path: o.Path, Sent: b.Sent + o.Sent, Lost: b.Lost + o.Lost}
		}
		// Unknown rows are dropped by both sides, never an error.
		obs = append(obs, pll.Observation{Path: -1, Sent: 9, Lost: 9},
			pll.Observation{Path: p.NumPaths() + 3, Sent: 9, Lost: 9})
		res := mustMatchOracle(t, e, obs, cfg, "window")
		localizedSomething = localizedSomething || len(res.Bad) > 0

		if w%6 == 5 {
			slow := make([]pll.Observation, 0, len(pooled))
			for _, o := range pooled {
				slow = append(slow, o)
			}
			mustMatchOracle(t, e, slow, pll.DefaultConfig(), "slow pass")
			pooled = make(map[int]pll.Observation)
		}
	}
	if !localizedSomething {
		t.Fatal("no window localized anything — the differential is vacuous")
	}

	// The two degenerate windows: nobody reported, and everybody reported
	// clean (no exceptions at all).
	mustMatchOracle(t, e, nil, pll.DefaultConfig(), "all rows absent")
	clean := make([]pll.Observation, p.NumPaths())
	for i := range clean {
		clean[i] = pll.Observation{Path: i, Sent: 100}
	}
	mustMatchOracle(t, e, clean, pll.DefaultConfig(), "all rows clean")
	if w, _ := e.Sparsify(clean, pll.DefaultConfig()); len(w.Absent) != 0 || len(w.Lossy) != 0 {
		t.Fatalf("a clean full window has exceptions: %+v", w)
	}
}

// TestEngineDifferentialSmall runs the window churn on a hand matrix small
// enough that every structural corner (shared links, disjoint components,
// single-link paths) is hit many times over.
func TestEngineDifferentialSmall(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1}, {1, 2}, {0, 2}, {3}, {3, 4}, {4}, {5, 6, 7}, {7},
	}, 8)
	for seed := int64(1); seed <= 6; seed++ {
		driveDifferential(t, p, seed, 60)
	}
}

// TestEngineDifferentialServed runs the churn on real served matrices —
// the pmc-selected probe sets for Fattree(8) and BCube(4,1), the acceptance
// topologies — so the pin covers production-shaped link sharing.
func TestEngineDifferentialServed(t *testing.T) {
	if testing.Short() {
		t.Skip("served-matrix differential is not -short")
	}
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	cases := []struct {
		name     string
		ps       route.PathSet
		numLinks int
	}{
		{"Fattree8", route.NewFattreePaths(f8), f8.NumLinks()},
		{"BCube41", route.NewBCubePaths(b41), b41.NumLinks()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := pmc.Construct(c.ps, c.numLinks, pmc.Options{
				Alpha: 1, Beta: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := route.NewProbes(c.ps, res.Selected, c.numLinks)
			driveDifferential(t, p, 42, 25)
		})
	}
}

// TestEngineWindowContract pins the two boundaries: Sparsify refuses a
// window that observes a row twice, and Localize refuses a hand-built
// Window that breaks the sparse form, as ErrBadWindow.
func TestEngineWindowContract(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {1}, {}, {0}}, 2)
	e := pll.NewEngine(p)
	cfg := pll.DefaultConfig()

	if _, err := e.Sparsify([]pll.Observation{
		{Path: 0, Sent: 100, Lost: 50}, {Path: 0, Sent: 100},
	}, cfg); err == nil {
		t.Fatal("a row observed twice was accepted")
	}
	// A zero-sent report is absence, not an observation: it may repeat.
	w, err := e.Sparsify([]pll.Observation{
		{Path: 1}, {Path: 1, Sent: 100, Lost: 100}, {Path: 2, Sent: 100, Lost: 100},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Lossy) != 1 || w.Lossy[0].Path != 1 {
		t.Fatalf("lossy = %+v, want row 1 only (row 2 crosses no link)", w.Lossy)
	}
	if len(w.Absent) != 2 || w.Absent[0] != 0 || w.Absent[1] != 3 {
		t.Fatalf("absent = %v, want [0 3]", w.Absent)
	}

	lossy := func(rows ...int) []pll.Observation {
		out := make([]pll.Observation, len(rows))
		for i, r := range rows {
			out[i] = pll.Observation{Path: r, Sent: 10, Lost: 5}
		}
		return out
	}
	bad := map[string]pll.Window{
		"absent and lossy":    {Absent: []int32{0, 1}, Lossy: lossy(1)},
		"absent unsorted":     {Absent: []int32{1, 0}, Lossy: lossy(3)},
		"absent repeated":     {Absent: []int32{1, 1}, Lossy: lossy(3)},
		"absent out of range": {Absent: []int32{4}, Lossy: lossy(3)},
		"absent negative":     {Absent: []int32{-1}, Lossy: lossy(3)},
		"lossy unsorted":      {Lossy: lossy(1, 0)},
		"lossy out of range":  {Lossy: lossy(9)},
		"lossy linkless":      {Lossy: lossy(2)},
		"lost exceeds sent":   {Lossy: []pll.Observation{{Path: 0, Sent: 3, Lost: 4}}},
		"nothing sent":        {Lossy: []pll.Observation{{Path: 0}}},
	}
	for name, w := range bad {
		if _, err := e.Localize(w, cfg); !errors.Is(err, pll.ErrBadWindow) {
			t.Errorf("%s: err = %v, want ErrBadWindow", name, err)
		}
	}
	if _, err := e.Localize(pll.Window{}, pll.Config{}); err == nil || errors.Is(err, pll.ErrBadWindow) {
		t.Errorf("zero hit ratio: err = %v, want a config error", err)
	}
}
