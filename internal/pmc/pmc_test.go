package pmc

import (
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// fig3PathSet reproduces the routing matrix of paper Fig. 3:
// p1={l1,l2}, p2={l1,l3}, p3={l3}.
func fig3PathSet() *route.SlicePathSet {
	return route.NewSlicePathSet([][]topo.LinkID{
		{0, 1},
		{0, 2},
		{2},
	}, nil)
}

func TestConstructFig3Example(t *testing.T) {
	ps := fig3PathSet()
	res, err := Construct(ps, 3, Options{Alpha: 1, Beta: 1, Ablate: NoDecompose | NoLazy | NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	// p1 and p2 alone give 1-coverage and 1-identifiability, exactly as the
	// paper's example argues.
	if len(res.Selected) != 2 {
		t.Fatalf("selected %v, want 2 paths", res.Selected)
	}
	if !res.Stats.CoverageMet || !res.Stats.IdentMet {
		t.Fatalf("stats report unmet targets: %+v", res.Stats)
	}
	probes := route.NewProbes(ps, res.Selected, 3)
	v := Verify(probes, []topo.LinkID{0, 1, 2}, true)
	if v.MinCoverage < 1 || !v.Identifiable1 {
		t.Fatalf("verify failed: %+v", v)
	}
	// Fig. 3's point: this matrix is 1- but not 2-identifiable.
	if v.Identifiable2 {
		t.Fatal("two paths over three links cannot be 2-identifiable")
	}
}

func TestConstructInvalidOptions(t *testing.T) {
	ps := fig3PathSet()
	if _, err := Construct(ps, 3, Options{}); err == nil {
		t.Error("alpha=beta=0 accepted")
	}
	if _, err := Construct(ps, 3, Options{Alpha: 1, Beta: -1}); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := Construct(ps, 3, Options{Alpha: 1, Beta: 4}); err == nil {
		t.Error("beta above MaxBeta accepted")
	}
	if _, err := Construct(ps, 3, Options{Alpha: 1, Beta: 2, MaxElements: 2}); err == nil {
		t.Error("MaxElements cap not enforced")
	}
}

// allOptionCombos enumerates the 2^3 ablation combinations.
func allOptionCombos(alpha, beta int) []Options {
	var out []Options
	for ab := Ablation(0); ab <= NoDecompose|NoLazy|NoSymmetry; ab++ {
		out = append(out, Options{Alpha: alpha, Beta: beta, Ablate: ab})
	}
	return out
}

// TestFattree4AllCombosVerified: every speedup combination must produce a
// verified (3,1) matrix on the paper's testbed topology — the configuration
// used in §6.3 ("we use a probe matrix with 1-identifiability and
// 3-coverage, since it is impossible to achieve 2-identifiability in a
// 4-ary Fattree").
func TestFattree4AllCombosVerified(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	links := f.SwitchLinks()
	for _, opt := range allOptionCombos(3, 1) {
		res, err := Construct(ps, f.NumLinks(), opt)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		probes := route.NewProbes(ps, res.Selected, f.NumLinks())
		v := Verify(probes, links, false)
		if v.MinCoverage < 3 {
			t.Errorf("opts %+v: min coverage %d, want >= 3", opt, v.MinCoverage)
		}
		if !v.Identifiable1 {
			t.Errorf("opts %+v: matrix not 1-identifiable: %v", opt, v.Collisions)
		}
		if !res.Stats.CoverageMet || !res.Stats.IdentMet {
			t.Errorf("opts %+v: stats claim unmet targets: %+v", opt, res.Stats)
		}
	}
}

// TestFattree4TwoIdentImpossible verifies the paper's claim that a 4-ary
// Fattree cannot achieve 2-identifiability: PMC must exhaust candidates and
// report the target unmet, and the verifier must agree.
func TestFattree4TwoIdentImpossible(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	res, err := Construct(ps, f.NumLinks(), Options{Alpha: 1, Beta: 2, Ablate: NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IdentMet {
		t.Fatal("PMC claims 2-identifiability on a 4-ary Fattree")
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	v := Verify(probes, f.SwitchLinks(), true)
	if v.Identifiable2 {
		t.Fatal("verifier claims 2-identifiability on a 4-ary Fattree")
	}
}

// TestFattree8OneIdent: (1,1) on Fattree(8). The paper proves k³/5 is the
// minimum path count for 1-coverage + 1-identifiability (Appendix B) and
// reports the greedy lands slightly above it (Fattree(64): 61,440 vs the
// 52,428 bound, a 1.17x ratio). Accept anything within 1.6x.
func TestFattree8OneIdent(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	lower := f.K * f.K * f.K / 5 // 102
	for _, opt := range []Options{
		{Alpha: 1, Beta: 1, Ablate: NoSymmetry},
		{Alpha: 1, Beta: 1},
	} {
		res, err := Construct(ps, f.NumLinks(), opt)
		if err != nil {
			t.Fatal(err)
		}
		probes := route.NewProbes(ps, res.Selected, f.NumLinks())
		v := Verify(probes, f.SwitchLinks(), false)
		if v.MinCoverage < 1 || !v.Identifiable1 {
			t.Fatalf("opts %+v: verify failed: min cov %d, collisions %v", opt, v.MinCoverage, v.Collisions)
		}
		if len(res.Selected) < lower {
			t.Errorf("opts %+v: %d paths below the k³/5 = %d lower bound — selection is broken or the bound proof is violated",
				opt, len(res.Selected), lower)
		}
		if len(res.Selected) > lower*8/5 {
			t.Errorf("opts %+v: %d paths, more than 1.6x the k³/5 = %d bound", opt, len(res.Selected), lower)
		}
	}
}

// TestDeterminism: identical options must yield identical selections.
func TestDeterminism(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	opt := Options{Alpha: 2, Beta: 1, Ablate: NoSymmetry, Workers: 4}
	a, err := Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != len(b.Selected) {
		t.Fatalf("non-deterministic: %d vs %d paths", len(a.Selected), len(b.Selected))
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a.Selected[i], b.Selected[i])
		}
	}
}

// TestLazyMatchesStrawmanProperties: lazy and strawman may pick different
// paths (scores are not perfectly monotone), but both must meet the targets
// with comparable path counts on Fattree(8).
func TestLazyMatchesStrawmanProperties(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	straw, err := Construct(ps, f.NumLinks(), Options{Alpha: 2, Beta: 1, Ablate: NoLazy | NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Construct(ps, f.NumLinks(), Options{Alpha: 2, Beta: 1, Ablate: NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{straw, lazy} {
		probes := route.NewProbes(ps, res.Selected, f.NumLinks())
		v := Verify(probes, f.SwitchLinks(), false)
		if v.MinCoverage < 2 || !v.Identifiable1 {
			t.Fatalf("verify failed: %+v", v)
		}
	}
	ratio := float64(len(lazy.Selected)) / float64(len(straw.Selected))
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("lazy selected %d vs strawman %d (ratio %.2f), want within 25%%",
			len(lazy.Selected), len(straw.Selected), ratio)
	}
	if lazy.Stats.ScoreEvals >= straw.Stats.ScoreEvals {
		t.Errorf("lazy used %d score evals, strawman %d — lazy should evaluate fewer",
			lazy.Stats.ScoreEvals, straw.Stats.ScoreEvals)
	}
}

// TestBetaTwoOnFattree8: (1,2) must be achievable on an 8-ary Fattree and
// pass the explicit pairwise verifier.
func TestBetaTwoOnFattree8(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	res, err := Construct(ps, f.NumLinks(), Options{Alpha: 1, Beta: 2, Ablate: NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.IdentMet {
		t.Fatalf("2-identifiability not met on Fattree(8): %+v", res.Stats)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	v := Verify(probes, f.SwitchLinks(), true)
	if !v.Identifiable2 {
		t.Fatalf("verifier rejects claimed 2-identifiability: %v", v.Collisions)
	}
}

// TestCrossComponentIdentifiability validates the §6.4 argument for why
// decomposed construction still identifies failures spanning components:
// every pair-signature collision in a (3,1) Fattree(4) matrix must involve
// two links of the SAME component — cross-component pairs are always
// separable because each component's share of the union recovers the
// per-link signature.
func TestCrossComponentIdentifiability(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	res, err := Construct(ps, f.NumLinks(), Options{Alpha: 3, Beta: 1, Ablate: NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	comps := route.DecomposeCSR(route.MaterializeCSR(ps), f.NumLinks())
	compOf := make(map[topo.LinkID]int)
	for ci, c := range comps {
		for _, l := range c.Links {
			compOf[l] = ci
		}
	}
	links := f.SwitchLinks()
	for i := 0; i < len(links); i++ {
		for j := i + 1; j < len(links); j++ {
			if compOf[links[i]] == compOf[links[j]] {
				continue
			}
			a := probes.PathsThrough(links[i])
			b := probes.PathsThrough(links[j])
			// The union of a cross-component pair must differ from every
			// single-link signature: it contains paths of two components
			// while any single link's paths are within one.
			u := sigUnion(a, b)
			for _, l := range links {
				if sigString(probes.PathsThrough(l)) == sigString(u) {
					t.Fatalf("cross-component pair {%d,%d} collides with link %d", links[i], links[j], l)
				}
			}
		}
	}
}

// TestVL2Construction exercises all speedups on a small VL2.
func TestVL2Construction(t *testing.T) {
	v := topo.MustVL2(8, 4, 1)
	ps := route.NewVL2Paths(v)
	for _, opt := range allOptionCombos(1, 1) {
		res, err := Construct(ps, v.NumLinks(), opt)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		probes := route.NewProbes(ps, res.Selected, v.NumLinks())
		vr := Verify(probes, v.SwitchLinks(), false)
		if vr.MinCoverage < 1 || !vr.Identifiable1 {
			t.Errorf("opts %+v: verify failed: cov %d, %v", opt, vr.MinCoverage, vr.Collisions)
		}
	}
}

// TestBCubeConstruction exercises all speedups on BCube(4,1). BCube links
// include server links (servers are switches there), so verification runs
// over every link.
func TestBCubeConstruction(t *testing.T) {
	b := topo.MustBCube(4, 1)
	ps := route.NewBCubePaths(b)
	var all []topo.LinkID
	for _, l := range b.Links {
		all = append(all, l.ID)
	}
	for _, opt := range allOptionCombos(1, 1) {
		res, err := Construct(ps, b.NumLinks(), opt)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		probes := route.NewProbes(ps, res.Selected, b.NumLinks())
		vr := Verify(probes, all, false)
		if vr.MinCoverage < 1 || !vr.Identifiable1 {
			t.Errorf("opts %+v: verify failed: cov %d, %v", opt, vr.MinCoverage, vr.Collisions)
		}
	}
}

// TestSymmetrySelectsFewerCandidates: with symmetry on, the scored
// candidate pool must shrink by roughly the orbit size.
func TestSymmetrySelectsFewerCandidates(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	plain, err := Construct(ps, f.NumLinks(), Options{Alpha: 1, Beta: 1, Ablate: NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Construct(ps, f.NumLinks(), Options{Alpha: 1, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Stats.Candidates*f.K != plain.Stats.Candidates {
		t.Errorf("symmetry candidates %d x k should equal plain %d", sym.Stats.Candidates, plain.Stats.Candidates)
	}
	if sym.Stats.ScoreEvals >= plain.Stats.ScoreEvals {
		t.Errorf("symmetry evals %d >= plain %d", sym.Stats.ScoreEvals, plain.Stats.ScoreEvals)
	}
}

// TestAlphaOnlyCoverage: (3,0) pure-coverage matrices.
func TestAlphaOnlyCoverage(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	res, err := Construct(ps, f.NumLinks(), Options{Alpha: 3, Beta: 0, Ablate: NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())
	v := Verify(probes, f.SwitchLinks(), false)
	if v.MinCoverage < 3 {
		t.Fatalf("min coverage %d, want >= 3", v.MinCoverage)
	}
}

func BenchmarkConstructFattree8Lazy(b *testing.B) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := Options{Alpha: 2, Beta: 1, Ablate: NoSymmetry}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Construct(ps, f.NumLinks(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructFattree8Symmetry(b *testing.B) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := Options{Alpha: 2, Beta: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Construct(ps, f.NumLinks(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvennessTermSpreadsCoverage isolates the Σw term of the score
// (Eq. 1): with it, probe paths spread across links; without it the greedy
// ignores how piled-up coverage already is. The paper reports a max-min
// coverage gap of 188 on Fattree(64) without evenness (§4.2).
func TestEvennessTermSpreadsCoverage(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	gapOf := func(noEvenness bool) int {
		res, err := Construct(ps, f.NumLinks(), Options{
			Alpha: 2, Beta: 1, Ablate: NoSymmetry, NoEvenness: noEvenness,
		})
		if err != nil {
			t.Fatal(err)
		}
		probes := route.NewProbes(ps, res.Selected, f.NumLinks())
		v := Verify(probes, f.SwitchLinks(), false)
		if v.MinCoverage < 2 || !v.Identifiable1 {
			t.Fatalf("noEvenness=%v: targets unmet: %+v", noEvenness, v)
		}
		return v.MaxCoverage - v.MinCoverage
	}
	with := gapOf(false)
	without := gapOf(true)
	if without < with {
		t.Errorf("evenness ablation inverted: gap with term %d, without %d", with, without)
	}
}
