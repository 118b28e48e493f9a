package pmc

import (
	"hash/fnv"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// hashSelection digests a selection as little-endian path indices through
// FNV-1a, giving the tests a compact fingerprint of the full matrix.
func hashSelection(sel []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sel {
		for i := 0; i < 8; i++ {
			b[i] = byte(s >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinnedCase fixes the exact selection the engine must produce for one
// (topology, options) pair. The fingerprints were recorded from the
// pre-CSR, non-incremental engine, so they pin two properties at once:
// cross-version stability (the incremental CSR engine reproduces the
// original greedy decision-for-decision) and cross-run determinism.
type pinnedCase struct {
	label    string
	opt      Options
	wantN    int
	wantHash uint64
}

// table2Combos is the paper's cumulative speedup progression at (2,1).
func table2Combos(nSt, nDe, nLa, nSy int, hSt, hDe, hLa, hSy uint64) []pinnedCase {
	return []pinnedCase{
		{"strawman", Options{Alpha: 2, Beta: 1, Ablate: NoDecompose | NoLazy | NoSymmetry}, nSt, hSt},
		{"decompose", Options{Alpha: 2, Beta: 1, Ablate: NoLazy | NoSymmetry}, nDe, hDe},
		{"lazy", Options{Alpha: 2, Beta: 1, Ablate: NoSymmetry}, nLa, hLa},
		{"symmetry", Options{Alpha: 2, Beta: 1}, nSy, hSy},
	}
}

// TestCrossVariantDeterminism runs the four Table 2 option combinations on
// Fattree(4), Fattree(8) and BCube(4,1) and checks that (a) every variant
// produces a matrix passing Verify, (b) the selection matches the pinned
// pre-incremental fingerprint exactly, and (c) Stats.ScoreEvals for Lazy
// stays strictly below strawman — the guard against the incremental engine
// silently regressing to full rescans.
func TestCrossVariantDeterminism(t *testing.T) {
	type topoCase struct {
		name     string
		ps       route.PathSet
		numLinks int
		links    []topo.LinkID
		cases    []pinnedCase
	}
	f4 := topo.MustFattree(4)
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	var b41Links []topo.LinkID
	for _, l := range b41.Links {
		b41Links = append(b41Links, l.ID)
	}
	tests := []topoCase{
		{
			"Fattree4", route.NewFattreePaths(f4), f4.NumLinks(), f4.SwitchLinks(),
			table2Combos(24, 24, 24, 24,
				0xcef54432fd0cf9a5, 0xcef54432fd0cf9a5, 0x05482fb89b5bd825, 0x8c08b2e3670031a5),
		},
		{
			"Fattree8", route.NewFattreePaths(f8), f8.NumLinks(), f8.SwitchLinks(),
			table2Combos(224, 224, 224, 240,
				0xfdf65a058e859747, 0x6d10b97cd652b035, 0x527da8262b65b8c5, 0x9ec67bc163cdc6e5),
		},
		{
			"BCube41", route.NewBCubePaths(b41), b41.NumLinks(), b41Links,
			table2Combos(22, 22, 22, 20,
				0xf54e5e51cd6a6ec5, 0xf54e5e51cd6a6ec5, 0xedc0ad7cc1cc073b, 0x089772bc0ae75573),
		},
	}
	for _, tc := range tests {
		evals := make(map[string]int64)
		for _, c := range tc.cases {
			res, err := Construct(tc.ps, tc.numLinks, c.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, c.label, err)
			}
			if len(res.Selected) != c.wantN {
				t.Errorf("%s/%s: selected %d paths, pinned %d", tc.name, c.label, len(res.Selected), c.wantN)
			}
			if h := hashSelection(res.Selected); h != c.wantHash {
				t.Errorf("%s/%s: selection hash %#016x, pinned %#016x — the greedy's decisions changed",
					tc.name, c.label, h, c.wantHash)
			}
			probes := route.NewProbes(tc.ps, res.Selected, tc.numLinks)
			v := Verify(probes, tc.links, false)
			if v.MinCoverage < 2 {
				t.Errorf("%s/%s: min coverage %d, want >= 2", tc.name, c.label, v.MinCoverage)
			}
			if !v.Identifiable1 {
				t.Errorf("%s/%s: matrix not 1-identifiable: %v", tc.name, c.label, v.Collisions)
			}
			evals[c.label] = res.Stats.ScoreEvals
		}
		if evals["lazy"] >= evals["strawman"] {
			t.Errorf("%s: lazy used %d score evals, strawman %d — lazy must evaluate strictly fewer",
				tc.name, evals["lazy"], evals["strawman"])
		}
	}
}

// TestBetaTwoPinnedSelections pins the beta == 2 engine path. The
// fingerprints were recorded from the dirty-everything engine (every cached
// score rescanned after each selection, the pre-exact-tracking behavior),
// so they prove the exact SplitAffected incremental path that replaced it
// reproduces that engine's selections bit for bit — on Fattree(4),
// Fattree(8) and BCube(4,1), across the lazy, strawman and symmetry greedy
// policies. The evals guard at the bottom is the companion regression
// check: with exact dirty tracking, lazy must evaluate strictly fewer
// scores than the rescanning strawman at beta = 2 as well.
func TestBetaTwoPinnedSelections(t *testing.T) {
	f4 := topo.MustFattree(4)
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	cases := []struct {
		name     string
		ps       route.PathSet
		numLinks int
		opt      Options
		wantN    int
		wantHash uint64
	}{
		{"Fattree4/lazy", route.NewFattreePaths(f4), f4.NumLinks(),
			Options{Alpha: 1, Beta: 2, Ablate: NoSymmetry}, 36, 0xb9d6fc211f489025},
		{"Fattree4/strawman", route.NewFattreePaths(f4), f4.NumLinks(),
			Options{Alpha: 1, Beta: 2, Ablate: NoDecompose | NoLazy | NoSymmetry}, 26, 0x5073a9e61652f167},
		{"Fattree8/lazy", route.NewFattreePaths(f8), f8.NumLinks(),
			Options{Alpha: 1, Beta: 2, Ablate: NoSymmetry}, 332, 0xfa104b2db949eb75},
		{"Fattree8/strawman", route.NewFattreePaths(f8), f8.NumLinks(),
			Options{Alpha: 1, Beta: 2, Ablate: NoLazy | NoSymmetry}, 184, 0xb665975a0e70ce75},
		{"Fattree8/symmetry", route.NewFattreePaths(f8), f8.NumLinks(),
			Options{Alpha: 1, Beta: 2}, 304, 0x18cbb10da39d9b65},
		{"BCube41/lazy", route.NewBCubePaths(b41), b41.NumLinks(),
			Options{Alpha: 1, Beta: 2, Ablate: NoSymmetry}, 39, 0x14723add889e1e8a},
		{"BCube41/strawman", route.NewBCubePaths(b41), b41.NumLinks(),
			Options{Alpha: 1, Beta: 2, Ablate: NoDecompose | NoLazy | NoSymmetry}, 26, 0x0188f84219f46a60},
	}
	evals := make(map[string]int64)
	for _, c := range cases {
		res, err := Construct(c.ps, c.numLinks, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Selected) != c.wantN {
			t.Errorf("%s: selected %d paths, pinned %d", c.name, len(res.Selected), c.wantN)
		}
		if h := hashSelection(res.Selected); h != c.wantHash {
			t.Errorf("%s: selection hash %#016x, pinned %#016x", c.name, h, c.wantHash)
		}
		evals[c.name] = res.Stats.ScoreEvals
	}
	if evals["Fattree8/lazy"] >= evals["Fattree8/strawman"] {
		t.Errorf("beta=2 lazy used %d score evals, strawman %d — lazy must evaluate strictly fewer",
			evals["Fattree8/lazy"], evals["Fattree8/strawman"])
	}
}
