package pmc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// liveLinks is links without the down one.
func liveLinks(links []topo.LinkID, down topo.LinkID) []topo.LinkID {
	out := make([]topo.LinkID, 0, len(links))
	for _, l := range links {
		if l != down {
			out = append(out, l)
		}
	}
	return out
}

// TestMaskedComponentMeetsContract: a component the down-link mask has cut
// into has lost orbit images and its automorphism. Before the completion
// pass existed this panicked inside a worker goroutine ("orbit image 197
// leaves its component" on Fattree(4)); now the component is repaired from
// its pristine parent's selection, and the contract holds for every link
// that can go down.
func TestMaskedComponentMeetsContract(t *testing.T) {
	for _, c := range []struct {
		k, alpha, beta int
		sample         int // seeded sample of switch links; 0 = every one
	}{
		{4, 3, 1, 0},
		{8, 3, 1, 24},
		{6, 1, 2, 24},
	} {
		f := topo.MustFattree(c.k)
		ps := route.NewFattreePaths(f)
		csr := route.MaterializeCSR(ps)
		opt := Options{Alpha: c.alpha, Beta: c.beta}
		links := append([]topo.LinkID(nil), f.SwitchLinks()...)
		if c.sample > 0 {
			rng := rand.New(rand.NewSource(int64(c.k)))
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			links = links[:c.sample]
		}
		for _, down := range links {
			comps := route.DecomposeMasked(csr, f.NumLinks(), []topo.LinkID{down})
			res, err := ConstructComponents(ps, csr, comps, f.NumLinks(), opt)
			if err != nil {
				t.Fatalf("Fattree(%d) link %d down: %v", c.k, down, err)
			}
			probes := route.NewProbes(ps, res.Selected, f.NumLinks())
			for _, row := range probes.PathLinks {
				for _, l := range row {
					if l == down {
						t.Fatalf("Fattree(%d) link %d down: a selected path traverses it", c.k, down)
					}
				}
			}
			v := Verify(probes, liveLinks(f.SwitchLinks(), down), c.beta >= 2)
			if v.MinCoverage < c.alpha || !v.Identifiable(c.beta) {
				t.Fatalf("Fattree(%d) (%d,%d) link %d down: coverage %d, 1-ident %v, 2-ident %v: %v",
					c.k, c.alpha, c.beta, down, v.MinCoverage, v.Identifiable1, v.Identifiable2, v.Collisions)
			}
			if !res.Stats.CoverageMet || !res.Stats.IdentMet {
				t.Fatalf("Fattree(%d) link %d down: stats report unmet targets: %+v", c.k, down, res.Stats)
			}
			again, err := ConstructComponents(ps, csr, comps, f.NumLinks(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Selected, again.Selected) {
				t.Fatalf("Fattree(%d) link %d down: selection is not a function of the content", c.k, down)
			}
		}
	}
}

// TestCompletionIsNoOpOnPristine: on an untouched matrix the orbit pass
// meets the targets alone — the completion pass offers no row, so the
// candidates are exactly the orbit representatives of the one class the
// components form, solved once.
func TestCompletionIsNoOpOnPristine(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	res, err := Construct(ps, f.NumLinks(), Options{Alpha: 3, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	comps := route.DecomposeCSR(route.MaterializeCSR(ps), f.NumLinks())
	reps := len(ps.AppendRepresentatives(comps[0].Paths, nil))
	if res.Stats.Classes != 1 {
		t.Fatalf("%d components solved as %d classes, want 1", len(comps), res.Stats.Classes)
	}
	if res.Stats.Candidates != reps {
		t.Fatalf("greedy was offered %d rows, want the %d orbit representatives of one component only", res.Stats.Candidates, reps)
	}
}

// TestForeignComponentIsAnError: a component whose paths use links it does
// not list — its own request's other component's, or nobody's — is
// reported to the caller; it used to panic a worker goroutine.
func TestForeignComponentIsAnError(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := route.DecomposeCSR(csr, f.NumLinks())
	if len(comps) < 2 {
		t.Fatalf("want >= 2 components, got %d", len(comps))
	}
	for name, bad := range map[string][]route.Component{
		"unlisted link":           {{Links: comps[0].Links[1:], Paths: comps[0].Paths}},
		"other component's paths": {{Links: comps[0].Links, Paths: comps[1].Paths}, {Links: comps[1].Links, Paths: comps[0].Paths}},
	} {
		_, err := ConstructComponents(ps, csr, bad, f.NumLinks(), Options{Alpha: 1, Beta: 1})
		if err == nil || !strings.Contains(err.Error(), "leaves its component") {
			t.Errorf("%s: err = %v, want a leaves-its-component error", name, err)
		}
	}
}
