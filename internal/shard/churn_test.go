package shard

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// freshFull builds a throwaway coordinator over the same path set with the
// given down-link set and runs one full construction — the from-scratch
// ground truth a churned coordinator must match bit for bit.
func freshFull(t *testing.T, ps route.PathSet, numLinks int, down []topo.LinkID, opt pmc.Options, shards int) *Result {
	t.Helper()
	c, err := New(ps, numLinks, Options{
		Shards:    shards,
		PMC:       opt,
		TTL:       time.Hour,
		DownLinks: down,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	res, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// churnCoordinatorDifferential drives random link churn through a reusing
// coordinator and checks after every step that the merged selection is
// bit-identical to a from-scratch full recompute over the new topology.
func churnCoordinatorDifferential(t *testing.T, ps route.PathSet, numLinks int, opt pmc.Options, shards, steps int, seed int64) {
	t.Helper()
	c, err := New(ps, numLinks, Options{
		Shards:          shards,
		PMC:             opt,
		TTL:             time.Hour,
		ReuseSelections: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Construct(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	downSet := make(map[topo.LinkID]bool)
	for step := 0; step < steps; step++ {
		var down, up []topo.LinkID
		l := topo.LinkID(rng.Intn(numLinks))
		if downSet[l] {
			up = append(up, l)
			downSet[l] = false
		} else {
			down = append(down, l)
			downSet[l] = true
		}
		if _, err := c.ApplyChurn(down, up); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		res, err := c.Construct()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := freshFull(t, ps, numLinks, c.DownLinks(), opt, shards)
		if !reflect.DeepEqual(res.Selected, want.Selected) {
			t.Fatalf("step %d (down=%v up=%v): churned selection (%d paths) diverges from full recompute (%d paths)",
				step, down, up, len(res.Selected), len(want.Selected))
		}
		if res.DirtyComponents+res.ReusedComponents != c.Components() {
			t.Fatalf("step %d: dirty %d + reused %d != components %d",
				step, res.DirtyComponents, res.ReusedComponents, c.Components())
		}
	}
}

// TestCoordinatorChurnDifferentialFattree runs the randomized churn
// differential on Fattree(8) at beta=1 and beta=2: decomposable topology,
// multiple components, so most churn steps must reuse clean components.
func TestCoordinatorChurnDifferentialFattree(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	churnCoordinatorDifferential(t, ps, f.NumLinks(),
		pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry, Workers: 1}, 3, 8, 11)
	churnCoordinatorDifferential(t, ps, f.NumLinks(),
		pmc.Options{Alpha: 1, Beta: 2, Ablate: pmc.NoSymmetry, Workers: 1}, 2, 4, 12)
}

// TestCoordinatorChurnDifferentialBCube runs the same differential on
// BCube(4,1): a single component, so every churn step dirties everything —
// the degenerate case must still be exactly a full recompute.
func TestCoordinatorChurnDifferentialBCube(t *testing.T) {
	b := topo.MustBCube(4, 1)
	ps := route.NewBCubePaths(b)
	churnCoordinatorDifferential(t, ps, b.NumLinks(),
		pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry, Workers: 1}, 2, 6, 13)
}

// TestCoordinatorChurnReusesCleanComponents pins the perf mechanism: after
// a full cycle, a single-link churn must dispatch only the dirty component
// and reuse every other selection verbatim.
func TestCoordinatorChurnReusesCleanComponents(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	c, err := New(ps, f.NumLinks(), Options{
		Shards:          2,
		PMC:             pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry, Workers: 1},
		TTL:             time.Hour,
		ReuseSelections: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	first, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if first.DirtyComponents != c.Components() || first.ReusedComponents != 0 {
		t.Fatalf("first cycle: dirty=%d reused=%d, want all dirty", first.DirtyComponents, first.ReusedComponents)
	}

	// A second cycle with no churn must not dispatch anything — this is
	// also what makes an unhealthy-pinger-set change free at this layer.
	second, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if second.DirtyComponents != 0 || second.ReusedComponents != c.Components() {
		t.Fatalf("no-churn cycle: dirty=%d reused=%d, want none dirty", second.DirtyComponents, second.ReusedComponents)
	}
	if !reflect.DeepEqual(first.Selected, second.Selected) {
		t.Fatal("no-churn cycle changed the selection")
	}
	if second.CriticalPath != 0 {
		t.Fatalf("no-churn cycle has critical path %v, want 0 (nothing dispatched)", second.CriticalPath)
	}

	// Single-link churn: exactly one component dirty.
	st := c.Status()
	down := st.Components[0].Key
	diff, err := c.ApplyChurn([]topo.LinkID{topo.LinkID(down)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Removed) == 0 {
		t.Fatal("churn on a component key link produced an empty diff")
	}
	third, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if third.DirtyComponents != len(diff.Added) {
		t.Fatalf("churn cycle dispatched %d components, want %d (the diff's Added set)",
			third.DirtyComponents, len(diff.Added))
	}
	if third.ReusedComponents != c.Components()-len(diff.Added) {
		t.Fatalf("churn cycle reused %d components, want %d",
			third.ReusedComponents, c.Components()-len(diff.Added))
	}
	want := freshFull(t, ps, f.NumLinks(), c.DownLinks(), pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry, Workers: 1}, 2)
	if !reflect.DeepEqual(third.Selected, want.Selected) {
		t.Fatal("churned selection diverges from full recompute")
	}
}

// staticPS is a PathSet defined by explicit rows, for split/merge shapes no
// regular topology family produces on a single link change.
type staticPS struct{ rows [][]topo.LinkID }

func (s *staticPS) Len() int { return len(s.rows) }
func (s *staticPS) AppendLinks(i int, buf []topo.LinkID) []topo.LinkID {
	return append(buf, s.rows[i]...)
}
func (s *staticPS) Endpoints(i int) (topo.NodeID, topo.NodeID) { return 0, 1 }

// TestCoordinatorChurnSplitMerge drives a component split (down the bridge
// link) and re-merge (bring it back) through the coordinator at beta=1 and
// beta=2, checking the merged selection is bit-identical to full recompute
// in every state.
func TestCoordinatorChurnSplitMerge(t *testing.T) {
	ps := &staticPS{rows: [][]topo.LinkID{
		{0}, {1}, {0, 1}, {2}, {3}, {2, 3}, {0, 2, 4},
	}}
	const numLinks = 5
	for _, beta := range []int{1, 2} {
		opt := pmc.Options{Alpha: 1, Beta: beta, Ablate: pmc.NoSymmetry, Workers: 1}
		c, err := New(ps, numLinks, Options{
			Shards:          2,
			PMC:             opt,
			TTL:             time.Hour,
			ReuseSelections: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Components(); got != 1 {
			t.Fatalf("beta=%d: %d components, want 1 (bridged)", beta, got)
		}
		if _, err := c.Construct(); err != nil {
			t.Fatal(err)
		}

		diff, err := c.ApplyChurn([]topo.LinkID{4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(diff.Removed) != 1 || len(diff.Added) != 2 {
			t.Fatalf("beta=%d split diff: %d removed, %d added, want 1/2", beta, len(diff.Removed), len(diff.Added))
		}
		res, err := c.Construct()
		if err != nil {
			t.Fatal(err)
		}
		want := freshFull(t, ps, numLinks, []topo.LinkID{4}, opt, 2)
		if !reflect.DeepEqual(res.Selected, want.Selected) {
			t.Fatalf("beta=%d: post-split selection diverges from full recompute", beta)
		}

		diff, err = c.ApplyChurn(nil, []topo.LinkID{4})
		if err != nil {
			t.Fatal(err)
		}
		if len(diff.Removed) != 2 || len(diff.Added) != 1 {
			t.Fatalf("beta=%d merge diff: %d removed, %d added, want 2/1", beta, len(diff.Removed), len(diff.Added))
		}
		res, err = c.Construct()
		if err != nil {
			t.Fatal(err)
		}
		want = freshFull(t, ps, numLinks, nil, opt, 2)
		if !reflect.DeepEqual(res.Selected, want.Selected) {
			t.Fatalf("beta=%d: post-merge selection diverges from full recompute", beta)
		}
		c.Stop()
	}
}

// TestCoordinatorChurnDiffStage: the topology diff is a pipeline stage of
// its own — every effective ApplyChurn lands in the churn_diff histogram
// served at /metrics, while rejected and no-op steps (and a coordinator
// refused at New for a negative initial link) leave it alone. The first
// step to touch a pristine component, even a no-op flap, lands in
// churn_index once; later steps on it do not.
func TestCoordinatorChurnDiffStage(t *testing.T) {
	ps := &staticPS{rows: [][]topo.LinkID{{0}, {1}, {0, 1, 2}}}
	opt := Options{Shards: 1, PMC: pmc.Options{Alpha: 1, Beta: 1, Workers: 1}, TTL: time.Hour}
	bad := opt
	bad.DownLinks = []topo.LinkID{-1}
	if _, err := New(ps, 3, bad); err == nil {
		t.Fatal("New with a negative initial down link: want error")
	}
	c, err := New(ps, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	base, baseIndex := stageChurnDiff.Count(), stageChurnIndex.Count()
	if _, err := c.ApplyChurn([]topo.LinkID{-1}, nil); err == nil {
		t.Fatal("negative down link: want error")
	}
	if _, err := c.ApplyChurn([]topo.LinkID{2}, []topo.LinkID{2}); err != nil {
		t.Fatal(err)
	}
	if got := stageChurnDiff.Count() - base; got != 0 {
		t.Fatalf("rejected and no-op steps observed churn_diff %d times, want 0", got)
	}
	if _, err := c.ApplyChurn([]topo.LinkID{2}, nil); err != nil {
		t.Fatal(err)
	}
	if got := stageChurnDiff.Count() - base; got != 1 {
		t.Fatalf("an effective step observed churn_diff %d times, want 1", got)
	}
	if got := stageChurnIndex.Count() - baseIndex; got != 1 {
		t.Fatalf("two steps on one component observed churn_index %d times, want 1", got)
	}
	var sb strings.Builder
	obs.WriteProm(&sb)
	for _, stage := range []string{"churn_diff", "churn_index"} {
		if !strings.Contains(sb.String(), `detector_stage_duration_seconds_count{stage="`+stage+`"}`) {
			t.Fatalf(`/metrics exposition has no stage=%q series`, stage)
		}
	}
}
