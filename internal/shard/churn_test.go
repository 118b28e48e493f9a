package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// churnCoordinatorDifferential drives random link churn through a
// coordinator and checks after every step that the merged selection is
// bit-identical to a from-scratch full recompute over the new topology.
func churnCoordinatorDifferential(t *testing.T, ps route.PathSet, numLinks int, opt pmc.Options, shards, steps int, seed int64) {
	t.Helper()
	c, err := New(ps, numLinks, Options{
		Shards: shards,
		PMC:    opt,
		TTL:    time.Hour,
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
// a full cycle, a single-link churn must answer only the dirty component —
// by a repair in the coordinator — and reuse every other selection
// verbatim.
func TestCoordinatorChurnReusesCleanComponents(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	c, err := New(ps, f.NumLinks(), Options{
		Shards: 2,
		PMC:    pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry, Workers: 1},
		TTL:    time.Hour,
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
		t.Fatalf("churn cycle answered %d components afresh, want %d (the diff's Added set)",
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
			Shards: 2,
			PMC:    opt,
			TTL:    time.Hour,
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

// checkFlapPairs boots a coordinator over two counting in-process shards,
// runs its first cycle, then flaps each of links down and back up, one at
// a time, with a cycle after every step. No shard sees a construct after
// the first cycle: a down-flap is repaired in the coordinator from the
// stored pristine selection, an up-flap is a lookup. Every cycle equals a
// from-scratch boot with the same links down (freshFull), and every
// up-flap restores the first cycle's selection exactly.
func checkFlapPairs(t *testing.T, ps route.PathSet, numLinks int, opt pmc.Options, links []topo.LinkID) {
	t.Helper()
	if len(links) <= 64 {
		t.Fatalf("%d flap pairs; the check wants more than 64", len(links))
	}
	counters := make([]*countingClient, 2)
	clients := make([]ShardClient, len(counters))
	for i := range counters {
		counters[i] = &countingClient{Shard: NewInProcess(i, ps, numLinks)}
		clients[i] = counters[i]
	}
	c, err := New(ps, numLinks, Options{Clients: clients, PMC: opt, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	first, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	constructs := func() (n int64) {
		for _, cc := range counters {
			n += cc.constructs.Load()
		}
		return n
	}
	booted := constructs()
	if want := freshFull(t, ps, numLinks, nil, opt, 2); !reflect.DeepEqual(first.Selected, want.Selected) {
		t.Fatal("the first cycle diverges from a fresh boot")
	}
	for i, l := range links {
		for _, down := range []bool{true, false} {
			var diff route.Diff
			if down {
				diff, err = c.ApplyChurn([]topo.LinkID{l}, nil)
			} else {
				diff, err = c.ApplyChurn(nil, []topo.LinkID{l})
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Construct()
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Classes != 0 || res.CriticalPath != 0 {
				t.Fatalf("flap %d (link %d, down %v): %d classes solved, critical path %v; want none dispatched",
					i, l, down, res.Stats.Classes, res.CriticalPath)
			}
			if down && res.Stats.Repaired != len(diff.Added) {
				t.Fatalf("down-flap %d (link %d): %d of %d added components repaired", i, l, res.Stats.Repaired, len(diff.Added))
			}
			if !down && !reflect.DeepEqual(res.Selected, first.Selected) {
				t.Fatalf("up-flap %d (link %d) does not restore the first cycle's selection", i, l)
			}
			if want := freshFull(t, ps, numLinks, c.DownLinks(), opt, 2); !reflect.DeepEqual(res.Selected, want.Selected) {
				t.Fatalf("flap %d (link %d, down %v) diverges from a fresh boot", i, l, down)
			}
		}
	}
	if n := constructs() - booted; n != 0 {
		t.Fatalf("the shards saw %d constructs after the first cycle, want 0", n)
	}
}

// TestCoordinatorFlapBack flaps 72 switch links of Fattree(8), each down
// and back up, through a coordinator whose store the first cycle filled.
func TestCoordinatorFlapBack(t *testing.T) {
	f := topo.MustFattree(8)
	checkFlapPairs(t, route.NewFattreePaths(f), f.NumLinks(),
		pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry, Workers: 1}, f.SwitchLinks()[:72])
}

// TestCoordinatorKeepsPristineThroughLongChurn flaps every link of one
// Fattree(10) component in turn — more than the 64 classes a bounded
// cache once held — and every up-flap still finds the pristine selection.
func TestCoordinatorKeepsPristineThroughLongChurn(t *testing.T) {
	f := topo.MustFattree(10)
	ps := route.NewFattreePaths(f)
	comp := route.MaterializeCSR(ps).Pristine(f.NumLinks()).Comps[0]
	checkFlapPairs(t, ps, f.NumLinks(), pmc.Options{Alpha: 1, Beta: 1}, comp.Links)
}

// TestBootWithDownLinksDispatchesParentsOnce boots a coordinator with a
// link already down: the first cycle sends every pristine component to a
// shard exactly once — the clean ones and the masked one's parent — and
// repairs the masked one in the coordinator. Bringing the link back up is
// then a lookup of the stored parent, with no construct sent.
func TestBootWithDownLinksDispatchesParentsOnce(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1}
	down := f.SwitchLinks()[:1]
	counters := make([]*countingClient, 2)
	clients := make([]ShardClient, len(counters))
	for i := range counters {
		counters[i] = &countingClient{Shard: NewInProcess(i, ps, f.NumLinks())}
		clients[i] = counters[i]
	}
	c, err := New(ps, f.NumLinks(), Options{Clients: clients, PMC: opt, TTL: time.Hour, DownLinks: down})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sent := func() (n int64) {
		for _, cc := range counters {
			n += cc.comps.Load()
		}
		return n
	}
	pristine := c.csr.Pristine(f.NumLinks())
	masked := 0
	c.mu.Lock()
	for ci := range c.comps {
		if _, m := parentOf(pristine, &c.comps[ci]); m {
			masked++
		}
	}
	c.mu.Unlock()
	if masked == 0 {
		t.Fatalf("link %d down masks no component; the test needs one", down[0])
	}

	res, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sent(), int64(len(pristine.Comps)); got != want {
		t.Fatalf("the boot cycle sent %d components, want each of the %d pristine ones once", got, want)
	}
	if res.Stats.Repaired != masked {
		t.Fatalf("the boot cycle repaired %d components, want the %d masked ones", res.Stats.Repaired, masked)
	}
	if want := freshFull(t, ps, f.NumLinks(), down, opt, 2); !reflect.DeepEqual(res.Selected, want.Selected) {
		t.Fatal("the boot cycle diverges from a fresh boot with the same link down")
	}

	booted := sent()
	if _, err := c.ApplyChurn(nil, down); err != nil {
		t.Fatal(err)
	}
	res, err = c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if n := sent() - booted; n != 0 {
		t.Fatalf("the up-flap sent %d components, want 0: its parent is stored", n)
	}
	if res.Stats.Classes != 0 || res.Stats.Repaired != 0 {
		t.Fatalf("the up-flap solved %d classes and repaired %d components, want neither", res.Stats.Classes, res.Stats.Repaired)
	}
	if want := freshFull(t, ps, f.NumLinks(), nil, opt, 2); !reflect.DeepEqual(res.Selected, want.Selected) {
		t.Fatal("the up-flap diverges from a fresh boot with nothing down")
	}
}

// TestStoreHoldsOneSelectionPerLiveComponent: through random multi-link
// churn the store keeps every pristine component's selection and exactly
// the live masked components' — ApplyChurn drops a masked selection with
// its component, so the store never outgrows the live decomposition. With
// nothing down the stored pristine selections are the served selection,
// path for path.
func TestStoreHoldsOneSelectionPerLiveComponent(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	c, err := New(ps, f.NumLinks(), Options{
		Shards: 2,
		PMC:    pmc.Options{Alpha: 1, Beta: 1, Workers: 1},
		TTL:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	pristine := c.csr.Pristine(f.NumLinks())
	// checkStore requires the pristine entries to be full and the masked
	// entries to be exactly the live masked components' (after a cycle) or
	// a subset of them (after ApplyChurn alone). It returns the stored
	// pristine paths, ascending.
	checkStore := func(step string, afterCycle bool) []int {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		var all []int
		for p, sel := range c.pristine {
			if sel == nil {
				t.Fatalf("%s: pristine component %d has no stored selection", step, p)
			}
			all = append(all, sel.paths...)
		}
		live := make(map[uint64]bool)
		for ci := range c.comps {
			if _, m := parentOf(pristine, &c.comps[ci]); m {
				live[c.comps[ci].Key()] = true
			}
		}
		for key := range c.masked {
			if !live[key] {
				t.Fatalf("%s: the store keeps masked component %d, which is no longer live", step, key)
			}
		}
		if afterCycle && len(c.masked) != len(live) {
			t.Fatalf("%s: the store holds %d masked selections, want the %d live masked components'", step, len(c.masked), len(live))
		}
		sort.Ints(all)
		return all
	}
	first, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if got := checkStore("first cycle", true); !reflect.DeepEqual(got, first.Selected) {
		t.Fatalf("the store holds %d pristine paths, the first cycle served %d", len(got), len(first.Selected))
	}

	rng := rand.New(rand.NewSource(7))
	links := f.SwitchLinks()
	downSet := make(map[topo.LinkID]bool)
	for step := 0; step < 24; step++ {
		var down, up []topo.LinkID
		for n := 1 + rng.Intn(3); n > 0; n-- {
			l := links[rng.Intn(len(links))]
			if slices.Contains(down, l) || slices.Contains(up, l) {
				continue
			}
			if downSet[l] {
				up = append(up, l)
			} else {
				down = append(down, l)
			}
			downSet[l] = !downSet[l]
		}
		if _, err := c.ApplyChurn(down, up); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("step %d (down %v, up %v)", step, down, up)
		checkStore(name+" before its cycle", false)
		if _, err := c.Construct(); err != nil {
			t.Fatal(err)
		}
		checkStore(name, true)
	}

	var up []topo.LinkID
	for l, d := range downSet {
		if d {
			up = append(up, l)
		}
	}
	if _, err := c.ApplyChurn(nil, up); err != nil {
		t.Fatal(err)
	}
	res, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	checkStore("every link up", true)
	c.mu.Lock()
	left := len(c.masked)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("with every link up the store keeps %d masked selections, want 0", left)
	}
	if !reflect.DeepEqual(res.Selected, first.Selected) {
		t.Fatal("with every link up the served selection differs from the first cycle's")
	}
}
