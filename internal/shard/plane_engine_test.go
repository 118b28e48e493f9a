package shard

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestUnshardedIsThePlaneWithOnePart pins the shape the diagnoser relies
// on: a shard that owns every row gets the matrix itself as its part — no
// copy, no routing — whether there is one shard or the exact partition
// collapsed onto one of several. Random windows with absent and duplicate-
// free rows localize bit-identically to the full recompute either way.
func TestUnshardedIsThePlaneWithOnePart(t *testing.T) {
	p := entangledServerMatrix()
	for name, pl := range map[string]*Plane{
		"oneShard":       NewPlane(p, []int{0}),
		"exactCollapsed": NewPlane(p, []int{0, 1, 2, 3}),
		"approxSpread":   NewPlaneFrom(p, []int{0, 1, 2, 3}, route.InteriorPartition(p)),
	} {
		whole := name != "approxSpread"
		if (pl.whole >= 0) != whole {
			t.Fatalf("%s: whole = %d", name, pl.whole)
		}
		if whole && (len(pl.subs) != 1 || pl.subs[pl.whole].Engine.Matrix() != p) {
			t.Fatalf("%s: the only part is not the plane's matrix itself", name)
		}
		if !whole {
			continue // the approximate merge has its own differential
		}
		rng := rand.New(rand.NewSource(7))
		for w := 0; w < 40; w++ {
			var window []pll.Observation
			for _, row := range rng.Perm(p.NumPaths()) {
				if rng.Intn(5) == 0 {
					continue // did not report
				}
				o := pll.Observation{Path: row, Sent: 50 + rng.Intn(100)}
				if rng.Intn(3) == 0 {
					o.Lost = 1 + rng.Intn(o.Sent)
				}
				window = append(window, o)
			}
			want, err := pll.Localize(p, window, pll.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, ms, err := pl.LocalizeCycleStats(nil, window, pll.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if hashVerdicts(got) != hashVerdicts(want) || ms != (MergeStats{}) {
				t.Fatalf("%s window %d: plane %+v (merge %+v), full recompute %+v", name, w, got.Bad, ms, want.Bad)
			}
		}
	}
}

// TestPlaneRefusesDuplicateRows is the window contract at the plane
// boundary: a row observed twice is an error whether the window is routed
// across parts or taken whole, never a silent double count.
func TestPlaneRefusesDuplicateRows(t *testing.T) {
	p := entangledServerMatrix()
	window := solidWindow(p, 0)
	window = append(window, window[3])
	for name, pl := range map[string]*Plane{
		"whole":  NewPlane(p, []int{0}),
		"routed": NewPlaneFrom(p, []int{0, 1, 2, 3}, route.InteriorPartition(p)),
	} {
		if _, err := pl.Localize(window, pll.DefaultConfig()); err == nil || !strings.Contains(err.Error(), "observed twice") {
			t.Errorf("%s: duplicate row: err = %v", name, err)
		}
	}
}

// TestPlaneCacheHitsOnPointerIdentity: the matrix a diagnoser was handed
// once hits without being hashed again, and a content hit adopts the new
// pointer so the following windows are identity hits too.
func TestPlaneCacheHitsOnPointerIdentity(t *testing.T) {
	p1, p2 := entangledServerMatrix(), entangledServerMatrix()
	alive := []int{0, 1}
	var pc PlaneCache
	first, _ := pc.Get(p1, alive)
	// Corrupt the recorded content key: an identity hit never looks at it.
	pc.sig ^= 1
	if again, rebuilt := pc.Get(p1, alive); rebuilt || again != first {
		t.Fatal("same matrix pointer rebuilt the plane")
	}
	pc.sig ^= 1
	if again, rebuilt := pc.Get(p2, alive); rebuilt || again != first {
		t.Fatal("same content under a new pointer rebuilt the plane")
	}
	if pc.matrix != p2 {
		t.Fatal("content hit did not adopt the new pointer")
	}
	if _, rebuilt := pc.Get(p1, []int{0}); !rebuilt {
		t.Fatal("same pointer, different shard set: must rebuild")
	}
}

// TestRemoteFailureEndsTheSpanAndIsKept: when a shard's client fails and
// the window falls back to the part's own engine, the failure is what the
// shard's localize span ends with and what RemoteErrors reports.
func TestRemoteFailureEndsTheSpanAndIsKept(t *testing.T) {
	p := entangledServerMatrix()
	sh := NewInProcess(0, route.NewSlicePathSet(p.PathLinks, nil), p.NumLinks)
	pl := NewPlane(p, []int{0}).UseClients(map[int]ShardClient{0: sh})
	tr := obs.NewTracer("test", 4)

	cy := tr.StartCycle("window")
	if _, _, err := pl.LocalizeCycleStats(cy, solidWindow(p, 0), pll.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	cy.End()
	if errs := pl.RemoteErrors(); len(errs) != 0 {
		t.Fatalf("healthy client left errors: %v", errs)
	}

	sh.Kill()
	cy = tr.StartCycle("window")
	if _, _, err := pl.LocalizeCycleStats(cy, solidWindow(p, 0), pll.DefaultConfig()); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	cy.End()
	if e, ok := pl.RemoteErrors()[0]; !ok || !strings.Contains(e.Error, "killed") || e.Time.IsZero() {
		t.Fatalf("RemoteErrors = %+v, want shard 0's kill", pl.RemoteErrors())
	}
	var spanErr string
	for _, sp := range tr.Timeline()[0].Spans {
		if sp.Name == "localize" && sp.Shard == 0 {
			spanErr = sp.Err
		}
	}
	if !strings.Contains(spanErr, "killed") {
		t.Fatalf("shard 0's localize span ended with %q, want the remote error", spanErr)
	}
}

// TestPlaneOverLinklessRow: a row that crosses no link gets no owner, the
// rows around it partition as usual, and its observations are dropped the
// way the global localizer drops them.
func TestPlaneOverLinklessRow(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {}, {1, 2}}, 3)
	pl := NewPlane(p, []int{0, 1})
	if pl.Owner(1) != -1 {
		t.Fatalf("linkless row owned by shard %d, want -1", pl.Owner(1))
	}
	if pl.Owner(0) < 0 || pl.Owner(0) != pl.Owner(2) {
		t.Fatalf("rows sharing link 1 owned by %d and %d", pl.Owner(0), pl.Owner(2))
	}
	window := []pll.Observation{
		{Path: 0, Sent: 100, Lost: 30},
		{Path: 1, Sent: 100, Lost: 30},
		{Path: 2, Sent: 100, Lost: 30},
	}
	got, err := pl.Localize(window, pll.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := pll.Localize(p, window, pll.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hashVerdicts(got) != hashVerdicts(want) || len(want.Bad) == 0 {
		t.Fatalf("plane %+v, global %+v", got, want)
	}
}
