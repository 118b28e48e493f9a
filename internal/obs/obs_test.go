package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestHistogramBuckets pins the power-of-two bucket placement: each finite
// bucket's `le` is a true ≤ (exact powers of two land in the bucket whose
// bound they equal), and everything past the last finite bound lands in
// +Inf.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int // bucket index
	}{
		{0, 0},
		{1, 0},
		{1024, 0},                // == 2^10: bucket 0's bound
		{1025, 1},                // first value past 2^10
		{2048, 1},                // == 2^11
		{2049, 2},                //
		{1 << 34, numFinite - 1}, // the largest finite bound
		{1<<34 + 1, numFinite},   // +Inf
		{1 << 62, numFinite},     // way past: still +Inf
		{-5, 0},                  // negative clamps to zero
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(time.Duration(tc.ns))
		for i := 0; i < numBuckets; i++ {
			want := uint64(0)
			if i == tc.want {
				want = 1
			}
			if got := h.buckets[i].Load(); got != want {
				t.Errorf("Observe(%dns): bucket[%d] = %d, want %d", tc.ns, i, got, want)
			}
		}
	}
}

// TestHistogramSnapshotCumulative checks the exposition invariants: buckets
// are cumulative and the +Inf bucket equals the count.
func TestHistogramSnapshotCumulative(t *testing.T) {
	h := &Histogram{}
	for _, d := range []time.Duration{500, 1500, 3000, 5 * time.Second, 20 * time.Second} {
		h.Observe(d)
	}
	s := h.snapshot()
	if len(s.Buckets) != numBuckets {
		t.Fatalf("snapshot has %d buckets, want %d", len(s.Buckets), numBuckets)
	}
	var prev uint64
	for i, b := range s.Buckets {
		if b.Cumulative < prev {
			t.Fatalf("bucket %d cumulative %d < previous %d", i, b.Cumulative, prev)
		}
		prev = b.Cumulative
	}
	if last := s.Buckets[numBuckets-1]; last.LE != "+Inf" || last.Cumulative != s.Count {
		t.Fatalf("+Inf bucket = {%s %d}, want {+Inf %d}", last.LE, last.Cumulative, s.Count)
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantSum := float64(500+1500+3000+5_000_000_000+20_000_000_000) / 1e9
	if s.SumSeconds != wantSum {
		t.Fatalf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

// TestHotPathAllocs pins the zero-allocation contract of every hot-path
// primitive: the instrumentation can live on the construction critical path
// only if a cycle's worth of observes never touches the allocator.
func TestHotPathAllocs(t *testing.T) {
	h := NewHistogram("test_allocs_hist", "t")
	vec := NewCounterVec("test_allocs_vec", "t", "k", 4)
	child := vec.With("a")
	g := NewGauge("test_allocs_gauge", "t")
	cases := map[string]func(){
		"Histogram.Observe": func() { h.Observe(time.Microsecond) },
		"Counter.Inc":       func() { child.Inc() },
		"Counter.Add":       func() { child.Add(7) },
		"Gauge.Set":         func() { g.Set(3) },
		"CounterVec.With":   func() { vec.With("a") }, // warm-path lookup
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v per op, want 0", name, allocs)
		}
	}
}

// TestBoundedCardinality checks that a family never exceeds its bound: the
// first maxSeries values get their own child, everything after shares the
// overflow series.
func TestBoundedCardinality(t *testing.T) {
	vec := NewCounterVec("test_bounded_vec", "t", "k", 3)
	for i := 0; i < 50; i++ {
		vec.With(fmt.Sprintf("v%d", i)).Inc()
	}
	if got := vec.Len(); got != 4 { // 3 real + 1 overflow
		t.Fatalf("family has %d series, want 4 (3 + overflow)", got)
	}
	if got := vec.With(OverflowLabel).Value(); got != 47 {
		t.Fatalf("overflow series absorbed %d increments, want 47", got)
	}
	// The overflow child is shared: a later novel value increments it too.
	vec.With("v99").Inc()
	if got := vec.With(OverflowLabel).Value(); got != 48 {
		t.Fatalf("overflow after one more novel value = %d, want 48", got)
	}

	hv := NewHistogramVec("test_bounded_histvec", "t", "k", 2)
	for i := 0; i < 10; i++ {
		hv.With(fmt.Sprintf("v%d", i)).Observe(time.Microsecond)
	}
	if got := hv.Len(); got != 3 {
		t.Fatalf("histogram family has %d series, want 3 (2 + overflow)", got)
	}
}

// TestRegistryIdempotentByName checks that re-registering a name returns the
// same metric, and that re-registering as a different kind panics.
func TestRegistryIdempotentByName(t *testing.T) {
	a := NewHistogram("test_idem_hist", "first")
	b := NewHistogram("test_idem_hist", "second help is ignored")
	if a != b {
		t.Fatal("same name registered twice yielded different histograms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a histogram name as a gauge did not panic")
		}
	}()
	NewGauge("test_idem_hist", "kind clash")
}

// TestCounterKindClash: a plain counter is get-or-create by name like every
// other kind, and its name is reserved against the other kinds both ways.
func TestCounterKindClash(t *testing.T) {
	c := NewCounter("test_clash_counter", "first")
	if NewCounter("test_clash_counter", "second help is ignored") != c {
		t.Fatal("same name registered twice yielded different counters")
	}
	NewGauge("test_clash_gauge", "g")
	for name, register := range map[string]func(){
		"counter as counter family": func() { NewCounterVec("test_clash_counter", "v", "k", 2) },
		"gauge as counter":          func() { NewCounter("test_clash_gauge", "c") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering a %s did not panic", name)
				}
			}()
			register()
		}()
	}
}

// TestTracerRingAndJoin covers the cycle ring: eviction at capacity,
// strictly increasing minted IDs, and Join filing spans under an externally
// minted ID (creating the cycle on first sight, reusing it after).
func TestTracerRingAndJoin(t *testing.T) {
	tr := NewTracer("test", 3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		cy := tr.StartCycle("construct")
		cy.Span("work").End()
		cy.End()
		ids = append(ids, cy.ID())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("cycle IDs not strictly increasing: %v", ids)
		}
	}
	tl := tr.Timeline()
	if len(tl) != 3 {
		t.Fatalf("ring kept %d cycles, want 3", len(tl))
	}
	// Newest first, and the two oldest evicted.
	if tl[0].ID != ids[4] || tl[2].ID != ids[2] {
		t.Fatalf("timeline IDs %v, want newest-first %v", []uint64{tl[0].ID, tl[1].ID, tl[2].ID}, ids[2:])
	}

	// A remote shard joins the coordinator's ID: both requests land on the
	// same cycle, which carries the foreign ID verbatim.
	remote := NewTracer("shard", 4)
	cy1 := remote.Join(ids[4], "remote")
	cy1.ShardSpan("construct", -1).End()
	cy2 := remote.Join(ids[4], "remote")
	if cy1 != cy2 {
		t.Fatal("Join with the same ID created a second cycle")
	}
	cy2.ShardSpan("localize", -1).End()
	rtl := remote.Timeline()
	if len(rtl) != 1 || rtl[0].ID != ids[4] || len(rtl[0].Spans) != 2 {
		t.Fatalf("joined timeline = %+v, want one cycle with 2 spans under ID %d", rtl, ids[4])
	}
	if remote.Join(0, "remote") != nil {
		t.Fatal("Join(0) must return nil (untraced request)")
	}
}

// TestNilSafety: every trace call site runs unguarded, so the nil paths must
// all be no-ops.
func TestNilSafety(t *testing.T) {
	var cy *Cycle
	if cy.ID() != 0 {
		t.Fatal("nil cycle ID != 0")
	}
	sp := cy.Span("x")
	sp.End()
	sp.EndErr(fmt.Errorf("boom"))
	cy.ShardSpan("y", 3).End()
	cy.End()
	var tr *Tracer
	if tr.StartCycle("k") != nil || tr.Join(7, "k") != nil || tr.Timeline() != nil {
		t.Fatal("nil tracer must return nil cycles and timelines")
	}
}

// TestSpanErrAnnotation checks span error propagation and shard tagging.
func TestSpanErrAnnotation(t *testing.T) {
	tr := NewTracer("test", 2)
	cy := tr.StartCycle("construct")
	cy.ShardSpan("construct", 2).EndErr(fmt.Errorf("shard 2: killed"))
	cy.End()
	tl := tr.Timeline()
	sp := tl[0].Spans[0]
	if sp.Shard != 2 || !strings.Contains(sp.Err, "killed") || sp.Name != "construct" {
		t.Fatalf("span = %+v, want shard 2, err containing 'killed'", sp)
	}
}
