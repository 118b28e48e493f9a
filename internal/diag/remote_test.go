package diag

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// matrixInstalls is the shard client's count of localize requests repeated
// with the matrix attached after the service answered that it did not hold
// it.
var matrixInstalls = obs.NewCounter("shardrpc_matrix_installs", "")

// loopbackShards serves n shard services over ps on loopback (bounded by
// lim when it is non-nil) and returns their URLs and, per service, the
// number of localize requests it has received.
func loopbackShards(t testing.TB, ps route.PathSet, numLinks, n int, lim *shardrpc.Limits) ([]string, []*atomic.Int64) {
	t.Helper()
	urls := make([]string, n)
	localizes := make([]*atomic.Int64, n)
	for i := range urls {
		srv := shardrpc.NewServer(ps, numLinks)
		if lim != nil {
			srv = shardrpc.NewServerLimits(ps, numLinks, *lim)
		}
		h, count := srv.Handler(), new(atomic.Int64)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/localize" {
				count.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i], localizes[i] = ts.URL, count
	}
	return urls, localizes
}

// TestRemoteLocalizeInstallsOncePerMatrixVersion runs three matrix versions
// of different content through a diagnoser with two shard endpoints. Every
// window is one localize request to the one endpoint its matrix maps to,
// the first window of a version pays one install round trip, and every
// alert is the full recompute's.
func TestRemoteLocalizeInstallsOncePerMatrixVersion(t *testing.T) {
	f8 := topo.MustFattree(8)
	ps := route.NewFattreePaths(f8)
	m := servedMatrix(t, ps, f8.NumLinks())
	reversed := slices.Clone(m.PathLinks)
	slices.Reverse(reversed)
	versions := []*route.Probes{
		m,
		route.NewProbesFromLinks(reversed, m.NumLinks),
		route.NewProbesFromLinks(m.PathLinks[:m.NumPaths()/2], m.NumLinks),
	}
	urls, localizes := loopbackShards(t, ps, f8.NumLinks(), 2, nil)
	d := New(Options{Window: time.Hour, ShardEndpoints: urls})
	defer d.Stop()

	const nodes, windows = 16, 3
	for v, vm := range versions {
		d.SetMatrix(vm, v+1)
		d.RunWindow() // the window straddling the version change is discarded
		installs, fallbacks := matrixInstalls.Value(), localFallbacks.Value()
		before := []int64{localizes[0].Load(), localizes[1].Load()}
		for w, sc := range windowScript(vm, nodes)[:windows] {
			reps := fleetWindow(vm, nodes, sc.bad, sc.silent)
			for i := range reps {
				d.Ingest(&reps[i])
			}
			mustMatchOracle(t, fmt.Sprintf("version %d window %d", v+1, w), d.RunWindow(), vm, windowObservations(reps, nil))
		}
		if n := matrixInstalls.Value() - installs; n != 1 {
			t.Fatalf("version %d: %d matrix installs, want 1", v+1, n)
		}
		if n := localFallbacks.Value() - fallbacks; n != 0 {
			t.Fatalf("version %d: %d local fallbacks on healthy shard services", v+1, n)
		}
		// windows requests and the install's repeat, all to one endpoint.
		got := []int64{localizes[0].Load() - before[0], localizes[1].Load() - before[1]}
		if slices.Max(got) != windows+1 || slices.Min(got) != 0 {
			t.Fatalf("version %d: localize requests per endpoint %v, want %d on one and 0 on the other", v+1, got, windows+1)
		}
	}
}

// TestRemoteRefusalFallsBackToLocal pins what a shard service that refuses
// every window looks like from the diagnoser: the window is still
// localized, locally and with the full recompute's verdicts;
// shard_plane_local_fallbacks moves by one; the window's localize span ends
// with the refusal; and /statusz names it under shard_errors.
func TestRemoteRefusalFallsBackToLocal(t *testing.T) {
	f8 := topo.MustFattree(8)
	ps := route.NewFattreePaths(f8)
	m := servedMatrix(t, ps, f8.NumLinks())
	lim := shardrpc.DefaultLimits()
	lim.MaxObservations = 0 // every window with a lossy row exceeds it
	urls, _ := loopbackShards(t, ps, f8.NumLinks(), 1, &lim)
	d := New(Options{Window: time.Hour, ShardEndpoints: urls})
	defer d.Stop()
	d.SetMatrix(m, 1)
	if errs, _ := statuszDetail(t, d)["shard_errors"].(map[string]any); errs == nil || len(errs) != 0 {
		t.Fatalf("/statusz shard_errors before any request: %v", statuszDetail(t, d)["shard_errors"])
	}

	reps := fleetWindow(m, 16, map[topo.LinkID]bool{m.PathLinks[0][1]: true}, nil)
	for i := range reps {
		d.Ingest(&reps[i])
	}
	before := localFallbacks.Value()
	mustMatchOracle(t, "refused window", d.RunWindow(), m, windowObservations(reps, nil))
	if n := localFallbacks.Value() - before; n != 1 {
		t.Fatalf("shard_plane_local_fallbacks moved by %d, want 1", n)
	}
	var spanErr string
	for _, sp := range d.Tracer().Timeline()[0].Spans {
		if sp.Name == "localize" {
			spanErr = sp.Err
		}
	}
	if !strings.Contains(spanErr, "exceed limit") {
		t.Fatalf("the window's localize span ended with %q, want the refusal", spanErr)
	}
	errs, _ := statuszDetail(t, d)["shard_errors"].(map[string]any)
	last, _ := errs["0"].(map[string]any)
	if msg, _ := last["error"].(string); !strings.Contains(msg, "400") || !strings.Contains(msg, "exceed limit") {
		t.Fatalf("/statusz shard_errors = %v, want endpoint 0's refusal", errs)
	}
}

// lastLocalizeSpan returns the localize span of the diagnoser's newest
// window cycle.
func lastLocalizeSpan(t *testing.T, d *Diagnoser) obs.Span {
	t.Helper()
	tl := d.Tracer().Timeline()
	if len(tl) == 0 {
		t.Fatal("no window cycle was traced")
	}
	for _, sp := range tl[0].Spans {
		if sp.Name == "localize" {
			return sp
		}
	}
	t.Fatalf("window cycle %d has no localize span: %+v", tl[0].ID, tl[0].Spans)
	return obs.Span{}
}

// TestDeadEndpointFallbackIsExact points a diagnoser at a shard endpoint
// nothing listens on: every window fails in transport, is localized by the
// local fallback with the full recompute's verdicts, and is counted once.
func TestDeadEndpointFallbackIsExact(t *testing.T) {
	f8 := topo.MustFattree(8)
	ps := route.NewFattreePaths(f8)
	m := servedMatrix(t, ps, f8.NumLinks())
	ts := httptest.NewServer(shardrpc.NewServer(ps, f8.NumLinks()).Handler())
	ts.Close() // its address now refuses connections
	d := New(Options{Window: time.Hour, ShardEndpoints: []string{ts.URL}})
	defer d.Stop()
	d.SetMatrix(m, 1)

	for w, sc := range windowScript(m, 16)[:3] {
		reps := fleetWindow(m, 16, sc.bad, sc.silent)
		for i := range reps {
			d.Ingest(&reps[i])
		}
		before := localFallbacks.Value()
		mustMatchOracle(t, fmt.Sprintf("window %d", w), d.RunWindow(), m, windowObservations(reps, nil))
		if n := localFallbacks.Value() - before; n != 1 {
			t.Fatalf("window %d: shard_plane_local_fallbacks moved by %d, want 1", w, n)
		}
	}
}

// TestRemoteFailureEndsTheSpanAndIsKept: a window a healthy endpoint
// localizes leaves no error anywhere; once the endpoint dies, the transport
// failure is what the window's localize span ends with and what /statusz
// keeps, with its time, under the endpoint's index.
func TestRemoteFailureEndsTheSpanAndIsKept(t *testing.T) {
	f8 := topo.MustFattree(8)
	ps := route.NewFattreePaths(f8)
	m := servedMatrix(t, ps, f8.NumLinks())
	ts := httptest.NewServer(shardrpc.NewServer(ps, f8.NumLinks()).Handler())
	defer ts.Close()
	d := New(Options{Window: time.Hour, ShardEndpoints: []string{ts.URL}})
	defer d.Stop()
	d.SetMatrix(m, 1)
	window := func() {
		t.Helper()
		reps := fleetWindow(m, 16, map[topo.LinkID]bool{m.PathLinks[0][1]: true}, nil)
		for i := range reps {
			d.Ingest(&reps[i])
		}
		mustMatchOracle(t, "window", d.RunWindow(), m, windowObservations(reps, nil))
	}

	window()
	if sp := lastLocalizeSpan(t, d); sp.Err != "" {
		t.Fatalf("healthy endpoint: localize span ended with %q", sp.Err)
	}
	if errs, _ := statuszDetail(t, d)["shard_errors"].(map[string]any); len(errs) != 0 {
		t.Fatalf("healthy endpoint left /statusz shard_errors %v", errs)
	}

	ts.Close()
	window()
	sp := lastLocalizeSpan(t, d)
	if sp.Err == "" || !strings.Contains(sp.Err, "/v1/localize") {
		t.Fatalf("dead endpoint: localize span ended with %q, want the transport failure", sp.Err)
	}
	errs, _ := statuszDetail(t, d)["shard_errors"].(map[string]any)
	last, _ := errs["0"].(map[string]any)
	if msg, _ := last["error"].(string); msg != sp.Err {
		t.Fatalf("/statusz shard_errors = %v, want endpoint 0's %q", errs, sp.Err)
	}
	if at, _ := last["time"].(string); at == "" || strings.HasPrefix(at, "0001-") {
		t.Fatalf("/statusz shard_errors[0] has no time: %v", last)
	}
}

// TestWindowOverLinklessRow: a matrix row that crosses no link (a
// same-rack path) is bound, reported and observed like any other; the
// diagnoser, local or behind a shard service, drops its observations the
// way the full recompute does and localizes the rows around it.
func TestWindowOverLinklessRow(t *testing.T) {
	m := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {}, {1, 2}}, 3)
	report := &pinger.Report{Node: 1, Version: 1, Results: []pinger.PathReport{
		{PathID: 0, Sent: 100, Lost: 30},
		{PathID: 1, Sent: 100, Lost: 30},
		{PathID: 2, Sent: 100, Lost: 30},
	}}
	window := []pll.Observation{
		{Path: 0, Sent: 100, Lost: 30},
		{Path: 1, Sent: 100, Lost: 30},
		{Path: 2, Sent: 100, Lost: 30},
	}
	urls, localizes := loopbackShards(t, route.NewSlicePathSet(m.PathLinks, nil), 3, 1, nil)
	for name, opts := range map[string]Options{
		"local":  {Window: time.Hour},
		"remote": {Window: time.Hour, ShardEndpoints: urls},
	} {
		d := New(opts)
		d.SetMatrix(m, 1)
		d.Ingest(report)
		fallbacks, requests := localFallbacks.Value(), localizes[0].Load()
		a := d.RunWindow()
		d.Stop()
		mustMatchOracle(t, name, a, m, window)
		if len(a.Bad)+len(a.Soft) == 0 {
			t.Fatalf("%s: no verdict for the lossy rows around the linkless one", name)
		}
		if n := localFallbacks.Value() - fallbacks; n != 0 {
			t.Fatalf("%s: %d local fallbacks: the shard service refused the linkless row", name, n)
		}
		if sent := localizes[0].Load() > requests; sent != (name == "remote") {
			t.Fatalf("%s: localize request sent = %v", name, sent)
		}
	}
}

// TestWindowStateEngineIsTheServedMatrix pins the shape every window relies
// on: the window state's one engine holds the served matrix itself — no
// copy, no partition — and random windows with absent rows localize on it,
// locally or through a shard endpoint, bit-identically to the full
// recompute.
func TestWindowStateEngineIsTheServedMatrix(t *testing.T) {
	f8 := topo.MustFattree(8)
	ps := route.NewFattreePaths(f8)
	m := servedMatrix(t, ps, f8.NumLinks())
	urls, localizes := loopbackShards(t, ps, f8.NumLinks(), 1, nil)
	const windows = 20
	for name, opts := range map[string]Options{
		"local":  {Window: time.Hour},
		"remote": {Window: time.Hour, ShardEndpoints: urls},
	} {
		t.Run(name, func(t *testing.T) {
			d := New(opts)
			defer d.Stop()
			d.SetMatrix(m, 1)
			st := d.state.Load()
			if st.engine.Matrix() != m {
				t.Fatal("the window state's engine does not hold the served matrix itself")
			}
			fallbacks, requests := localFallbacks.Value(), localizes[0].Load()
			rng := rand.New(rand.NewSource(7))
			cfg := pll.DefaultConfig()
			for w := 0; w < windows; w++ {
				var window []pll.Observation
				for _, row := range rng.Perm(m.NumPaths()) {
					if rng.Intn(5) == 0 {
						continue // did not report
					}
					o := pll.Observation{Path: row, Sent: 50 + rng.Intn(100)}
					if rng.Intn(3) == 0 {
						o.Lost = 1 + rng.Intn(o.Sent)
					}
					window = append(window, o)
				}
				want, err := pll.Localize(m, window, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.localize(nil, st, window, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Bad, want.Bad) || got.LossyPaths != want.LossyPaths ||
					got.UnexplainedPaths != want.UnexplainedPaths {
					t.Fatalf("window %d: %+v, full recompute %+v", w, got.Bad, want.Bad)
				}
			}
			if n := localFallbacks.Value() - fallbacks; n != 0 {
				t.Fatalf("%d local fallbacks", n)
			}
			// Remote: one request a window, and the first one's repeat with
			// the matrix attached.
			if n, want := localizes[0].Load()-requests, int64(len(opts.ShardEndpoints))*(windows+1); n != want {
				t.Fatalf("%d localize requests, want %d", n, want)
			}
		})
	}
}

// TestUnchangedMatrixReinstallsNothing: a new matrix version whose rows
// are the old ones gets a fresh window state but the same signature, so
// its windows go to the same endpoint, which already holds the engine —
// no install round trip. The same version bound again changes nothing.
func TestUnchangedMatrixReinstallsNothing(t *testing.T) {
	f8 := topo.MustFattree(8)
	ps := route.NewFattreePaths(f8)
	m := servedMatrix(t, ps, f8.NumLinks())
	urls, localizes := loopbackShards(t, ps, f8.NumLinks(), 2, nil)
	d := New(Options{Window: time.Hour, ShardEndpoints: urls})
	defer d.Stop()
	window := func(what string, vm *route.Probes) {
		t.Helper()
		reps := fleetWindow(vm, 16, map[topo.LinkID]bool{vm.PathLinks[0][1]: true}, nil)
		for i := range reps {
			d.Ingest(&reps[i])
		}
		mustMatchOracle(t, what, d.RunWindow(), vm, windowObservations(reps, nil))
	}

	d.SetMatrix(m, 1)
	first := d.state.Load()
	d.SetMatrix(m, 1)
	if d.state.Load() != first {
		t.Fatal("binding the same version again swapped the window state")
	}
	window("version 1", m)
	installs := matrixInstalls.Value()
	sent := localizes[0].Load() + localizes[1].Load()

	same := route.NewProbesFromLinks(slices.Clone(m.PathLinks), m.NumLinks)
	d.SetMatrix(same, 2)
	d.RunWindow() // the window straddling the version change is discarded
	st := d.state.Load()
	if st == first || st.matrixSig != first.matrixSig || st.endpoint != first.endpoint {
		t.Fatalf("version 2: state %p sig %x endpoint %d, version 1: %p %x %d",
			st, st.matrixSig, st.endpoint, first, first.matrixSig, first.endpoint)
	}
	window("version 2", same)
	if n := matrixInstalls.Value() - installs; n != 0 {
		t.Fatalf("%d matrix installs for unchanged rows, want 0", n)
	}
	if n := localizes[0].Load() + localizes[1].Load() - sent; n != 1 {
		t.Fatalf("%d localize requests for one window, want 1", n)
	}
}

// TestStatuszShardFieldsFollowEndpoints: /statusz counts the configured
// shard endpoints, and shows shard_errors exactly when there are any.
func TestStatuszShardFieldsFollowEndpoints(t *testing.T) {
	for name, endpoints := range map[string][]string{
		"none": nil,
		"two":  {"http://127.0.0.1:1", "http://127.0.0.1:2"},
	} {
		t.Run(name, func(t *testing.T) {
			d := New(Options{Window: time.Hour, ShardEndpoints: endpoints})
			defer d.Stop()
			d.SetMatrix(testMatrix(), 1)
			detail := statuszDetail(t, d)
			if got := detail["shards"]; got != float64(len(endpoints)) {
				t.Fatalf("/statusz shards = %v, want %d", got, len(endpoints))
			}
			if _, ok := detail["shard_errors"]; ok != (len(endpoints) > 0) {
				t.Fatalf("/statusz shard_errors present = %v with %d endpoints", ok, len(endpoints))
			}
		})
	}
}
