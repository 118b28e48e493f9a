package shardrpc

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/detector-net/detector/internal/metrics"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/topo"
)

// servedFattree8 is the pmc-selected probe matrix of Fattree(8): four
// components, so a plane over it has real multi-part structure.
func servedFattree8(t testing.TB) (route.PathSet, *route.Probes) {
	t.Helper()
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	return ps, route.NewProbes(ps, res.Selected, f.NumLinks())
}

// partOf wraps a matrix as the plane part a client addresses.
func partOf(m *route.Probes) *shard.Part {
	return &shard.Part{Engine: pll.NewEngine(m), Sig: route.RowsSignature(m)}
}

// swapHandler serves whichever handler it currently holds, so a test can
// "restart" a shard service — fresh server, empty engine cache — behind an
// unchanged URL.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

func sameVerdicts(a, b *pll.Result) bool {
	return reflect.DeepEqual(a.Bad, b.Bad) && a.LossyPaths == b.LossyPaths &&
		a.UnexplainedPaths == b.UnexplainedPaths
}

// TestLocalizeShipsExceptionsNotTheMatrix drives a two-shard plane over
// loopback services: the first window installs each part's
// matrix once, every later window travels as a few hundred bytes of
// exceptions against it, a restarted server costs exactly one reinstall
// per part — and no window ever differs from the full recompute or falls
// back to local compute.
func TestLocalizeShipsExceptionsNotTheMatrix(t *testing.T) {
	ps, probes := servedFattree8(t)
	numLinks := probes.NumLinks
	fallbacks := metrics.NewCounter("shard_plane_local_fallbacks")
	handlers := []*swapHandler{{}, {}}
	clients := map[int]shard.ShardClient{}
	for i, h := range handlers {
		h.set(NewServer(ps, numLinks).Handler())
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		clients[i] = Dial(i, ts.URL, ClientOptions{})
	}
	plane := shard.NewPlane(probes, []int{0, 1}).UseClients(clients)
	parts := int64(len(plane.Shards()))
	if parts != 2 {
		t.Fatalf("plane spread over %d shards, want 2", parts)
	}

	window := func(nBad int) (installs, wireBytes int64) {
		t.Helper()
		obs := syntheticWindow(probes, nBad)
		obs = append(obs[:5], obs[9:]...) // four rows did not report
		want, err := pll.Localize(probes, obs, pll.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		i0, b0, f0 := matrixInstalls.Value(), localizeWireBytes.Value(), fallbacks.Value()
		got, err := plane.Localize(obs, pll.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !sameVerdicts(got, want) || len(got.Bad) == 0 {
			t.Fatalf("remote verdicts %+v, full recompute %+v", got.Bad, want.Bad)
		}
		if fb := fallbacks.Value() - f0; fb != 0 {
			t.Fatalf("%d local fallbacks on a healthy fleet: %v", fb, plane.RemoteErrors())
		}
		return matrixInstalls.Value() - i0, localizeWireBytes.Value() - b0
	}

	installs, installBytes := window(3)
	if installs != parts {
		t.Fatalf("first window: %d installs, want one per part (%d)", installs, parts)
	}
	for nBad := 1; nBad <= 4; nBad++ {
		installs, steadyBytes := window(nBad)
		if installs != 0 {
			t.Fatalf("steady window reinstalled %d matrices", installs)
		}
		// A small matrix under a window with a third of its rows
		// lossy: the gap is far wider on a production one.
		if steadyBytes*4 > installBytes {
			t.Fatalf("steady window shipped %d bytes, the install window %d — the matrix still rides along", steadyBytes, installBytes)
		}
	}

	// Restart shard 1: fresh server, empty cache, same URL.
	handlers[1].set(NewServer(ps, numLinks).Handler())
	if installs, _ := window(2); installs != 1 {
		t.Fatalf("window after a restart: %d installs, want exactly 1", installs)
	}
	if installs, _ := window(2); installs != 0 {
		t.Fatalf("second window after a restart reinstalled %d matrices", installs)
	}
}

// TestEngineCacheEvictionCostsOneReinstall bounds the server's engine
// cache at one entry and alternates two parts through it: the evicted part
// pays one install round trip when it returns, and verdicts never change.
func TestEngineCacheEvictionCostsOneReinstall(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxEngines = 1
	srv, ts := testServer(t, lim)
	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()

	a := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {1, 2}, {0, 2}}, 3)
	b := route.NewProbesFromLinks([][]topo.LinkID{{0}, {0, 1}}, 2)
	cfg := pll.DefaultConfig()
	localize := func(m *route.Probes) int64 {
		t.Helper()
		part := partOf(m)
		obs := []pll.Observation{{Path: 0, Sent: 100, Lost: 60}, {Path: 1, Sent: 100}}
		w, err := part.Engine.Sparsify(obs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pll.Localize(m, obs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := matrixInstalls.Value()
		got, err := cl.Localize(0, part, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameVerdicts(got, want) {
			t.Fatalf("verdicts %+v, full recompute %+v", got.Bad, want.Bad)
		}
		return matrixInstalls.Value() - before
	}
	evictions := engineCacheEvictions.Value()
	for step, tc := range []struct {
		m            *route.Probes
		wantInstalls int64
	}{{a, 1}, {a, 0}, {b, 1}, {b, 0}, {a, 1}, {a, 0}} {
		if got := localize(tc.m); got != tc.wantInstalls {
			t.Fatalf("step %d: %d installs, want %d", step, got, tc.wantInstalls)
		}
		if n := srv.engines.len(); n != 1 {
			t.Fatalf("step %d: cache holds %d engines, bound is 1", step, n)
		}
	}
	if got := engineCacheEvictions.Value() - evictions; got != 2 {
		t.Fatalf("%d evictions counted, want 2", got)
	}
}

// TestLocalizeRejectsMalformedWindows sweeps the sparse form's guards:
// every malformed request answers its status with a
// structured body, never a panic or a verdict.
func TestLocalizeRejectsMalformedWindows(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxEngineBytes = 4096
	_, ts := testServer(t, lim)
	m := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {1, 2}, {0, 2}, {2}}, 3)
	sig := route.RowsSignature(m)
	matrix := &Matrix{NumLinks: 3, Paths: m.PathLinks}
	lossy := func(rows ...int) []LossyRow {
		out := make([]LossyRow, len(rows))
		for i, r := range rows {
			out[i] = LossyRow{Row: r, Sent: 10, Lost: 5}
		}
		return out
	}
	big := &Matrix{NumLinks: 3}
	for i := 0; i < 200; i++ {
		big.Paths = append(big.Paths, []topo.LinkID{0, 1, 2})
	}
	cases := []struct {
		name string
		req  LocalizeRequest
		want int
	}{
		{"install/ok", LocalizeRequest{Sig: sig, Matrix: matrix, Lossy: lossy(0, 1)}, 200},
		{"cached/ok", LocalizeRequest{Sig: sig, Absent: []int32{3}, Lossy: lossy(0, 1)}, 200},
		{"install/wrongSignature", LocalizeRequest{Sig: sig ^ 1, Matrix: matrix}, 400},
		{"install/tooBig", LocalizeRequest{
			Sig: route.RowsSignature(route.NewProbesFromLinks(big.Paths, 3)), Matrix: big}, 413},
		{"absentAndLossy", LocalizeRequest{Sig: sig, Absent: []int32{1}, Lossy: lossy(1)}, 400},
		{"absentOutOfRange", LocalizeRequest{Sig: sig, Absent: []int32{4}, Lossy: lossy(0)}, 400},
		{"lossyUnsorted", LocalizeRequest{Sig: sig, Lossy: lossy(1, 0)}, 400},
		{"lossyOutOfRange", LocalizeRequest{Sig: sig, Lossy: lossy(9)}, 400},
		{"lostExceedsSent", LocalizeRequest{Sig: sig, Lossy: []LossyRow{{Row: 0, Sent: 3, Lost: 4}}}, 400},
	}
	for _, tc := range cases {
		tc.req.V, tc.req.HitRatio = SchemaVersion, 0.6
		resp := postBody(t, ts.URL+"/v1/localize", ContentTypeBinary, tc.req.encodeBinary())
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want != 200 && errorBody(t, resp) == "" {
			t.Errorf("%s: error body is empty", tc.name)
		}
	}
	// Bodies travel as they are: a content encoding is refused, not guessed at.
	body := cases[0].req.encodeBinary()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/localize", bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("gzip-encoded body: status %d, want 415", resp.StatusCode)
	}
}

// TestRejectingShardIsVisible pins what a shard that refuses every window
// looks like from the diagnoser's side: the plane still localizes (local
// fallback, exact verdicts) and the refusal itself — not just a ticking
// fallback counter — is kept per shard.
func TestRejectingShardIsVisible(t *testing.T) {
	ps, probes := servedFattree8(t)
	lim := DefaultLimits()
	lim.MaxObservations = 0 // every non-empty window exceeds it
	ts := httptest.NewServer(NewServerLimits(ps, probes.NumLinks, lim).Handler())
	defer ts.Close()
	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()

	obs := syntheticWindow(probes, 3)
	want, err := pll.Localize(probes, obs, pll.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plane := shard.NewPlane(probes, []int{0}).UseClients(map[int]shard.ShardClient{0: cl})
	if errs := plane.RemoteErrors(); len(errs) != 0 {
		t.Fatalf("fresh plane reports errors: %v", errs)
	}
	got, err := plane.Localize(obs, pll.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !sameVerdicts(got, want) {
		t.Fatal("fallback verdicts differ from the full recompute")
	}
	last, ok := plane.RemoteErrors()[0]
	if !ok || !strings.Contains(last.Error, "400") || !strings.Contains(last.Error, "exceed limit") {
		t.Fatalf("remote refusal not kept for shard 0: %+v", plane.RemoteErrors())
	}
}

// FuzzLocalizeRequest throws arbitrary bytes at the localize endpoint of a
// server with tight limits: no panic, no status outside the documented
// set, and any frame that decodes re-encodes to a fixed point. Seeds cover
// a bare window, an install, and a window against the installed matrix.
func FuzzLocalizeRequest(f *testing.F) {
	m := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {1, 2}, {0, 2}, {2}}, 3)
	sig := route.RowsSignature(m)
	install := LocalizeRequest{V: SchemaVersion, Sig: sig, HitRatio: 0.6,
		Matrix: &Matrix{NumLinks: 3, Paths: m.PathLinks},
		Absent: []int32{3}, Lossy: []LossyRow{{Row: 0, Sent: 10, Lost: 5}}}
	cached := install
	cached.Matrix = nil
	f.Add(install.encodeBinary())
	f.Add(cached.encodeBinary())
	f.Add((&LocalizeRequest{V: SchemaVersion, HitRatio: 1}).encodeBinary())
	f.Add([]byte{frameMagic[0], frameMagic[1], BinaryVersion, kindLocalizeReq, 0})

	lim := DefaultLimits()
	lim.MaxBodyBytes = 1 << 16
	lim.MaxPaths, lim.MaxObservations, lim.MaxNumLinks = 256, 256, 1024
	lim.MaxEngines, lim.MaxEngineBytes = 4, 1<<16
	ft := topo.MustFattree(4)
	h := NewServerLimits(route.NewFattreePaths(ft), ft.NumLinks(), lim).Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeLocalizeBinary(data, lim.MaxBodyBytes); err == nil {
			enc := req.encodeBinary()
			again, err := decodeLocalizeBinary(enc, 0)
			if err != nil || !bytes.Equal(enc, again.encodeBinary()) {
				t.Fatalf("localize request re-encode not a fixed point: %v", err)
			}
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/localize", bytes.NewReader(data))
		r.Header.Set("Content-Type", ContentTypeBinary)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
}
