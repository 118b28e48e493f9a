package shardrpc

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// servedFattree8 is the pmc-selected probe matrix of Fattree(8).
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

// remoteLocalize runs one window of m's observations through cl, as the
// diagnoser does: sparsify on the local engine, name the matrix by its
// rows' signature.
func remoteLocalize(t testing.TB, cl *Client, m *route.Probes, obs []pll.Observation, cfg pll.Config) *pll.Result {
	t.Helper()
	engine := pll.NewEngine(m)
	w, err := engine.Sparsify(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Localize(0, route.RowsSignature(m), engine, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
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

// TestLocalizeShipsExceptionsNotTheMatrix drives a loopback service: the
// first window installs the matrix once, every later window travels as a
// few hundred bytes of exceptions against it, a restarted server costs
// exactly one reinstall — and no window ever differs from the full
// recompute.
func TestLocalizeShipsExceptionsNotTheMatrix(t *testing.T) {
	ps, probes := servedFattree8(t)
	h := &swapHandler{}
	h.set(NewServer(ps, probes.NumLinks).Handler())
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()

	window := func(nBad int) (installs, wireBytes int64) {
		t.Helper()
		obs := syntheticWindow(probes, nBad)
		obs = append(obs[:5], obs[9:]...) // four rows did not report
		want, err := pll.Localize(probes, obs, pll.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		i0, b0 := matrixInstalls.Value(), localizeWireBytes.Value()
		got := remoteLocalize(t, cl, probes, obs, pll.DefaultConfig())
		if !sameVerdicts(got, want) || len(got.Bad) == 0 {
			t.Fatalf("remote verdicts %+v, full recompute %+v", got.Bad, want.Bad)
		}
		return matrixInstalls.Value() - i0, localizeWireBytes.Value() - b0
	}

	installs, installBytes := window(3)
	if installs != 1 {
		t.Fatalf("first window: %d installs, want 1", installs)
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

	// Restart the service: fresh server, empty cache, same URL.
	h.set(NewServer(ps, probes.NumLinks).Handler())
	if installs, _ := window(2); installs != 1 {
		t.Fatalf("window after a restart: %d installs, want exactly 1", installs)
	}
	if installs, _ := window(2); installs != 0 {
		t.Fatalf("second window after a restart reinstalled %d matrices", installs)
	}
}

// TestEngineCacheEvictionCostsOneReinstall bounds the server's engine
// cache at one entry and alternates two matrices through it: the evicted
// one pays one install round trip when it returns, and verdicts never change.
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
		obs := []pll.Observation{{Path: 0, Sent: 100, Lost: 60}, {Path: 1, Sent: 100}}
		want, err := pll.Localize(m, obs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := matrixInstalls.Value()
		if got := remoteLocalize(t, cl, m, obs, cfg); !sameVerdicts(got, want) {
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
		{"lossyDuplicate", LocalizeRequest{Sig: sig, Lossy: lossy(0, 0)}, 400},
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

// TestRejectingShardIsVisible pins what a shard service that refuses every
// window looks like from the client: the refusal comes back as the
// client's error, with its status and the service's reason — never as an
// empty result — and the caller's own engine still has the window's
// verdicts.
func TestRejectingShardIsVisible(t *testing.T) {
	ps, probes := servedFattree8(t)
	lim := DefaultLimits()
	lim.MaxObservations = 0 // every window with a lossy row exceeds it
	ts := httptest.NewServer(NewServerLimits(ps, probes.NumLinks, lim).Handler())
	defer ts.Close()
	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()

	cfg := pll.DefaultConfig()
	obs := syntheticWindow(probes, 3)
	want, err := pll.Localize(probes, obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := pll.NewEngine(probes)
	w, err := engine.Sparsify(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Localize(0, route.RowsSignature(probes), engine, w, cfg)
	if err == nil || res != nil {
		t.Fatalf("refused window: result %+v, err %v", res, err)
	}
	if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "exceed limit") {
		t.Fatalf("refusal error %q does not name the status and the reason", err)
	}
	got, err := engine.Localize(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVerdicts(got, want) {
		t.Fatal("local verdicts after the refusal differ from the full recompute")
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
