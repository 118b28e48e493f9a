package shardrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/topo"
)

func testServer(t *testing.T, lim Limits) (*Server, *httptest.Server) {
	t.Helper()
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	srv := NewServerLimits(ps, f.NumLinks(), lim)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// frameOf packs a construct or localize request into its v2 frame.
func frameOf(req any) []byte {
	switch r := req.(type) {
	case ConstructRequest:
		return r.encodeBinary()
	case LocalizeRequest:
		return r.encodeBinary()
	}
	panic(fmt.Sprintf("no frame for %T", req))
}

func errorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var eb httpx.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error response is not structured JSON: %v", err)
	}
	return eb.Error
}

// TestTruncatedPayloadRejected feeds the server a request cut off
// mid-frame: structured 400, and the server keeps serving afterwards.
func TestTruncatedPayloadRejected(t *testing.T) {
	srv, ts := testServer(t, DefaultLimits())
	for endpoint, full := range map[string][]byte{
		"/v1/construct": frameOf(ConstructRequest{V: SchemaVersion, MatrixSig: srv.MatrixSig()}),
		"/v1/localize":  frameOf(LocalizeRequest{V: SchemaVersion, Sig: 42, HitRatio: 0.6}),
	} {
		resp := postBody(t, ts.URL+endpoint, ContentTypeBinary, full[:len(full)/2])
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s truncated payload: status %d, want 400", endpoint, resp.StatusCode)
		}
		if eb := errorBody(t, resp); !strings.Contains(eb, "undecodable") {
			t.Errorf("%s truncated payload: error %q lacks decode diagnosis", endpoint, eb)
		}
	}
	// The shard must still be alive and correct after garbage.
	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("server unhealthy after truncated payloads: %v", err)
	}
}

// TestOversizedPayloadRejected pins the body bound: 413, not an OOM or a
// hang.
func TestOversizedPayloadRejected(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxBodyBytes = 1 << 10
	_, ts := testServer(t, lim)
	big := make([]byte, 1<<12)
	for i := range big {
		big[i] = ' '
	}
	resp := postBody(t, ts.URL+"/v1/construct", ContentTypeBinary, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized payload: status %d, want 413", resp.StatusCode)
	}
}

// TestJSONRequestRejected: the shard RPC speaks only the v2 frame. A JSON
// construct or localize request answers 415 with a structured body that
// names the media type to use, and counts as rejected.
func TestJSONRequestRejected(t *testing.T) {
	srv, ts := testServer(t, DefaultLimits())
	for _, tc := range []struct {
		name, endpoint string
		req            any
	}{
		{"construct", "/v1/construct", encodeConstruct(constructWorkOrder(srv.ps, srv.numLinks))},
		{"localize", "/v1/localize", LocalizeRequest{V: SchemaVersion, Sig: 42, HitRatio: 0.6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			before := serverRejected.Value()
			resp := postBody(t, ts.URL+tc.endpoint, "application/json", body)
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Errorf("JSON request: status %d, want 415", resp.StatusCode)
			}
			if eb := errorBody(t, resp); !strings.Contains(eb, ContentTypeBinary) {
				t.Errorf("JSON request: error %q does not name %s", eb, ContentTypeBinary)
			}
			if got := serverRejected.Value() - before; got != 1 {
				t.Errorf("JSON request: rejected counter moved by %d, want 1", got)
			}
		})
	}
}

// TestValidationRejectsBadPayloads sweeps the schema guards: wrong
// version, out-of-range links/paths and non-canonical component order all
// answer 400; a mismatched or unknown matrix signature answers 409. (The
// localize window's own guards are in localize_test.go.)
func TestValidationRejectsBadPayloads(t *testing.T) {
	srv, ts := testServer(t, DefaultLimits())
	sig := srv.MatrixSig()
	comp := Component{Links: []topo.LinkID{0, 1}, Paths: []int32{0, 1}}
	cases := []struct {
		name string
		url  string
		req  any
		want int
	}{
		{"construct/version", "/v1/construct",
			ConstructRequest{V: 99, MatrixSig: sig, NumLinks: srv.numLinks, Comps: []Component{comp}}, 400},
		{"construct/sig", "/v1/construct",
			ConstructRequest{V: SchemaVersion, MatrixSig: sig ^ 1, NumLinks: srv.numLinks,
				Opt: PMCOptions{Alpha: 1, Beta: 1}, Comps: []Component{comp}}, 409},
		{"construct/linkRange", "/v1/construct",
			ConstructRequest{V: SchemaVersion, MatrixSig: sig, NumLinks: srv.numLinks,
				Comps: []Component{{Links: []topo.LinkID{topo.LinkID(srv.numLinks)}, Paths: []int32{0}}}}, 400},
		{"construct/unsortedLinks", "/v1/construct",
			ConstructRequest{V: SchemaVersion, MatrixSig: sig, NumLinks: srv.numLinks,
				Comps: []Component{{Links: []topo.LinkID{1, 0}, Paths: []int32{0}}}}, 400},
		{"construct/pathRange", "/v1/construct",
			ConstructRequest{V: SchemaVersion, MatrixSig: sig, NumLinks: srv.numLinks,
				Comps: []Component{{Links: []topo.LinkID{0}, Paths: []int32{1 << 30}}}}, 400},
		{"localize/version", "/v1/localize",
			LocalizeRequest{V: 0, HitRatio: 0.6}, 400},
		{"localize/hitRatio", "/v1/localize",
			LocalizeRequest{V: SchemaVersion, HitRatio: 1.5}, 400},
		{"localize/unknownMatrix", "/v1/localize",
			LocalizeRequest{V: SchemaVersion, Sig: 42, HitRatio: 0.6}, 409},
		{"localize/numLinksUnbounded", "/v1/localize",
			LocalizeRequest{V: SchemaVersion, HitRatio: 0.6, Matrix: &Matrix{NumLinks: 1 << 40}}, 400},
		{"localize/linkRange", "/v1/localize",
			LocalizeRequest{V: SchemaVersion, HitRatio: 0.6,
				Matrix: &Matrix{NumLinks: 4, Paths: [][]topo.LinkID{{4}}}}, 400},
	}
	for _, tc := range cases {
		resp := postBody(t, ts.URL+tc.url, ContentTypeBinary, frameOf(tc.req))
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// faultableHandler wraps a shard service so a test can make construction
// fail while liveness keeps passing — the "answers heartbeats but errors
// on construct" failure the coordinator must survive.
func faultableHandler(inner http.Handler, failConstruct *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failConstruct.Load() && r.URL.Path == "/v1/construct" {
			httpx.Error(w, http.StatusInternalServerError, "injected construct fault")
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// TestConstructFaultDegradesToReassignment runs a coordinator over two
// loopback shards, one of which pings fine but fails every construction.
// The cycle must complete by quarantining the faulty shard and re-running
// its components on the survivor — a complete, bit-identical merge, never
// a partial one. A later cycle with the fault healed readmits the shard.
func TestConstructFaultDegradesToReassignment(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}
	ref, err := pmc.Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}

	srv0 := NewServer(ps, f.NumLinks())
	ts0 := httptest.NewServer(srv0.Handler())
	defer ts0.Close()
	srv1 := NewServer(ps, f.NumLinks())
	var fail atomic.Bool
	fail.Store(true)
	ts1 := httptest.NewServer(faultableHandler(srv1.Handler(), &fail))
	defer ts1.Close()

	c, err := shard.New(ps, f.NumLinks(), shard.Options{
		Clients: []shard.ShardClient{
			Dial(0, ts0.URL, ClientOptions{}),
			Dial(1, ts1.URL, ClientOptions{}),
		},
		PMC: opt, TTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	res, err := c.Construct()
	if err != nil {
		t.Fatalf("construct with one faulty shard: %v", err)
	}
	if res.Retries < 1 {
		t.Errorf("faulty shard cost no retries; fault was not exercised")
	}
	if res.Alive != 1 {
		t.Errorf("alive = %d, want 1 (faulty shard quarantined)", res.Alive)
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Errorf("degraded merge differs from single controller — partial merge served")
	}
	if u := c.Unhealthy(); len(u) != 1 || u[0] != 1 {
		t.Errorf("Unhealthy() = %v, want [1] (quarantined shard visible)", u)
	}

	// Heal the fault: the next cycle's quarantine re-probe readmits the
	// shard and the merge is again clean and identical.
	fail.Store(false)
	res, err = c.Construct()
	if err != nil {
		t.Fatalf("construct after heal: %v", err)
	}
	if res.Alive != 2 || res.Retries != 0 {
		t.Errorf("healed cycle: alive=%d retries=%d, want 2 and 0", res.Alive, res.Retries)
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Errorf("post-heal merge differs from single controller")
	}
}

// TestMidCycleDisconnect kills a shard service outright — connection
// refused, the remote analog of a crashed controller — and checks the same
// degradation path, construction and localization both.
func TestMidCycleDisconnect(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}
	ref, err := pmc.Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}

	servers := make([]*httptest.Server, 2)
	clients := make([]shard.ShardClient, 2)
	for i := range servers {
		servers[i] = httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
		clients[i] = Dial(i, servers[i].URL, ClientOptions{})
	}
	defer servers[0].Close()

	c, err := shard.New(ps, f.NumLinks(), shard.Options{Clients: clients, PMC: opt, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Build the plane before the disconnect so shard 1 owns live routes.
	probes := route.NewProbes(ps, ref.Selected, f.NumLinks())
	obs := syntheticWindow(probes, 3)
	refLoc, err := pll.Localize(probes, obs, pll.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plane := planeOver(c, probes)

	servers[1].Close() // mid-window crash: TTL has not expired

	res, err := c.Construct()
	if err != nil {
		t.Fatalf("construct across disconnect: %v", err)
	}
	if res.Retries < 1 || res.Alive != 1 {
		t.Errorf("disconnect cycle: retries=%d alive=%d, want >=1 and 1", res.Retries, res.Alive)
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Errorf("post-disconnect merge differs from single controller")
	}

	// The already-built plane falls back to local execution for the dead
	// shard's slice: the window is not lost and the verdicts are exact.
	got, err := plane.Localize(obs, pll.DefaultConfig())
	if err != nil {
		t.Fatalf("plane localize across disconnect: %v", err)
	}
	if !reflect.DeepEqual(got.Bad, refLoc.Bad) ||
		got.LossyPaths != refLoc.LossyPaths ||
		got.UnexplainedPaths != refLoc.UnexplainedPaths {
		t.Errorf("fallback localization differs from single controller")
	}
}

// TestPingRejectsWrongEngine pins the fingerprint handshake at liveness
// time: a coordinator-pinned client probing a shard built for a different
// topology must fail the ping (so the shard is declared dead) instead of
// reporting healthy and failing every dispatched construction.
func TestPingRejectsWrongEngine(t *testing.T) {
	f8 := topo.MustFattree(8)
	srv8 := NewServer(route.NewFattreePaths(f8), f8.NumLinks())
	ts := httptest.NewServer(srv8.Handler())
	defer ts.Close()

	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("unpinned ping should pass: %v", err)
	}
	f4 := topo.MustFattree(4)
	ps4 := route.NewFattreePaths(f4)
	csr4 := route.MaterializeCSR(ps4)
	cl.ExpectMatrix(route.MatrixSignature(csr4, f4.NumLinks()), f4.NumLinks())
	if err := cl.Ping(); err == nil {
		t.Fatal("ping against a Fattree(8) shard with a Fattree(4) pin should fail")
	} else if !strings.Contains(err.Error(), "engine mismatch") {
		t.Fatalf("mismatch error %q lacks diagnosis", err)
	}
}

// TestConstructRejectsUnboundedMaxElements pins the server-side cap on the
// one option that sizes shard memory: a coordinator cannot disable the
// refinement guard remotely. (A value past the frame's int32 range does
// not even decode; this one decodes and fails validation.)
func TestConstructRejectsUnboundedMaxElements(t *testing.T) {
	srv, ts := testServer(t, DefaultLimits())
	body := frameOf(ConstructRequest{
		V: SchemaVersion, MatrixSig: srv.MatrixSig(), NumLinks: srv.numLinks,
		Opt:   PMCOptions{Alpha: 1, Beta: 1, MaxElements: 1<<31 - 1},
		Comps: []Component{{Links: []topo.LinkID{0}, Paths: []int32{0}}},
	})
	resp := postBody(t, ts.URL+"/v1/construct", ContentTypeBinary, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("max_elements 1<<31-1: status %d, want 400", resp.StatusCode)
	}
	if eb := errorBody(t, resp); !strings.Contains(eb, "max_elements") {
		t.Fatalf("error %q does not name the offending field", eb)
	}
}

// constructWorkOrder builds the coordinator-side work order for a full
// decomposition of ps — a semantically valid construction any shard built
// over the same path set must accept.
func constructWorkOrder(ps route.PathSet, numLinks int) shard.ConstructRequest {
	csr := route.MaterializeCSR(ps)
	return shard.ConstructRequest{
		MatrixSig: route.MatrixSignature(csr, numLinks),
		NumLinks:  numLinks,
		Comps:     route.DecomposeCSR(csr, numLinks),
		Opt:       pmc.Options{Alpha: 1, Beta: 1, Ablate: pmc.NoSymmetry},
	}
}

// TestOversizedResponseRejected is the response-side mirror of the
// request body limit: a shard that answers with an unbounded body cannot
// balloon coordinator memory — the client stops reading at its limit and
// reports a final, structured error.
func TestOversizedResponseRejected(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/construct", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypeBinary)
		junk := bytes.Repeat([]byte(" "), 1<<16)
		_, _ = w.Write(junk)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := Dial(64, ts.URL, ClientOptions{Attempts: 1, MaxResponseBytes: 4096})
	defer cl.Close()
	_, err := cl.Construct(constructWorkOrder(ps, f.NumLinks()))
	if err == nil {
		t.Fatal("oversized response must be an error")
	}
	if !strings.Contains(err.Error(), "exceeds 4096 bytes") {
		t.Fatalf("oversized-response error %q does not name the bound", err)
	}
}

// TestClientRejectsNonBinaryReply: a shard that answers 200 with a JSON
// body — a server that predates the one-codec wire — fails the call with
// a decode error on the first attempt instead of yielding an empty
// selection or verdict set, and the client does not retry: the shard has
// already spoken.
func TestClientRejectsNonBinaryReply(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	probes := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {1, 2}}, 3)
	window := pll.Window{Lossy: []pll.Observation{{Path: 0, Sent: 100, Lost: 60}}}
	var hits atomic.Int64
	mux := http.NewServeMux()
	for path, reply := range map[string]any{
		"/v1/construct": ConstructResponse{V: SchemaVersion, Selected: []int{0, 1, 2}},
		"/v1/localize":  LocalizeResponse{V: SchemaVersion, Bad: []Verdict{{Link: 1, Rate: 0.5}}},
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(reply)
		})
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := Dial(65, ts.URL, ClientOptions{})
	defer cl.Close()

	for name, call := range map[string]func() error{
		"construct": func() error {
			_, err := cl.Construct(constructWorkOrder(ps, f.NumLinks()))
			return err
		},
		"localize": func() error {
			_, err := cl.Localize(0, partOf(probes), window, pll.DefaultConfig())
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			before := hits.Load()
			err := call()
			if err == nil {
				t.Fatal("a JSON reply was accepted")
			}
			if !strings.Contains(err.Error(), "decode response") || !strings.Contains(err.Error(), "magic") {
				t.Fatalf("error %q does not diagnose an undecodable frame", err)
			}
			if n := hits.Load() - before; n != 1 {
				t.Fatalf("%d requests reached the shard, want 1 (no retry after a reply)", n)
			}
		})
	}
}

// TestByteCountersCountFailedAttempts pins honest accounting: a request
// whose shard dies after reading the body still moved those bytes, and
// the counters must say so — under the default transport they count at
// the connection, so headers, failed attempts and pings are all wire
// truth.
func TestByteCountersCountFailedAttempts(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	req := constructWorkOrder(ps, f.NumLinks())
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/construct", func(w http.ResponseWriter, r *http.Request) {
		// Drain the request (the bytes really cross the wire), then kill
		// the connection before any response.
		_, _ = io.Copy(io.Discard, r.Body)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := Dial(65, ts.URL, ClientOptions{})
	defer cl.Close()
	wreq := encodeConstruct(req)
	body := wreq.encodeBinary()
	outBefore, retriesBefore := cl.bytesOut.Value(), cl.retries.Value()
	if _, err := cl.Construct(req); err == nil {
		t.Fatal("construct against a connection-killing shard must fail")
	}
	moved := cl.bytesOut.Value() - outBefore
	// Two attempts (default one retry), each shipping the full frame plus
	// headers.
	if want := 2 * int64(len(body)); moved < want {
		t.Fatalf("bytes_out counted %d, want >= %d — failed attempts moved bytes the counter missed", moved, want)
	}
	if got := cl.retries.Value() - retriesBefore; got != 1 {
		t.Fatalf("retries counted %d, want 1", got)
	}
}

// TestPingCountsWireBytes: a liveness probe is wire traffic too — request
// bytes out, response bytes in.
func TestPingCountsWireBytes(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	ts := httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
	defer ts.Close()

	cl := Dial(66, ts.URL, ClientOptions{})
	defer cl.Close()
	inBefore, outBefore := cl.bytesIn.Value(), cl.bytesOut.Value()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if out := cl.bytesOut.Value() - outBefore; out == 0 {
		t.Fatal("ping request moved no counted bytes — GET accounting still missing")
	}
	if in := cl.bytesIn.Value() - inBefore; in == 0 {
		t.Fatal("ping response moved no counted bytes")
	}
}

// TestConnectionReuse pins the tuned transport: sequential calls to one
// shard hold a single keep-alive connection instead of redialing, and
// the reuse counters prove it.
func TestConnectionReuse(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	ts := httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
	defer ts.Close()

	cl := Dial(67, ts.URL, ClientOptions{})
	defer cl.Close()
	openedBefore, reusedBefore := cl.connsOpened.Value(), cl.connsReused.Value()
	req := constructWorkOrder(ps, f.NumLinks())
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Construct(req); err != nil {
		t.Fatal(err)
	}
	opened := cl.connsOpened.Value() - openedBefore
	reused := cl.connsReused.Value() - reusedBefore
	if opened != 1 || reused != 2 {
		t.Fatalf("3 sequential calls: opened %d / reused %d connections, want 1 / 2 — keep-alive is not holding", opened, reused)
	}
}

// TestMaskedConstructOverLoopback: a valid /construct request for a
// component the down-link mask has cut into, under the served options. On
// the parent of this test it killed the shard process — orbit images
// outside the component panicked a worker goroutine no handler recovers.
// The shard must answer 200 with the in-process selection.
func TestMaskedConstructOverLoopback(t *testing.T) {
	for _, c := range []struct{ k, alpha, beta int }{{4, 3, 1}, {8, 3, 1}, {6, 1, 2}} {
		f := topo.MustFattree(c.k)
		ps := route.NewFattreePaths(f)
		csr := route.MaterializeCSR(ps)
		ts := httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
		defer ts.Close()
		for _, down := range []topo.LinkID{f.SwitchLinks()[0], f.SwitchLinks()[len(f.SwitchLinks())-1]} {
			req := shard.ConstructRequest{
				MatrixSig: route.MatrixSignature(csr, f.NumLinks()),
				NumLinks:  f.NumLinks(),
				Comps:     route.DecomposeMasked(csr, f.NumLinks(), []topo.LinkID{down}),
				Opt:       pmc.Options{Alpha: c.alpha, Beta: c.beta},
			}
			ref, err := pmc.ConstructComponents(ps, csr, req.Comps, f.NumLinks(), req.Opt)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Stats.CoverageMet || !ref.Stats.IdentMet {
				t.Fatalf("Fattree(%d) link %d down: targets unmet in process: %+v", c.k, down, ref.Stats)
			}
			cl := Dial(0, ts.URL, ClientOptions{})
			res, err := cl.Construct(req)
			if err != nil {
				t.Fatalf("Fattree(%d) link %d down: %v", c.k, down, err)
			}
			if !reflect.DeepEqual(res.Selected, ref.Selected) {
				t.Errorf("Fattree(%d) link %d down: selection differs from in-process", c.k, down)
			}
			// The same component short of a link its paths use passes the
			// wire's shape checks; the engine must refuse it (422), not die.
			req.Comps[0].Links = req.Comps[0].Links[1:]
			if _, err := cl.Construct(req); err == nil || !strings.Contains(err.Error(), "leaves its component") {
				t.Errorf("Fattree(%d): inconsistent component answered %v, want a leaves-its-component rejection", c.k, err)
			}
			if err := cl.Ping(); err != nil {
				t.Errorf("Fattree(%d): shard did not survive an inconsistent component: %v", c.k, err)
			}
			cl.Close()
		}
	}
}

// TestForeignRowConstructOverLoopback: a component with a pristine
// component's links and path count, whose last path is swapped for the
// next component's, is not a pristine component. The shard's class check
// must compare every row of it rather than only those its class leader
// read, so the construction answers an error, whether the leader comes in
// the same request or was remembered from an earlier one.
func TestForeignRowConstructOverLoopback(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := csr.Pristine(f.NumLinks()).Comps
	paths := comps[1].Paths.Append(nil)
	last := len(paths) - 1
	paths[last]++
	bad := route.Component{Links: comps[1].Links, Paths: route.PathList(paths)}
	if comps[2].Paths.Find(paths[last]) < 0 || len(ps.AppendRepresentatives(route.PathList(paths[last:]), nil)) != 0 {
		t.Fatalf("path %d is not a non-representative path of component 2", paths[last])
	}
	ts := httptest.NewServer(NewServer(ps, f.NumLinks()).Handler())
	defer ts.Close()
	cl := Dial(0, ts.URL, ClientOptions{})
	defer cl.Close()
	for _, tc := range []struct {
		name  string
		comps []route.Component
		ok    bool
	}{
		{"leader and foreign member", []route.Component{comps[0], bad}, false},
		{"leader alone", comps[:1], true},
		{"foreign member of a remembered class", []route.Component{bad}, false},
	} {
		_, err := cl.Construct(shard.ConstructRequest{
			MatrixSig: route.MatrixSignature(csr, f.NumLinks()),
			NumLinks:  f.NumLinks(),
			Comps:     tc.comps,
			Opt:       pmc.Options{Alpha: 3, Beta: 1},
		})
		var se *statusError
		switch {
		case tc.ok && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case !tc.ok && (!errors.As(err, &se) || se.status != http.StatusUnprocessableEntity || !strings.Contains(se.msg, "leaves its component")):
			t.Fatalf("%s answered %v, want a 422 leaves-its-component rejection", tc.name, err)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("shard did not survive the foreign component: %v", err)
	}
}
