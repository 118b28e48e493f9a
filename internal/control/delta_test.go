package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// TestPinglistETagNotModified pins satellite behavior: GET /pinglist
// carries a version ETag, If-None-Match answers 304 with the counter
// bumped, and a cycle that does not change the node's work order keeps
// the ETag valid.
func TestPinglistETagNotModified(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	node := c.PingerNodes()[0]

	get := func(inm string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/pinglist?node=%d", srv.URL, node), nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pl Pinglist
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
				t.Fatal(err)
			}
		}
		return resp, resp.Header.Get("ETag")
	}

	resp, etag := get("")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("cold fetch: status %d etag %q", resp.StatusCode, etag)
	}
	before := obs.TakeSnapshot().Counters["control_pinglist_not_modified"]
	resp, _ = get(etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional fetch: status %d, want 304", resp.StatusCode)
	}
	if got := obs.TakeSnapshot().Counters["control_pinglist_not_modified"]; got != before+1 {
		t.Fatalf("control_pinglist_not_modified = %d, want %d", got, before+1)
	}

	// A cycle with no churn and no unhealthy change must not invalidate
	// the ETag: the pinglist version is content-derived, not cycle-derived.
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	resp, etag2 := get(etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("post-cycle conditional fetch: status %d, want 304", resp.StatusCode)
	}
	if etag2 != etag {
		t.Fatalf("no-change cycle moved the ETag %q -> %q", etag, etag2)
	}
}

// TestPinglistServesStoredETag: /pinglist answers with the ETag stored
// when the node's pinglist was published, and matches If-None-Match
// against it; it formats none per request.
func TestPinglistServesStoredETag(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	node := c.PingerNodes()[0]
	const stored = `"stored"`
	c.mu.Lock()
	c.nodes[node].etag = stored
	c.mu.Unlock()

	for _, tc := range []struct {
		inm  string
		want int
	}{{"", http.StatusOK}, {stored, http.StatusNotModified}} {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/pinglist?node=%d", srv.URL, node), nil)
		if tc.inm != "" {
			req.Header.Set("If-None-Match", tc.inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want || resp.Header.Get("ETag") != stored {
			t.Fatalf("If-None-Match %q: status %d, ETag %q; want %d, %q", tc.inm, resp.StatusCode, resp.Header.Get("ETag"), tc.want, stored)
		}
	}
}

// TestPinglistDeltaIsAFrame: GET /pinglist?since= answers the kind-7
// frame whatever the request asks for (here: no Accept header at all), and
// since=0 is a full snapshot of the served pinglist.
func TestPinglistDeltaIsAFrame(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	node := c.PingerNodes()[0]

	resp, err := srv.Client().Get(fmt.Sprintf("%s/pinglist?node=%d&since=0", srv.URL, node))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != shardrpc.ContentTypeBinary {
		t.Fatalf("since=0: status %d content type %q, want 200 %s", resp.StatusCode, ct, shardrpc.ContentTypeBinary)
	}
	d, notModified, err := FetchPinglistDelta(srv.Client(), srv.URL, node, 0)
	if err != nil || notModified || d == nil || !d.Full() {
		t.Fatalf("FetchPinglistDelta since=0: %+v notModified=%v err=%v, want a full snapshot", d, notModified, err)
	}
	got := ApplyDelta(&Pinglist{Node: node}, d)
	if want := c.PinglistFor(node); !reflect.DeepEqual(normalizePinglist(got), normalizePinglist(want)) {
		t.Fatalf("snapshot applies to %+v, served %+v", got, want)
	}
}

// TestUnhealthyChangeReusesConstruction pins satellite 1: changing the
// unhealthy server set re-runs only the serve phase — the construction
// plane reuses every component selection (zero scoring work).
func TestUnhealthyChangeReusesConstruction(t *testing.T) {
	f := topo.MustFattree(4)
	cfg := DefaultConfig()
	c := New(f, cfg)
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	if c.PMCStats().ScoreEvals == 0 {
		t.Fatal("cold cycle did no scoring work")
	}
	sick := f.ServerID[0][0][0]
	if err := c.RunCycle(map[topo.NodeID]bool{sick: true}); err != nil {
		t.Fatal(err)
	}
	if got := c.PMCStats().ScoreEvals; got != 0 {
		t.Fatalf("unhealthy-set change cost %d score evals, want 0 (selection reuse)", got)
	}
	// And the serve phase did change: the sick server left the pinger set.
	for _, n := range c.PingerNodes() {
		if n == sick {
			t.Fatal("unhealthy server still a pinger")
		}
	}
}

// normalizePinglist strips the version for content comparison across
// controllers with different cycle counts.
func normalizePinglist(pl *Pinglist) *Pinglist {
	if pl == nil {
		return nil
	}
	cp := *pl
	cp.Version = 0
	return &cp
}

// assertSameServing compares the full served state (matrix paths and every
// pinglist, versions normalized) of two controllers.
func assertSameServing(t testing.TB, got, want *Controller, ctx string) {
	t.Helper()
	gm, wm := got.matrix, want.matrix
	if !reflect.DeepEqual(gm.Paths, wm.Paths) || gm.NumLinks != wm.NumLinks {
		t.Fatalf("%s: served matrix diverges (%d vs %d paths)", ctx, len(gm.Paths), len(wm.Paths))
	}
	if len(got.PingerNodes()) != len(want.PingerNodes()) {
		t.Fatalf("%s: pinger set size %d vs %d", ctx, len(got.PingerNodes()), len(want.PingerNodes()))
	}
	for _, n := range want.PingerNodes() {
		g := normalizePinglist(got.PinglistFor(n))
		w := normalizePinglist(want.PinglistFor(n))
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: pinglist for node %d diverges", ctx, n)
		}
	}
}

// TestChurnEndpoint pins the admin surface: POST /churn applies the diff
// and reports it; malformed bodies answer 400.
func TestChurnEndpoint(t *testing.T) {
	c, f := newController(t)
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	l := f.SwitchLinks()[0]
	body, _ := json.Marshal(ChurnRequest{Down: []topo.LinkID{l}})
	resp, err := http.Post(srv.URL+"/churn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr ChurnResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("churn: status %d", resp.StatusCode)
	}
	if len(cr.Down) != 1 || cr.Down[0] != l {
		t.Fatalf("churn response down = %v, want [%d]", cr.Down, l)
	}
	if cr.DeactivatedPaths == 0 {
		t.Fatal("downing a switch link deactivated no candidate paths")
	}

	// Downing the same link again is a validation error, answered 400.
	resp, err = http.Post(srv.URL+"/churn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double-down: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/churn", "application/json", bytes.NewReader([]byte("{bad")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Link ids are signed on the wire: a negative one is a validation error
	// like any other out-of-range id, not an index into the differ's arrays.
	bad := badRequests.Value()
	for _, body := range []string{`{"down":[-1]}`, `{"up":[-1]}`} {
		resp, err = http.Post(srv.URL+"/churn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := badRequests.Value() - bad; got != 2 {
		t.Fatalf("bad-request counter moved by %d, want 2", got)
	}
	if down := c.DownLinks(); len(down) != 1 || down[0] != l {
		t.Fatalf("down set after rejected churn = %v, want [%d]", down, l)
	}
}
