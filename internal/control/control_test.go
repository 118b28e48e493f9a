package control

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/topo"
)

func newController(t *testing.T) (*Controller, *topo.Fattree) {
	t.Helper()
	f := topo.MustFattree(4)
	cfg := DefaultConfig()
	cfg.ReportURL = "http://diagnoser.test"
	c := New(f, cfg)
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	return c, f
}

func TestRunCycleBuildsConsistentState(t *testing.T) {
	c, f := newController(t)
	if c.Version() != 1 {
		t.Fatalf("version = %d, want 1", c.Version())
	}
	m := c.ProbeMatrix()
	if m == nil || m.NumPaths() == 0 {
		t.Fatal("no matrix")
	}

	// The route-level matrix must cover every switch link with at least
	// Alpha paths (server links are covered by intra-rack routes).
	v := pmc.Verify(m, f.SwitchLinks(), false)
	if v.MinCoverage < c.Cfg.Alpha {
		t.Fatalf("matrix coverage %d below alpha %d", v.MinCoverage, c.Cfg.Alpha)
	}
	var all []topo.LinkID
	for _, l := range f.Links {
		all = append(all, l.ID)
	}
	if cov := m.MinCoverage(all); cov < 1 {
		t.Fatalf("some link (incl. server links) uncovered: min coverage %d", cov)
	}

	// Pinglist routes must be walkable: consecutive hops adjacent, first
	// hop is the pinger, last is the responder.
	for _, node := range c.PingerNodes() {
		pl := c.PinglistFor(node)
		if pl.ReportURL != "http://diagnoser.test" {
			t.Fatalf("pinglist report URL %q", pl.ReportURL)
		}
		for _, e := range pl.Entries {
			if e.Route[0] != node {
				t.Fatalf("entry starts at %d, pinger is %d", e.Route[0], node)
			}
			for i := 0; i+1 < len(e.Route); i++ {
				if _, ok := f.LinkBetween(e.Route[i], e.Route[i+1]); !ok {
					t.Fatalf("route hop %d-%d not adjacent", e.Route[i], e.Route[i+1])
				}
			}
			if len(e.FlowLabels) != c.Cfg.FlowLabels {
				t.Fatalf("entry has %d flow labels, want %d", len(e.FlowLabels), c.Cfg.FlowLabels)
			}
		}
	}
}

// TestRedundantPingers: every ToR-level path must appear in at least
// Redundancy pinglists (paper §3.1: each path goes to >= 2 pingers).
func TestRedundantPingers(t *testing.T) {
	c, f := newController(t)
	m := c.ProbeMatrix()
	// Count route-level paths per (srcToR via links signature): redundancy
	// means the number of matrix rows with identical switch-level links is
	// >= 2 for ToR-level paths.
	type sig string
	counts := map[sig]int{}
	for _, links := range m.PathLinks {
		var switchLinks []topo.LinkID
		for _, l := range links {
			if f.Link(l).Tier != topo.TierServerEdge {
				switchLinks = append(switchLinks, l)
			}
		}
		if len(switchLinks) == 0 {
			continue // intra-rack route
		}
		b := make([]byte, 0, len(switchLinks)*4)
		for _, l := range switchLinks {
			b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
		}
		counts[sig(b)]++
	}
	for s, n := range counts {
		if n < c.Cfg.Redundancy {
			t.Fatalf("a ToR-level path has only %d probing routes, want >= %d (%x)", n, c.Cfg.Redundancy, s)
		}
	}
}

func TestUnhealthyServersSkipped(t *testing.T) {
	f := topo.MustFattree(4)
	c := New(f, DefaultConfig())
	// Mark the first server of rack (0,0) unhealthy: it must not appear as
	// pinger or responder.
	sick := f.ServerID[0][0][0]
	if err := c.RunCycle(map[topo.NodeID]bool{sick: true}); err != nil {
		t.Fatal(err)
	}
	for _, node := range c.PingerNodes() {
		if node == sick {
			t.Fatal("unhealthy server selected as pinger")
		}
		for _, e := range c.PinglistFor(node).Entries {
			if e.Route[len(e.Route)-1] == sick {
				t.Fatal("unhealthy server selected as responder")
			}
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := srv.Client()

	node := c.PingerNodes()[0]
	pl, err := FetchPinglist(client, srv.URL, node)
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil || len(pl.Entries) == 0 {
		t.Fatal("empty pinglist over HTTP")
	}
	if pl.Version != 1 {
		t.Fatalf("version %d", pl.Version)
	}

	// A non-pinger gets nil.
	pl2, err := FetchPinglist(client, srv.URL, 99999)
	if err != nil || pl2 != nil {
		t.Fatalf("non-pinger: %v %v", pl2, err)
	}

	resp, err := client.Get(srv.URL + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Matrix
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || len(m.Paths) != c.ProbeMatrix().NumPaths() {
		t.Fatalf("matrix over HTTP: version=%d paths=%d", m.Version, len(m.Paths))
	}
}

func TestCycleVersionAdvances(t *testing.T) {
	c, _ := newController(t)
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	if c.Version() != 2 {
		t.Fatalf("version = %d, want 2", c.Version())
	}
}

// TestShardedServingIdentical pins the serving-side guarantee of the
// sharded controller plane: the served matrix and every pinglist are
// byte-identical to a single-controller cycle, for any shard count — the
// pinger protocol cannot tell the difference.
func TestShardedServingIdentical(t *testing.T) {
	f := topo.MustFattree(4)
	cfg := DefaultConfig()
	cfg.ReportURL = "http://diagnoser.test"
	single := New(f, cfg)
	if err := single.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		scfg := cfg
		scfg.Shards = shards
		sharded := New(f, scfg)
		if err := sharded.RunCycle(nil); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		t.Cleanup(sharded.Close)
		if sharded.Coordinator() == nil {
			t.Fatalf("shards=%d: no coordinator", shards)
		}

		want, _ := json.Marshal(single.matrix)
		got, _ := json.Marshal(sharded.matrix)
		if !bytes.Equal(want, got) {
			t.Errorf("shards=%d: served matrix differs from single controller", shards)
		}
		for _, node := range single.PingerNodes() {
			w, _ := json.Marshal(single.PinglistFor(node))
			g, _ := json.Marshal(sharded.PinglistFor(node))
			if !bytes.Equal(w, g) {
				t.Errorf("shards=%d: pinglist for node %d differs", shards, node)
			}
		}
		if len(sharded.PingerNodes()) != len(single.PingerNodes()) {
			t.Errorf("shards=%d: pinger set size differs", shards)
		}
	}
}

// TestHandlerRejectsMalformedRequests pins the API error contract: wrong
// methods and undecodable parameters answer with accurate status codes and
// JSON bodies, and bump control_bad_requests.
func TestHandlerRejectsMalformedRequests(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	before := obs.TakeSnapshot().Counters["control_bad_requests"]

	resp, err := http.Get(srv.URL + "/pinglist?node=banana")
	if err != nil {
		t.Fatal(err)
	}
	var body httpx.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || body.Error == "" {
		t.Fatalf("bad node id: status %d body %+v, want 400 with error", resp.StatusCode, body)
	}

	resp, err = http.Post(srv.URL+"/matrix", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /matrix: status %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodGet {
		t.Fatalf("POST /matrix: Allow %q, want GET", resp.Header.Get("Allow"))
	}

	resp, err = http.Get(srv.URL + "/pinglist?node=999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node: status %d, want 404", resp.StatusCode)
	}

	if got := obs.TakeSnapshot().Counters["control_bad_requests"]; got != before+2 {
		t.Fatalf("control_bad_requests = %d, want %d (+2: bad id, wrong method)", got, before+2)
	}
}

// TestShardsEndpointExposesPlacement pins the operator surface: GET
// /shards answers {"sharded":false} on a single-controller boot, and on a
// sharded boot lists every shard with its liveness, transport address and
// owned components, plus every component with its owner — placement
// without log scraping.
func TestShardsEndpointExposesPlacement(t *testing.T) {
	single, _ := newController(t)
	srv := httptest.NewServer(single.Handler())
	t.Cleanup(srv.Close)
	var view ShardsView
	resp, err := http.Get(srv.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Sharded || view.Status != nil {
		t.Fatalf("single controller /shards = %+v, want sharded=false with no status", view)
	}

	f := topo.MustFattree(4)
	cfg := DefaultConfig()
	cfg.ReportURL = "http://diagnoser.test"
	cfg.Shards = 2
	sharded := New(f, cfg)
	if err := sharded.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sharded.Close)
	ssrv := httptest.NewServer(sharded.Handler())
	t.Cleanup(ssrv.Close)

	resp, err = http.Get(ssrv.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !view.Sharded || view.Status == nil {
		t.Fatalf("sharded /shards = %+v, want sharded=true with status", view)
	}
	if len(view.Status.Shards) != 2 {
		t.Fatalf("status lists %d shards, want 2", len(view.Status.Shards))
	}
	owned := 0
	for _, si := range view.Status.Shards {
		if !si.Alive {
			t.Errorf("shard %d reported dead on a healthy plane", si.ID)
		}
		if si.Addr != "in-process" {
			t.Errorf("shard %d addr %q, want in-process", si.ID, si.Addr)
		}
		owned += len(si.Components)
	}
	if want := sharded.Coordinator().Components(); owned != want || len(view.Status.Components) != want {
		t.Errorf("placement covers %d components (list %d), want %d",
			owned, len(view.Status.Components), want)
	}
	for _, ci := range view.Status.Components {
		if ci.Shard < 0 || ci.Shard >= 2 {
			t.Errorf("component %d assigned to nonexistent shard %d", ci.Index, ci.Shard)
		}
	}
}

// TestColdCycleStoresNothingPerCandidate: a cold Fattree(16) cycle names
// each pristine component's 130 048 paths as a span, and neither the
// coordinator nor its shard lists them, so the whole cycle — enumeration to
// pinglists — allocates a few MB, not the 8 MB two copies of every
// component's path list took.
func TestColdCycleStoresNothingPerCandidate(t *testing.T) {
	f := topo.MustFattree(16)
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(f, cfg)
	err := c.RunCycle(nil)
	runtime.ReadMemStats(&after)
	defer c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.PMCStats(); st.Selected != 2816 {
		t.Fatalf("the cycle selected %d paths, want 2816", st.Selected)
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("a cold Fattree(16) cycle allocated %.2f MB", alloc)
	if alloc >= 6 {
		t.Fatalf("a cold Fattree(16) cycle allocated %.2f MB, want under 6 MB", alloc)
	}
}

// TestColdCycleCounts pins what a cold cycle's greedy does on the two
// served scales the construction workloads run, and on two larger β=2
// ones: its score evaluations and selected paths. Any change to the lazy
// greedy's pop order, its caches or its dirty tracking moves them. The
// evaluations are a function of every step's dirty set, so the β=2 rows
// pin that a step's affected-link walk, stopped once its links reach every
// candidate, still dirties what the whole walk would, wherever in the
// step it stops.
func TestColdCycleCounts(t *testing.T) {
	for _, c := range []struct {
		k, alpha, beta int
		evals          int64
		selected       int
	}{
		{16, 3, 1, 31430, 2816},
		{12, 1, 2, 4195, 1080},
		{16, 1, 2, 13645, 2680},
		{24, 1, 2, 74163, 9216},
	} {
		cfg := DefaultConfig()
		cfg.Alpha, cfg.Beta = c.alpha, c.beta
		ctl := New(topo.MustFattree(c.k), cfg)
		err := ctl.RunCycle(nil)
		st := ctl.PMCStats()
		ctl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.ScoreEvals != c.evals || st.Selected != c.selected {
			t.Errorf("Fattree(%d) (%d,%d): %d score evaluations, %d paths selected; want %d, %d",
				c.k, c.alpha, c.beta, st.ScoreEvals, st.Selected, c.evals, c.selected)
		}
	}
}

// TestCommitReleasesLockOnPanic: a panic inside the commit block leaves
// c.mu free, so the readers and Close behind it do not hang.
func TestCommitReleasesLockOnPanic(t *testing.T) {
	c := New(topo.MustFattree(4), DefaultConfig())
	c.nodes = nil // the commit's first node-state write panics
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("commit did not panic")
			}
		}()
		next := serveState{orders: []order{{pl: &Pinglist{Node: 1}}}}
		c.commit(1, next, []bool{true}, serveState{}, nil, pmc.Stats{})
	}()
	if !c.mu.TryLock() {
		t.Fatal("a panicking commit left c.mu held")
	}
	c.mu.Unlock()
}

// TestCheckPathIDs pins the path-ID bound: stride IDs per candidate path
// plus one per server must fit 32 bits. A Fattree(56)'s ~1.93 G candidate
// paths fit once each, not three times over; exactly 2^32 IDs
// (0 .. MaxUint32) fit, and one more does not.
func TestCheckPathIDs(t *testing.T) {
	const fattree56Candidates, fattree56Servers = 1_930_000_000, 56 * 56 * 56 / 4
	cases := []struct {
		name                        string
		candidates, stride, servers int
		fits                        bool
	}{
		{"fattree56-redundancy1", fattree56Candidates, 1, fattree56Servers, true},
		{"fattree56-redundancy3", fattree56Candidates, 3, fattree56Servers, false},
		{"exactly2^32", 1 << 31, 2, 0, true},
		{"2^32+1", 1 << 31, 2, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkPathIDs(tc.candidates, tc.stride, tc.servers)
			if (err == nil) != tc.fits {
				t.Fatalf("checkPathIDs(%d, %d, %d) = %v, want fits = %v",
					tc.candidates, tc.stride, tc.servers, err, tc.fits)
			}
		})
	}
}
