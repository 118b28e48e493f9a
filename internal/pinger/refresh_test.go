package pinger

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/fabric"
	"github.com/detector-net/detector/internal/responder"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// deltaStub is a control plane with a version history: the cold fetch
// serves the full pinglist, a since= fetch at the current version answers
// 304, and a since= fetch one version behind serves the configured delta.
type deltaStub struct {
	mu          sync.Mutex
	cur         control.Pinglist
	delta       *shardrpc.PinglistDelta
	reports     []Report
	notModified int
	deltasSent  int
	srv         *httptest.Server
}

func newDeltaStub(t *testing.T, pl control.Pinglist) *deltaStub {
	s := &deltaStub{cur: pl}
	mux := http.NewServeMux()
	mux.HandleFunc("/pinglist", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		cur := s.cur
		cur.ReportURL = s.srv.URL
		d := s.delta
		s.mu.Unlock()
		since, _ := strconv.Atoi(r.URL.Query().Get("since"))
		switch {
		case since >= cur.Version:
			s.mu.Lock()
			s.notModified++
			s.mu.Unlock()
			w.WriteHeader(http.StatusNotModified)
		case since > 0 && d != nil && d.FromVersion == since:
			s.mu.Lock()
			s.deltasSent++
			s.mu.Unlock()
			json.NewEncoder(w).Encode(d)
		default:
			json.NewEncoder(w).Encode(cur)
		}
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		var rep Report
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.reports = append(s.reports, rep)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// TestPingerAppliesDelta drives a v1 -> v2 pinglist change through the
// pinger's window-boundary refresh: the removed path stops probing, the
// added path starts, and the untouched path keeps its warm state object.
func TestPingerAppliesDelta(t *testing.T) {
	f := topo.MustFattree(4)
	rules := fabric.NewRuleTable(3)
	fab, err := fabric.Start(f.Topology, rules)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)

	src := f.ServerID[0][0][0]
	dst := f.ServerID[2][1][0]
	r, err := responder.Start(f.Topology, rules, fab.Registry, dst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)

	route := func(core int) []topo.NodeID {
		hops := []topo.NodeID{src}
		hops = f.PathHops(f.EdgeID[0][0], f.EdgeID[2][1], core, hops)
		return append(hops, dst)
	}
	labels := []uint32{40000, 40001, 40002, 40003}
	entry7 := control.Entry{PathID: 7, Route: route(1), FlowLabels: labels}
	entry8 := control.Entry{PathID: 8, Route: route(0), FlowLabels: labels}
	entry9 := control.Entry{PathID: 9, Route: route(2), FlowLabels: labels}

	stub := newDeltaStub(t, control.Pinglist{
		Version: 1, Node: src, RatePPS: 100, WindowMS: 120,
		Entries: []control.Entry{entry7, entry8},
	})
	p, err := Start(f.Topology, rules, fab.Registry, src, stub.srv.URL, Options{
		Timeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("pinger not started")
	}
	t.Cleanup(p.Stop)

	// Let a couple of windows close so the steady-state refresh has hit the
	// 304 path and path 8 has accumulated warm per-path state.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		stub.mu.Lock()
		nm := stub.notModified
		stub.mu.Unlock()
		if nm >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stub.mu.Lock()
	if stub.notModified < 2 {
		stub.mu.Unlock()
		t.Fatal("steady-state refresh never answered 304")
	}
	stub.mu.Unlock()

	p.mu.Lock()
	var warm8 *pathState
	for _, st := range p.paths {
		if st.entry.PathID == 8 {
			warm8 = st
		}
	}
	p.mu.Unlock()
	if warm8 == nil {
		t.Fatal("path 8 missing before churn")
	}

	// Publish version 2: path 7 removed, path 9 added, path 8 untouched.
	stub.mu.Lock()
	stub.cur = control.Pinglist{
		Version: 2, Node: src, RatePPS: 100, WindowMS: 120,
		Entries: []control.Entry{entry8, entry9},
	}
	stub.delta = &shardrpc.PinglistDelta{
		Node: src, FromVersion: 1, Version: 2,
		RatePPS: 100, WindowMS: 120, ReportURL: stub.srv.URL,
		Removed: []uint32{7},
		Added:   []shardrpc.PingEntry{{PathID: 9, Route: entry9.Route, FlowLabels: labels}},
	}
	stub.mu.Unlock()

	// Polled through Pinglist(), the accessor that shares p.mu with the
	// refresh's swap: under -race this is the test of that lock.
	for time.Now().Before(deadline) {
		if p.Pinglist().Version == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p.PinglistVersion() != 2 {
		t.Fatal("pinger never applied the delta")
	}
	stub.mu.Lock()
	if stub.deltasSent == 0 {
		stub.mu.Unlock()
		t.Fatal("version moved without serving a delta")
	}
	stub.mu.Unlock()

	p.mu.Lock()
	var ids []uint32
	var kept8 *pathState
	for _, st := range p.paths {
		ids = append(ids, st.entry.PathID)
		if st.entry.PathID == 8 {
			kept8 = st
		}
	}
	for _, o := range p.pending {
		if id := p.paths[o.pathIdx].entry.PathID; id != 8 && id != 9 {
			p.mu.Unlock()
			t.Fatalf("in-flight probe mapped to path %d after churn", id)
		}
	}
	p.mu.Unlock()
	if len(ids) != 2 || ids[0] != 8 || ids[1] != 9 {
		t.Fatalf("paths after delta = %v, want [8 9]", ids)
	}
	if kept8 != warm8 {
		t.Fatal("untouched path 8 lost its warm state object across the refresh")
	}

	// Probing continues on the new work order: a report mentioning path 9
	// shows up, and post-churn reports never mention path 7 again.
	sawNine := false
	for time.Now().Before(deadline) && !sawNine {
		stub.mu.Lock()
		for _, rep := range stub.reports {
			for _, res := range rep.Results {
				if res.PathID == 9 {
					sawNine = true
				}
			}
		}
		stub.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
	}
	if !sawNine {
		t.Fatal("no probes reported on the added path")
	}
}
