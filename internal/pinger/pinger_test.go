package pinger

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/fabric"
	"github.com/detector-net/detector/internal/responder"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// stubControlPlane serves a fixed pinglist and collects reports.
type stubControlPlane struct {
	mu       sync.Mutex
	reports  []Report
	pinglist control.Pinglist
	srv      *httptest.Server
}

func newStub(t *testing.T, pl control.Pinglist) *stubControlPlane {
	s := &stubControlPlane{pinglist: pl}
	mux := http.NewServeMux()
	mux.HandleFunc("/pinglist", func(w http.ResponseWriter, r *http.Request) {
		pl := s.pinglist
		pl.ReportURL = s.srv.URL
		json.NewEncoder(w).Encode(pl)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		rep, err := decodeReport(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.reports = append(s.reports, *rep)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubControlPlane) reportCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

func (s *stubControlPlane) totals() (sent, lost int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rep := range s.reports {
		for _, r := range rep.Results {
			sent += r.Sent
			lost += r.Lost
		}
	}
	return sent, lost
}

// testRig boots a Fattree(4) fabric, a responder at dst, and a pinger at
// src probing one path.
func testRig(t *testing.T, ruleMut func(*fabric.RuleTable, []topo.LinkID)) (*stubControlPlane, *Pinger, []topo.LinkID) {
	t.Helper()
	f := topo.MustFattree(4)
	rules := fabric.NewRuleTable(3)
	fab, err := fabric.Start(f.Topology, rules)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)
	fab.Logf = t.Logf

	src := f.ServerID[0][0][0]
	dst := f.ServerID[2][1][0]
	r, err := responder.Start(f.Topology, rules, fab.Registry, dst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)

	// Route via core 1.
	hops := []topo.NodeID{src}
	hops = f.PathHops(f.EdgeID[0][0], f.EdgeID[2][1], 1, hops)
	hops = append(hops, dst)
	var links []topo.LinkID
	links = append(links, f.MustLink(src, f.EdgeID[0][0]))
	links = f.PathLinks(f.EdgeID[0][0], f.EdgeID[2][1], 1, links)
	links = append(links, f.MustLink(f.EdgeID[2][1], dst))
	if ruleMut != nil {
		ruleMut(rules, links)
	}

	stub := newStub(t, control.Pinglist{
		Version: 1, Node: src, RatePPS: 100, WindowMS: 300,
		Entries: []control.Entry{{
			PathID: 7, Route: hops,
			FlowLabels: []uint32{40000, 40001, 40002, 40003},
		}},
	})
	p, err := Start(f.Topology, rules, fab.Registry, src, stub.srv.URL, Options{
		Timeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("pinger not started")
	}
	t.Cleanup(p.Stop)
	return stub, p, links
}

func TestPingerCleanPathReportsNoLoss(t *testing.T) {
	stub, _, _ := testRig(t, nil)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if stub.reportCount() >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sent, lost := stub.totals()
	if sent == 0 {
		t.Fatal("no probes reported")
	}
	if lost > sent/20 {
		t.Fatalf("clean path lost %d of %d", lost, sent)
	}
}

func TestPingerCountsFullLoss(t *testing.T) {
	stub, _, _ := testRig(t, func(rules *fabric.RuleTable, links []topo.LinkID) {
		rules.Install(links[2], sim.FullLoss{})
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, lost := stub.totals(); lost > 20 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sent, lost := stub.totals()
	if sent == 0 || lost < sent*9/10 {
		t.Fatalf("full loss underreported: %d of %d", lost, sent)
	}
}

func TestPingerEchoLinkLossCounts(t *testing.T) {
	// Fail only the pinger's own server link via a reply-direction-only
	// check is not expressible with undirected rules; instead fail the
	// responder's server link: requests die at the last hop, so the
	// responder's IngressDrop eats them and the pinger times out.
	stub, _, _ := testRig(t, func(rules *fabric.RuleTable, links []topo.LinkID) {
		rules.Install(links[len(links)-1], sim.FullLoss{})
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, lost := stub.totals(); lost > 20 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sent, lost := stub.totals()
	if sent == 0 || lost < sent*9/10 {
		t.Fatalf("responder-link loss underreported: %d of %d", lost, sent)
	}
}

func TestPingerNotAPinger(t *testing.T) {
	f := topo.MustFattree(4)
	rules := fabric.NewRuleTable(1)
	fab, err := fabric.Start(f.Topology, rules)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Stop()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not a pinger", http.StatusNotFound)
	}))
	defer srv.Close()
	p, err := Start(f.Topology, rules, fab.Registry, f.ServerID[0][0][0], srv.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		p.Stop()
		t.Fatal("pinger started without a pinglist")
	}
}

func TestResponderCounters(t *testing.T) {
	f := topo.MustFattree(4)
	rules := fabric.NewRuleTable(1)
	fab, err := fabric.Start(f.Topology, rules)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Stop()
	dst := f.ServerID[1][1][1]
	r, err := responder.Start(f.Topology, rules, fab.Registry, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if r.Echoed() != 0 || r.Dropped() != 0 {
		t.Fatal("fresh responder has traffic")
	}
}
