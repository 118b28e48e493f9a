package pinger

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/fabric"
	"github.com/detector-net/detector/internal/topo"
)

// TestProbeInterval pins the sendLoop pacing guard: a pinglist with a
// missing or nonsense rate must not divide by zero.
func TestProbeInterval(t *testing.T) {
	cases := []struct {
		rate int
		want time.Duration
	}{
		{0, time.Millisecond},             // the old panic: time.Second / 0
		{-7, time.Millisecond},            // negative rate is equally nonsense
		{100, 10 * time.Millisecond},      // normal pacing
		{2_000_000_000, time.Millisecond}, // rate past 1e9 truncates to 0ns
	}
	for _, c := range cases {
		if got := probeInterval(c.rate); got != c.want {
			t.Errorf("probeInterval(%d) = %v, want %v", c.rate, got, c.want)
		}
	}
}

// expireRig builds a minimal pinger whose probes never leave the box: the
// registry is empty, so confirm probes count as immediate losses without a
// fabric, and expire()'s bookkeeping can be driven synchronously.
func expireRig(t *testing.T, confirmProbes int) *Pinger {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &Pinger{
		Node: 1,
		Opts: Options{Timeout: time.Millisecond, ConfirmProbes: confirmProbes},
		reg:  fabric.NewRegistry(),
		conn: conn,
		paths: []*pathState{{entry: control.Entry{
			PathID: 7, Route: []topo.NodeID{1, 2}, FlowLabels: []uint32{40000},
		}}},
		pending: make(map[uint64]outstanding),
		pend:    make(map[uint32]*pendAgg),
	}
}

// TestConfirmBurstCap pins the overshoot fix: two losses expiring in one
// sweep with one confirm already spent used to fire 2*ConfirmProbes-1
// confirms; the budget is ConfirmProbes per path per window, full stop.
func TestConfirmBurstCap(t *testing.T) {
	const confirmProbes = 2
	p := expireRig(t, confirmProbes)
	st := p.paths[0]
	st.confirms = confirmProbes - 1 // one already fired this window
	old := time.Now().Add(-time.Minute)
	p.pending[1] = outstanding{pathIdx: 0, sentAt: old}
	p.pending[2] = outstanding{pathIdx: 0, sentAt: old}

	p.expire(nil)

	if st.confirms != confirmProbes {
		t.Fatalf("confirms = %d, want exactly the budget %d", st.confirms, confirmProbes)
	}
	// The fired confirm went to an empty registry: immediate loss, and the
	// pending table must not leak it.
	if len(p.pending) != 0 {
		t.Fatalf("pending leaked: %d entries", len(p.pending))
	}
}

// TestConfirmBudgetSpentFiresNothing: losses expiring after the budget is
// gone fire no confirms at all.
func TestConfirmBudgetSpentFiresNothing(t *testing.T) {
	const confirmProbes = 2
	p := expireRig(t, confirmProbes)
	st := p.paths[0]
	st.confirms = confirmProbes
	p.pending[1] = outstanding{pathIdx: 0, sentAt: time.Now().Add(-time.Minute)}
	sentBefore := st.sent

	p.expire(nil)

	if st.confirms != confirmProbes {
		t.Fatalf("confirms = %d, want %d", st.confirms, confirmProbes)
	}
	if st.sent != sentBefore {
		t.Fatalf("confirm probes were sent past the budget")
	}
}

// flakyDiagnoser fails the first N report POSTs with a 503, then accepts.
type flakyDiagnoser struct {
	mu      sync.Mutex
	fail    int
	reports []Report
	srv     *httptest.Server
}

func newFlaky(t *testing.T, failFirst int) *flakyDiagnoser {
	fd := &flakyDiagnoser{fail: failFirst}
	mux := http.NewServeMux()
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		fd.mu.Lock()
		defer fd.mu.Unlock()
		if fd.fail > 0 {
			fd.fail--
			http.Error(w, "window closed on my foot", http.StatusServiceUnavailable)
			return
		}
		var rep Report
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fd.reports = append(fd.reports, rep)
		w.WriteHeader(http.StatusNoContent)
	})
	fd.srv = httptest.NewServer(mux)
	t.Cleanup(fd.srv.Close)
	return fd
}

func (fd *flakyDiagnoser) count() int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return len(fd.reports)
}

// TestReportRetainsOnFailure pins the silent-data-loss fix: counters from a
// window whose POST failed re-merge with the next window and arrive late
// rather than never, and pinger_report_failures records the failure.
func TestReportRetainsOnFailure(t *testing.T) {
	fd := newFlaky(t, 1)
	p := expireRig(t, 2)
	p.client = fd.srv.Client()
	p.pinglist = &control.Pinglist{Version: 3, ReportURL: fd.srv.URL, Entries: p.paths[0].entryList()}

	failuresBefore := reportFailures.Value()

	// Window 1: 10 sent, 4 lost — POST dies with a 503.
	const w = int64(300 * time.Millisecond)
	p.paths[0].acked, p.paths[0].lost = 6, 4
	p.report(1 * w)
	if got := fd.count(); got != 0 {
		t.Fatalf("failed POST delivered %d reports", got)
	}
	if reportFailures.Value() != failuresBefore+1 {
		t.Fatalf("report failure not counted: %d", reportFailures.Value()-failuresBefore)
	}

	// Window 2: 5 sent, 1 lost — ships the merged 15/5 under window 2's epoch.
	p.paths[0].acked, p.paths[0].lost = 4, 1
	p.report(2 * w)
	if got := fd.count(); got != 1 {
		t.Fatalf("got %d reports, want 1 merged", got)
	}
	// And the pending aggregate is gone: a third, quiet window ships its
	// epoch mark and none of the counters again.
	p.report(3 * w)

	fd.mu.Lock()
	defer fd.mu.Unlock()
	if len(fd.reports) != 2 {
		t.Fatalf("got %d reports, want the merged one and an empty mark", len(fd.reports))
	}
	res := fd.reports[0].Results
	if len(res) != 1 || res[0].PathID != 7 {
		t.Fatalf("results: %+v", res)
	}
	if res[0].Sent != 15 || res[0].Lost != 5 {
		t.Fatalf("merged counters sent=%d lost=%d, want 15/5", res[0].Sent, res[0].Lost)
	}
	if fd.reports[0].EndNS != 2*w {
		t.Fatalf("merged report answers for epoch boundary %d, want window 2's %d", fd.reports[0].EndNS, 2*w)
	}
	if mark := fd.reports[1]; len(mark.Results) != 0 || mark.EndNS != 3*w {
		t.Fatalf("quiet window shipped %+v, want an empty mark for boundary %d", mark, 3*w)
	}
}

// TestEmptyEpochShipsMark: a window in which nothing was probed still ships
// a frame — no results, the pinger's node, the epoch boundary — because the
// diagnoser closes the epoch on it instead of waiting out the grace.
func TestEmptyEpochShipsMark(t *testing.T) {
	fd := newFlaky(t, 0)
	p := expireRig(t, 2)
	p.client = fd.srv.Client()
	p.pinglist = &control.Pinglist{Version: 4, ReportURL: fd.srv.URL}

	const endNS = int64(17 * 300 * time.Millisecond)
	p.report(endNS)

	fd.mu.Lock()
	defer fd.mu.Unlock()
	if len(fd.reports) != 1 {
		t.Fatalf("empty epoch shipped %d frames, want its mark", len(fd.reports))
	}
	mark := fd.reports[0]
	if mark.Node != p.Node || mark.Version != 4 || mark.EndNS != endNS || len(mark.Results) != 0 {
		t.Fatalf("mark %+v, want node %d version 4 end_ns %d and no results", mark, p.Node, endNS)
	}
}

// TestRejectedReportNotRetried: a 400 means the server calls the body
// malformed — retrying it forever would wedge the report plane, so the
// aggregate drops (counted as a failure) and the next window ships only
// what it holds itself.
func TestRejectedReportNotRetried(t *testing.T) {
	var posts []Report
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rep Report
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			t.Errorf("undecodable report: %v", err)
		}
		mu.Lock()
		posts = append(posts, rep)
		mu.Unlock()
		http.Error(w, "no", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)

	p := expireRig(t, 2)
	p.client = srv.Client()
	p.pinglist = &control.Pinglist{Version: 1, ReportURL: srv.URL}
	failuresBefore := reportFailures.Value()

	p.paths[0].acked = 10
	p.report(0)
	p.report(0) // nothing pending: the mark ships, the rejected body must not

	mu.Lock()
	defer mu.Unlock()
	if len(posts) != 2 || len(posts[0].Results) != 1 {
		t.Fatalf("POSTed %+v, want the report and then a mark", posts)
	}
	if len(posts[1].Results) != 0 {
		t.Fatalf("rejected results re-POSTed: %+v", posts[1].Results)
	}
	if reportFailures.Value() != failuresBefore+2 {
		t.Fatalf("rejections not counted: %d", reportFailures.Value()-failuresBefore)
	}
}

// TestBatchWindows: with BatchWindows=3, two windows accumulate locally and
// the third ships one merged report.
func TestBatchWindows(t *testing.T) {
	fd := newFlaky(t, 0)
	p := expireRig(t, 2)
	p.client = fd.srv.Client()
	p.Opts.BatchWindows = 3
	p.pinglist = &control.Pinglist{Version: 1, ReportURL: fd.srv.URL}

	for w := 0; w < 3; w++ {
		p.paths[0].acked, p.paths[0].lost = 9, 1
		p.report(0)
		got := fd.count()
		want := 0
		if w == 2 {
			want = 1
		}
		if got != want {
			t.Fatalf("window %d: %d reports, want %d", w, got, want)
		}
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	res := fd.reports[0].Results
	if len(res) != 1 || res[0].Sent != 30 || res[0].Lost != 3 {
		t.Fatalf("batched report: %+v", res)
	}
}

// entryList adapts one pathState's entry for pinglist stubs.
func (st *pathState) entryList() []control.Entry { return []control.Entry{st.entry} }

// TestNextBoundary pins the report clock: every report answers for a whole
// epoch boundary, leaves at most W/8 after it, and the boundary after a
// firing is the next epoch, never the same one again.
func TestNextBoundary(t *testing.T) {
	const w = 125 * time.Millisecond
	base := time.Unix(1_790_000_000, 0)
	for node := topo.NodeID(0); node < 40; node++ {
		for _, into := range []time.Duration{0, 1, w / 16, w / 8, w / 2, w - 1} {
			now := base.Add(into)
			fire, endNS := nextBoundary(now, w, node)
			if endNS%int64(w) != 0 {
				t.Fatalf("node %d +%v: EndNS %d is not a multiple of W", node, into, endNS)
			}
			stagger := fire.Sub(time.Unix(0, endNS))
			if stagger < 0 || stagger > w/8 {
				t.Fatalf("node %d +%v: fires %v after its boundary, want within [0, W/8]", node, into, stagger)
			}
			if !fire.After(now) || fire.Sub(now) > w {
				t.Fatalf("node %d +%v: fires in %v, want within (0, W]", node, into, fire.Sub(now))
			}
			// At the instant it fires, and any time before the next firing,
			// the clock names the next epoch.
			for _, late := range []time.Duration{0, time.Millisecond, w - 1} {
				fire2, endNS2 := nextBoundary(fire.Add(late), w, node)
				if endNS2 != endNS+int64(w) || fire2.Sub(fire) != w {
					t.Fatalf("node %d +%v: after firing for %d (+%v) the clock gives %d in %v",
						node, into, endNS, late, endNS2, fire2.Sub(fire))
				}
			}
		}
	}
	// Two nodes sixteen apart share a phase; neighbours do not.
	f0, _ := nextBoundary(base, w, 3)
	f16, _ := nextBoundary(base, w, 19)
	f1, _ := nextBoundary(base, w, 4)
	if !f0.Equal(f16) || f0.Equal(f1) {
		t.Fatalf("stagger phases: node 3 %v, node 19 %v, node 4 %v", f0, f16, f1)
	}
}
