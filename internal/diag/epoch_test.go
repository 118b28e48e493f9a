package diag

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestEpochDue walks the close rule through the cases the window clock must
// get right, on fixed instants: nothing here sleeps or reads a clock.
func TestEpochDue(t *testing.T) {
	const w = 100 * time.Millisecond
	const e = int64(50)
	boundary := time.Unix(0, e*int64(w))
	grace := boundary.Add(w / 4)
	fleet := []topo.NodeID{11, 12, 13}

	cases := []struct {
		name       string
		reported   []int64
		expected   []topo.NodeID
		unhealthy  map[topo.NodeID]bool
		now        time.Time
		wantEpoch  int64
		wantReason string
	}{
		{name: "all reported: closes well before the grace",
			reported: []int64{e, e, e}, expected: fleet, now: boundary.Add(time.Millisecond),
			wantEpoch: e, wantReason: closeComplete},
		{name: "all reported ahead of the diagnoser's clock: still closes, only the grace reads it",
			reported: []int64{e, e, e}, expected: fleet, now: boundary.Add(-w / 10),
			wantEpoch: e, wantReason: closeComplete},
		{name: "one silent pinger: open until the grace",
			reported: []int64{e, e - 1, e}, expected: fleet, now: grace.Add(-1)},
		{name: "one silent pinger: closes at the grace",
			reported: []int64{e, e - 1, e}, expected: fleet, now: grace,
			wantEpoch: e, wantReason: closeGrace},
		{name: "an unhealthy pinger is not waited for",
			reported: []int64{e, e - 3, e}, expected: fleet, unhealthy: map[topo.NodeID]bool{12: true},
			now: boundary.Add(time.Millisecond), wantEpoch: e, wantReason: closeComplete},
		{name: "a healthy one still is",
			reported: []int64{e, e - 3, e}, expected: fleet, unhealthy: map[topo.NodeID]bool{99: true},
			now: boundary.Add(time.Millisecond)},
		{name: "nobody reported yet, boundary not reached",
			reported: []int64{e - 1, e - 1, e - 1}, expected: fleet, now: boundary.Add(-w / 2)},
		{name: "a pinger batching two windows shipped e-1 and is silent for e: the grace covers it",
			reported: []int64{e, e, e - 1}, expected: fleet, now: grace,
			wantEpoch: e, wantReason: closeGrace},
		{name: "every pinger is past e: one close answers for the epochs skipped",
			reported: []int64{e + 2, e + 3, e + 2}, expected: fleet, now: boundary.Add(time.Millisecond),
			wantEpoch: e + 2, wantReason: closeComplete},
		{name: "the diagnoser stalled three windows: one grace close up to the last epoch out of grace",
			reported: []int64{e, e - 1, e}, expected: fleet, now: grace.Add(3 * w),
			wantEpoch: e + 3, wantReason: closeGrace},
		{name: "no matrix, nobody expected: never complete",
			now: boundary.Add(time.Millisecond)},
		{name: "no matrix, nobody expected: the grace still closes",
			now: grace, wantEpoch: e, wantReason: closeGrace},
		{name: "the whole fleet flagged: only the grace closes",
			reported: []int64{e, e, e}, expected: fleet, unhealthy: map[topo.NodeID]bool{11: true, 12: true, 13: true},
			now: boundary.Add(time.Millisecond)},
	}
	for _, c := range cases {
		reported := make([]atomic.Int64, len(c.reported))
		for i, v := range c.reported {
			reported[i].Store(v)
		}
		epoch, reason := epochDue(reported, c.expected, c.unhealthy, e, c.now, w)
		if reason != c.wantReason || (reason != "" && epoch != c.wantEpoch) {
			t.Errorf("%s: epochDue = (%d, %q), want (%d, %q)", c.name, epoch, reason, c.wantEpoch, c.wantReason)
		}
	}
}

// epochMatrix is the Fig. 3 matrix with one pinger per path: nodes 1, 2, 3.
func epochMatrix() *route.Probes {
	m := testMatrix()
	copy(m.Src, []topo.NodeID{1, 2, 3})
	return m
}

func epochReport(node topo.NodeID, epoch int64, w time.Duration, path uint32, sent, lost int) *pinger.Report {
	return &pinger.Report{Node: node, Version: 1, EndNS: epoch * int64(w),
		Results: []pinger.PathReport{{PathID: path, Sent: sent, Lost: lost}}}
}

// TestLateReportCountsOnceInNextEpoch: a report for epoch e that arrives
// after e closed is not dropped and not replayed — it is evidence of the
// window that is open when it lands.
func TestLateReportCountsOnceInNextEpoch(t *testing.T) {
	const w = time.Second
	const e = int64(1000)
	d := New(Options{Window: w, PLL: pll.DefaultConfig()})
	d.SetMatrix(epochMatrix(), 1)
	st := d.state.Load()

	d.Ingest(epochReport(1, e, w, 0, 100, 0))
	d.Ingest(epochReport(3, e, w, 2, 100, 0))
	if _, reason := epochDue(st.reported, st.pingers, nil, e, time.Unix(0, e*int64(w)), w); reason != "" {
		t.Fatalf("epoch due (%s) with pinger 2 still silent and the grace not reached", reason)
	}
	if alert := d.runWindow(e); alert != nil && len(alert.Bad) > 0 {
		t.Fatalf("clean epoch raised %+v", alert.Bad)
	}

	// Pinger 2's frame for e arrives late, full loss on path 1.
	d.Ingest(epochReport(2, e, w, 1, 100, 100))
	d.Ingest(epochReport(1, e+1, w, 0, 100, 0))
	d.Ingest(epochReport(3, e+1, w, 2, 100, 0))
	alert := d.runWindow(e + 1)
	if alert == nil || alert.LossyPaths != 1 || alert.Epoch != e+1 {
		t.Fatalf("epoch e+1: %+v, want the late report's one lossy path under epoch %d", alert, e+1)
	}
	if got := st.obs[1]; got.Sent != 100 || got.Lost != 100 {
		t.Fatalf("late report counted as %d/%d in e+1, want 100/100 once", got.Lost, got.Sent)
	}
	if alert := d.runWindow(e + 2); alert != nil {
		t.Fatalf("late report counted again in e+2: %+v", alert)
	}
}

// TestMatrixSwapResetsExpectations: the marks belong to the window state, so
// a new matrix version waits for its pingers afresh (the straddled window is
// discarded anyway).
func TestMatrixSwapResetsExpectations(t *testing.T) {
	const w = time.Second
	const e = int64(1000)
	d := New(Options{Window: w})
	d.SetMatrix(epochMatrix(), 1)
	for node := topo.NodeID(1); node <= 3; node++ {
		d.Ingest(epochReport(node, e, w, uint32(node-1), 10, 0))
	}
	now := time.Unix(0, e*int64(w))
	st := d.state.Load()
	if _, reason := epochDue(st.reported, st.pingers, nil, e, now, w); reason != closeComplete {
		t.Fatalf("all three pingers reported epoch e: %q, want complete", reason)
	}
	// A report from a server the matrix does not expect moves nothing.
	if st.advance(77, e+5) {
		t.Fatal("an unexpected node got an epoch mark")
	}

	d.SetMatrix(epochMatrix(), 2)
	st = d.state.Load()
	if len(st.pingers) != 3 {
		t.Fatalf("new state expects %v, want the matrix's three pingers", st.pingers)
	}
	if _, reason := epochDue(st.reported, st.pingers, nil, e, now, w); reason != "" {
		t.Fatalf("fresh state is already due (%s): marks survived the swap", reason)
	}
}

// TestFlaggedServerRaisesNoAlert: the paper's §5.1 outlier rule on the live
// path — what a server the watchdog flags reports is discarded, so its
// losses (a rebooting pinger loses everything) name no link.
func TestFlaggedServerRaisesNoAlert(t *testing.T) {
	flagged := map[topo.NodeID]bool{}
	d := New(Options{Window: time.Hour, PLL: pll.DefaultConfig(),
		Unhealthy: func() map[topo.NodeID]bool { return flagged }})
	m := testMatrix()
	copy(m.Src, []topo.NodeID{7, 7, 8})
	d.SetMatrix(m, 1)
	window := func() *Alert {
		d.Ingest(&pinger.Report{Node: 7, Results: []pinger.PathReport{
			{PathID: 0, Sent: 100, Lost: 100}, {PathID: 1, Sent: 100, Lost: 100}}})
		d.Ingest(&pinger.Report{Node: 8, Results: []pinger.PathReport{{PathID: 2, Sent: 100, Lost: 0}}})
		return d.RunWindow()
	}
	if alert := window(); alert == nil || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("healthy pinger 7: %+v, want link 0", alert)
	}
	flagged[7] = true
	if alert := window(); alert != nil && (len(alert.Bad) > 0 || alert.LossyPaths > 0) {
		t.Fatalf("flagged pinger 7 still raised %+v", alert)
	}
}

func waitClosed(t *testing.T, d *Diagnoser, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); d.ClosedEpochs() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("window clock closed %d epochs, want %d", d.ClosedEpochs(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunClosesOnEvidence drives the real clock loop with an hour-long
// window: the only thing that can close an epoch inside the test is the
// arrival of every expected pinger's report.
func TestRunClosesOnEvidence(t *testing.T) {
	const w = time.Hour
	d := New(Options{Window: w, PLL: pll.DefaultConfig()})
	d.SetMatrix(epochMatrix(), 1)
	d.Run()
	defer d.Stop()
	e := time.Now().UnixNano()/int64(w) + 1
	completeBefore := epochCloses.With(closeComplete).Value()

	d.Ingest(epochReport(1, e, w, 0, 100, 90))
	d.Ingest(epochReport(2, e, w, 1, 100, 95))
	if d.ClosedEpochs() != 0 {
		t.Fatal("epoch closed with pinger 3 still to report")
	}
	d.Ingest(epochReport(3, e, w, 2, 100, 0))
	waitClosed(t, d, 1)

	alerts := d.Alerts()
	if len(alerts) != 1 || len(alerts[0].Bad) != 1 || alerts[0].Bad[0].Link != 0 || alerts[0].Epoch != e {
		t.Fatalf("alerts %+v, want link 0 under epoch %d", alerts, e)
	}
	if got := epochCloses.With(closeComplete).Value() - completeBefore; got != 1 {
		t.Fatalf("diag_epoch_closes{reason=complete} moved by %d, want 1", got)
	}
	last, _ := statuszDetail(t, d)["last_close"].(map[string]any)
	if last["reason"] != closeComplete || last["epoch"] != float64(e) {
		t.Fatalf("/statusz last_close %v, want epoch %d closed complete", last, e)
	}
	// The same marks again are not news: nothing closes twice.
	d.Ingest(epochReport(3, e, w, 2, 100, 0))
	time.Sleep(5 * time.Millisecond)
	if d.ClosedEpochs() != 1 {
		t.Fatalf("epoch %d closed %d times", e, d.ClosedEpochs())
	}
}

// TestRunClosesOnGrace: with a pinger that never reports, the clock closes
// every epoch at its grace deadline and says so.
func TestRunClosesOnGrace(t *testing.T) {
	const w = 20 * time.Millisecond
	d := New(Options{Window: w})
	d.SetMatrix(epochMatrix(), 1)
	graceBefore := epochCloses.With(closeGrace).Value()
	d.Run()
	defer d.Stop()
	waitClosed(t, d, 2)
	if got := epochCloses.With(closeGrace).Value() - graceBefore; got < 2 {
		t.Fatalf("diag_epoch_closes{reason=grace} moved by %d, want at least 2", got)
	}
	last, _ := statuszDetail(t, d)["last_close"].(map[string]any)
	if last["reason"] != closeGrace {
		t.Fatalf("/statusz last_close %v, want a grace close", last)
	}
	if lag, _ := last["lag_ms"].(float64); lag < float64(w/4)/1e6 {
		t.Fatalf("grace close lagged its boundary by %v ms, less than the grace", lag)
	}
}
