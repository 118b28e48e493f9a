package diag

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// TestReportHandlerRejectsMalformedSignals sweeps the signal field checks:
// negative latencies and out-of-range or non-finite ECN fractions answer
// 400 and bump diag_malformed_reports.
func TestReportHandlerRejectsMalformedSignals(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	before := obs.TakeSnapshot().Counters["diag_malformed_reports"]

	post := func(r shardrpc.ReportResult) int {
		t.Helper()
		rep := shardrpc.Report{Node: 1, Results: []shardrpc.ReportResult{r}}
		resp, err := http.Post(srv.URL+"/report", shardrpc.ContentTypeBinary, bytes.NewReader(rep.EncodeBinary()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bad := []shardrpc.ReportResult{
		{PathID: 0, Sent: 10, MeanRTTNS: -5},
		{PathID: 0, Sent: 10, JitterNS: -1},
		{PathID: 0, Sent: 10, ECNFrac: 1.5},
		{PathID: 0, Sent: 10, ECNFrac: -0.1},
	}
	for _, r := range bad {
		if code := post(r); code != http.StatusBadRequest {
			t.Fatalf("result %+v: status %d, want 400", r, code)
		}
	}

	// A NaN ECN fraction travels bit-faithfully in the frame and must die
	// at validation, not at decode.
	if code := post(shardrpc.ReportResult{PathID: 0, Sent: 10, ECNFrac: math.NaN()}); code != http.StatusBadRequest {
		t.Fatalf("NaN ECN: status %d, want 400", code)
	}

	if got := obs.TakeSnapshot().Counters["diag_malformed_reports"]; got != before+5 {
		t.Fatalf("diag_malformed_reports = %d, want %d (+5)", got, before+5)
	}
	if d.Reports() != 0 {
		t.Fatalf("malformed reports were ingested: %d", d.Reports())
	}

	// Healthy signals pass.
	if code := post(shardrpc.ReportResult{PathID: 0, Sent: 10, Lost: 1, MeanRTTNS: 50000, JitterNS: 2000, ECNFrac: 0.25}); code != http.StatusNoContent {
		t.Fatalf("valid signal report: status %d, want 204", code)
	}
	if d.Reports() != 1 {
		t.Fatalf("valid report ingested: %d, want 1", d.Reports())
	}
}

// TestBinaryReportCarriesSignals drives the full binary path: a pinger
// report encoded as a v2 frame arrives with ECN marks, and the window's
// verdict lattice turns the marked, slightly lossy link into a Soft
// congestion advisory instead of a Bad link-down alert.
func TestBinaryReportCarriesSignals(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	rep := shardrpc.Report{Node: 9, Version: 1, Results: []shardrpc.ReportResult{
		{PathID: 0, Sent: 100, Lost: 5, MeanRTTNS: 400000, JitterNS: 60000, ECNFrac: 0.4},
		{PathID: 1, Sent: 100, Lost: 4, MeanRTTNS: 380000, JitterNS: 50000, ECNFrac: 0.35},
		{PathID: 2, Sent: 100, Lost: 0, MeanRTTNS: 100000, JitterNS: 1000, ECNFrac: 0},
	}}
	resp, err := http.Post(srv.URL+"/report", shardrpc.ContentTypeBinary, bytes.NewReader(rep.EncodeBinary()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("binary report: status %d, want 204", resp.StatusCode)
	}
	alert := d.RunWindow()
	if alert == nil {
		t.Fatal("no alert")
	}
	if len(alert.Bad) != 0 {
		t.Fatalf("congested link raised a hard alert: %+v", alert.Bad)
	}
	found := false
	for _, lv := range alert.Soft {
		if lv.Link == 0 && lv.Verdict == pll.VerdictCongested.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("soft congestion advisory for link 0 missing: %+v", alert.Soft)
	}
}

// TestDelayedFaultSoftLocalized: a pure latency fault loses nothing, so
// the loss pipeline is blind to it; the delay pass must localize it from
// the RTT-inflation signal against the learned baseline.
func TestDelayedFaultSoftLocalized(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	healthy := func() {
		d.Ingest(&pinger.Report{Node: 9, Results: []pinger.PathReport{
			{PathID: 0, Sent: 100, Lost: 0, MeanRTTNS: 100000},
			{PathID: 1, Sent: 100, Lost: 0, MeanRTTNS: 100000},
			{PathID: 2, Sent: 100, Lost: 0, MeanRTTNS: 100000},
		}})
	}
	healthy()
	if alert := d.RunWindow(); alert != nil && len(alert.Bad)+len(alert.Soft) != 0 {
		t.Fatalf("healthy warmup raised alerts: %+v", alert)
	}
	// Paths 0 and 1 (both through link 0) inflate 4x; path 2 stays flat.
	d.Ingest(&pinger.Report{Node: 9, Results: []pinger.PathReport{
		{PathID: 0, Sent: 100, Lost: 0, MeanRTTNS: 400000},
		{PathID: 1, Sent: 100, Lost: 0, MeanRTTNS: 400000},
		{PathID: 2, Sent: 100, Lost: 0, MeanRTTNS: 100000},
	}})
	alert := d.RunWindow()
	if alert == nil {
		t.Fatal("no alert")
	}
	if len(alert.Bad) != 0 {
		t.Fatalf("delay fault raised a hard alert: %+v", alert.Bad)
	}
	if len(alert.Soft) != 1 || alert.Soft[0].Link != 0 || alert.Soft[0].Verdict != pll.VerdictDelayed.String() {
		t.Fatalf("delay fault not soft-localized to link 0: %+v", alert.Soft)
	}
}

// TestFlappingVerdict: a link alternating dead/clean across windows must
// classify as flapping once the loss-rate series shows the oscillation.
func TestFlappingVerdict(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	feed := func(lost int) {
		d.Ingest(&pinger.Report{Node: 9, Results: []pinger.PathReport{
			{PathID: 0, Sent: 100, Lost: lost},
			{PathID: 1, Sent: 100, Lost: lost},
			{PathID: 2, Sent: 100, Lost: 0},
		}})
	}
	var alert *Alert
	for _, lost := range []int{100, 0, 100, 0, 100} { // down, up, down, up, down
		feed(lost)
		alert = d.RunWindow()
	}
	if alert == nil || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("final down window: %+v", alert)
	}
	if alert.Bad[0].Verdict != pll.VerdictFlapping.String() {
		t.Fatalf("verdict %q, want flapping", alert.Bad[0].Verdict)
	}
}

// TestSilentPartialVerdict: identical loss observations split on the
// switch-counter side channel — counted drops are lossy, uncounted gray.
func TestSilentPartialVerdict(t *testing.T) {
	run := func(counters pll.LinkCounters) *Alert {
		d := New(Options{Window: time.Hour, LinkCounters: counters})
		d.SetMatrix(testMatrix(), 1)
		d.Ingest(&pinger.Report{Node: 9, Results: []pinger.PathReport{
			{PathID: 0, Sent: 100, Lost: 30},
			{PathID: 1, Sent: 100, Lost: 35},
			{PathID: 2, Sent: 100, Lost: 0},
		}})
		return d.RunWindow()
	}
	silent := run(func(topo.LinkID) (int64, bool) { return 0, true })
	if silent == nil || len(silent.Bad) != 1 || silent.Bad[0].Verdict != pll.VerdictSilentPartial.String() {
		t.Fatalf("uncounted loss: %+v, want silent-partial", silent)
	}
	counted := run(func(topo.LinkID) (int64, bool) { return 60, true })
	if counted == nil || len(counted.Bad) != 1 || counted.Bad[0].Verdict != pll.VerdictLossy.String() {
		t.Fatalf("counted loss: %+v, want lossy", counted)
	}
	// The loss-only Class is lattice-independent and must not move.
	if silent.Bad[0].Class != counted.Bad[0].Class {
		t.Fatalf("loss class diverged: %q vs %q", silent.Bad[0].Class, counted.Bad[0].Class)
	}
}

// TestAlertJSONCarriesVerdicts pins the alert wire: Soft and Verdict
// fields survive the JSON round trip operators consume.
func TestAlertJSONCarriesVerdicts(t *testing.T) {
	a := Alert{Bad: []LinkVerdict{{Link: 1, Verdict: "lossy"}},
		Soft: []LinkVerdict{{Link: 2, Verdict: "congested", Rate: 0.3}}}
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Alert
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Soft) != 1 || back.Soft[0].Verdict != "congested" || back.Bad[0].Verdict != "lossy" {
		t.Fatalf("alert JSON round trip: %+v", back)
	}
}
