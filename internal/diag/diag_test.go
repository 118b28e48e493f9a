package diag

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

func testMatrix() *route.Probes {
	// Fig. 3 matrix: p0={0,1}, p1={0,2}, p2={2}.
	return route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {0, 2}, {2}}, 3)
}

func TestRunWindowLocalizes(t *testing.T) {
	d := New(Options{Window: time.Hour, PLL: pll.DefaultConfig()})
	d.SetMatrix(testMatrix(), 1)
	d.Ingest(&pinger.Report{Node: 9, Version: 1, Results: []pinger.PathReport{
		{PathID: 0, Sent: 100, Lost: 90},
		{PathID: 1, Sent: 100, Lost: 95},
		{PathID: 2, Sent: 100, Lost: 0},
	}})
	alert := d.RunWindow()
	if alert == nil {
		t.Fatal("no alert")
	}
	if len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("alert %+v, want link 0", alert.Bad)
	}
	if alert.LossyPaths != 2 {
		t.Fatalf("lossy paths %d, want 2", alert.LossyPaths)
	}
	// The window drained the accumulator: a second run yields nothing.
	if alert2 := d.RunWindow(); alert2 != nil {
		t.Fatalf("second window produced %+v from stale data", alert2)
	}
}

func TestReportsMergeAcrossPingers(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	// Two pingers report halves of the same path's traffic.
	d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{{PathID: 0, Sent: 50, Lost: 25}}})
	d.Ingest(&pinger.Report{Node: 2, Results: []pinger.PathReport{{PathID: 0, Sent: 50, Lost: 30}}})
	d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{{PathID: 1, Sent: 100, Lost: 60}}})
	d.Ingest(&pinger.Report{Node: 2, Results: []pinger.PathReport{{PathID: 2, Sent: 100, Lost: 0}}})
	alert := d.RunWindow()
	if alert == nil || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("merged window: %+v", alert)
	}
	if d.Reports() != 4 {
		t.Fatalf("reports = %d", d.Reports())
	}
}

func TestHTTPReportAndAlerts(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	rep := pinger.Report{Node: 5, Version: 1, Results: []pinger.PathReport{
		{PathID: 0, Sent: 10, Lost: 10},
		{PathID: 1, Sent: 10, Lost: 10},
		{PathID: 2, Sent: 10, Lost: 0},
	}}
	resp, err := srv.Client().Post(srv.URL+"/report", shardrpc.ContentTypeBinary, bytes.NewReader(rep.EncodeBinary()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("report rejected: %s", resp.Status)
	}
	d.RunWindow()

	resp, err = srv.Client().Get(srv.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var alerts []Alert
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || len(alerts[0].Bad) != 1 || alerts[0].Bad[0].Link != 0 {
		t.Fatalf("alerts over HTTP: %+v", alerts)
	}
}

func TestEmptyWindowNoAlert(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	if alert := d.RunWindow(); alert != nil {
		t.Fatalf("alert from empty window: %+v", alert)
	}
}

func TestNoMatrixNoCrash(t *testing.T) {
	d := New(Options{Window: time.Hour})
	before := unknownPathResults.Value()
	d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{{PathID: 0, Sent: 5, Lost: 5}}})
	if alert := d.RunWindow(); alert != nil {
		t.Fatalf("alert without a matrix: %+v", alert)
	}
	// With no matrix bound the result has no row to land in: dropped, counted.
	if got := unknownPathResults.Value() - before; got != 1 {
		t.Fatalf("diag_unknown_path_results moved by %d, want 1", got)
	}
}

func TestAlertNamesEndpoints(t *testing.T) {
	f := topo.MustFattree(4)
	d := New(Options{Window: time.Hour, Topo: f.Topology})
	links := [][]topo.LinkID{{f.SwitchLinks()[0]}}
	d.SetMatrix(route.NewProbesFromLinks(links, f.NumLinks()), 1)
	d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{{PathID: 0, Sent: 100, Lost: 100}}})
	alert := d.RunWindow()
	if alert == nil || len(alert.Bad) != 1 {
		t.Fatalf("alert: %+v", alert)
	}
	if alert.Bad[0].A == "" || alert.Bad[0].B == "" {
		t.Fatal("endpoints not named")
	}
}

// TestSlowPassCatchesLowRateLoss is the §6.4 remedy: a loss too small to
// clear the per-window MinLoss threshold accumulates across windows and is
// confirmed by the long-window pass.
func TestSlowPassCatchesLowRateLoss(t *testing.T) {
	cfg := pll.DefaultConfig()
	cfg.MinLoss = 3 // one loss per window is not confirmable
	d := New(Options{Window: time.Hour, PLL: cfg, SlowEvery: 5})
	d.SetMatrix(testMatrix(), 1)

	for w := 0; w < 5; w++ {
		d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{
			{PathID: 0, Sent: 50, Lost: 1},
			{PathID: 1, Sent: 50, Lost: 1},
			{PathID: 2, Sent: 50, Lost: 0},
		}})
		d.RunWindow()
	}
	var fastBad, slowBad int
	var slowAlert *Alert
	for i := range d.Alerts() {
		a := d.Alerts()[i]
		if a.Slow {
			slowBad += len(a.Bad)
			slowAlert = &a
		} else {
			fastBad += len(a.Bad)
		}
	}
	if fastBad != 0 {
		t.Fatalf("fast windows confirmed %d links below the loss floor", fastBad)
	}
	if slowAlert == nil || slowBad == 0 {
		t.Fatalf("slow pass missed the accumulated low-rate loss: %+v", d.Alerts())
	}
	if slowAlert.Bad[0].Link != 0 {
		t.Fatalf("slow pass blamed %d, want link 0", slowAlert.Bad[0].Link)
	}
}

// TestAlertCarriesLossClass: verdicts are classified (§7).
func TestAlertCarriesLossClass(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	d.Ingest(&pinger.Report{Node: 9, Results: []pinger.PathReport{
		{PathID: 0, Sent: 100, Lost: 100},
		{PathID: 1, Sent: 100, Lost: 99},
		{PathID: 2, Sent: 100, Lost: 0},
	}})
	alert := d.RunWindow()
	if alert == nil || len(alert.Bad) != 1 {
		t.Fatalf("alert: %+v", alert)
	}
	if alert.Bad[0].Class != "full" {
		t.Fatalf("class = %q, want full", alert.Bad[0].Class)
	}
}

// TestReportHandlerRejectsMalformed pins the /report error contract:
// undecodable frames or impossible counters answer 400 with a JSON error
// body, bump diag_malformed_reports, and leave the accumulator untouched.
func TestReportHandlerRejectsMalformed(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	before := obs.TakeSnapshot().Counters["diag_malformed_reports"]

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/report", shardrpc.ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	frame := func(sent, lost int) []byte {
		rep := shardrpc.Report{Node: 1, Results: []shardrpc.ReportResult{{PathID: 0, Sent: sent, Lost: lost}}}
		return rep.EncodeBinary()
	}

	resp := post([]byte("not a frame"))
	var eb httpx.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
		t.Fatalf("garbage payload: status %d body %+v, want 400 with error", resp.StatusCode, eb)
	}

	resp = post(frame(10, 50))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lost > sent: status %d, want 400", resp.StatusCode)
	}

	resp = post(frame(-5, 0))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative sent: status %d, want 400", resp.StatusCode)
	}

	getResp, err := http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /report: status %d, want 405", getResp.StatusCode)
	}

	if got := obs.TakeSnapshot().Counters["diag_malformed_reports"]; got != before+4 {
		t.Fatalf("diag_malformed_reports = %d, want %d (+4)", got, before+4)
	}
	if d.Reports() != 0 {
		t.Fatalf("rejected reports were ingested: %d", d.Reports())
	}

	resp = post(frame(10, 5))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid report: status %d, want 204", resp.StatusCode)
	}
	if d.Reports() != 1 {
		t.Fatalf("valid report not ingested")
	}
	if got := obs.TakeSnapshot().Counters["diag_malformed_reports"]; got != before+4 {
		t.Fatalf("valid report bumped the malformed counter")
	}

	// The counters are operator-visible over GET /metrics — Prometheus text
	// by default, the JSON snapshot on request.
	mResp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snapshot obs.Snapshot
	if err := json.NewDecoder(mResp.Body).Decode(&snapshot); err != nil {
		t.Fatalf("/metrics?format=json is not JSON: %v", err)
	}
	mResp.Body.Close()
	if snapshot.Counters["diag_malformed_reports"] != before+4 {
		t.Fatalf("/metrics reports %d malformed, want %d", snapshot.Counters["diag_malformed_reports"], before+4)
	}
	tResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(tResp.Body)
	tResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "# TYPE diag_malformed_reports counter") {
		t.Fatalf("/metrics text exposition is missing the malformed-reports counter:\n%s", text)
	}
}

// TestShardedWindowMatchesUnsharded runs the same reports through an
// unsharded diagnoser and one on a 3-shard plane; the alerts must agree
// verdict for verdict.
func TestShardedWindowMatchesUnsharded(t *testing.T) {
	feed := func(d *Diagnoser) *Alert {
		d.SetMatrix(testMatrix(), 1)
		d.Ingest(&pinger.Report{Node: 9, Version: 1, Results: []pinger.PathReport{
			{PathID: 0, Sent: 100, Lost: 90},
			{PathID: 1, Sent: 100, Lost: 95},
			{PathID: 2, Sent: 100, Lost: 0},
		}})
		return d.RunWindow()
	}
	plain := feed(New(Options{Window: time.Hour}))
	sharded := feed(New(Options{Window: time.Hour, Shards: 3}))
	if plain == nil || sharded == nil {
		t.Fatal("missing alert")
	}
	if len(plain.Bad) != len(sharded.Bad) ||
		plain.LossyPaths != sharded.LossyPaths ||
		plain.Unexplained != sharded.Unexplained {
		t.Fatalf("sharded alert differs: %+v vs %+v", sharded, plain)
	}
	for i := range plain.Bad {
		if plain.Bad[i].Link != sharded.Bad[i].Link || plain.Bad[i].Rate != sharded.Bad[i].Rate {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, sharded.Bad[i], plain.Bad[i])
		}
	}
}
