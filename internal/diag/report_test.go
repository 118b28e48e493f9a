package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

var malformedCounter = obs.NewCounter("diag_malformed_reports", "")

// postReport POSTs one report body under the given content type and
// returns the status.
func postReport(t *testing.T, url, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/report", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestReportBodyCap pins the 413 path: a report frame past MaxBodyBytes is
// refused before it can balloon the decoder, and the rejection is counted.
func TestReportBodyCap(t *testing.T) {
	d := New(Options{Window: time.Hour, MaxBodyBytes: 128})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	rep := shardrpc.Report{Node: 1, Version: 1}
	for i := 0; i < 100; i++ {
		rep.Results = append(rep.Results, shardrpc.ReportResult{PathID: uint32(i), Sent: 10})
	}
	before := malformedCounter.Value()
	if status := postReport(t, srv.URL, shardrpc.ContentTypeBinary, rep.EncodeBinary()); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame answered %d, want 413", status)
	}
	if malformedCounter.Value() != before+1 {
		t.Fatal("oversized body not counted as malformed")
	}
	if d.Reports() != 0 {
		t.Fatalf("oversized body was ingested: %d reports", d.Reports())
	}

	// A small frame still lands.
	small := shardrpc.Report{Node: 1, Results: []shardrpc.ReportResult{{PathID: 0, Sent: 5}}}
	if status := postReport(t, srv.URL, shardrpc.ContentTypeBinary, small.EncodeBinary()); status != http.StatusNoContent || d.Reports() != 1 {
		t.Fatalf("small frame: %d, reports=%d", status, d.Reports())
	}
}

// TestReportRejectsOtherCodecs pins the one report wire: a JSON body or an
// unknown media type answers 415, a kind-6 frame (the retired batched
// summary) or any other non-report frame answers 400, a corrupt frame 400
// — each counted as malformed, none ingested. A kind-5 frame lands.
func TestReportRejectsOtherCodecs(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	rep := shardrpc.Report{Node: 1, Version: 1, Results: []shardrpc.ReportResult{
		{PathID: 0, Sent: 100, Lost: 90},
		{PathID: 1, Sent: 100, Lost: 95},
	}}
	jsonBody, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	kind := func(k byte) []byte {
		frame := rep.EncodeBinary()
		frame[3] = k
		return frame
	}
	for _, tc := range []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"json", "application/json", jsonBody, http.StatusUnsupportedMediaType},
		{"noContentType", "", rep.EncodeBinary(), http.StatusUnsupportedMediaType},
		{"unknownContentType", "application/x-protobuf", rep.EncodeBinary(), http.StatusUnsupportedMediaType},
		{"kind6Frame", shardrpc.ContentTypeBinary, kind(6), http.StatusBadRequest},
		{"kind9Frame", shardrpc.ContentTypeBinary, kind(9), http.StatusBadRequest},
		{"corruptFrame", shardrpc.ContentTypeBinary, []byte("this is not a frame"), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := malformedCounter.Value()
			if status := postReport(t, srv.URL, tc.contentType, tc.body); status != tc.want {
				t.Errorf("answered %d, want %d", status, tc.want)
			}
			if malformedCounter.Value() != before+1 {
				t.Error("not counted as malformed")
			}
		})
	}
	if d.Reports() != 0 {
		t.Fatalf("rejected bodies were ingested: %d reports", d.Reports())
	}

	if status := postReport(t, srv.URL, shardrpc.ContentTypeBinary, rep.EncodeBinary()); status != http.StatusNoContent {
		t.Fatalf("kind-5 frame answered %d", status)
	}
	alert := d.RunWindow()
	if alert == nil || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 || alert.LossyPaths != 2 {
		t.Fatalf("posted window: %+v", alert)
	}
}

// TestAlertsRing pins the alert-log bound: only the newest MaxAlerts
// survive, oldest first out.
func TestAlertsRing(t *testing.T) {
	d := New(Options{Window: time.Hour, MaxAlerts: 3})
	d.SetMatrix(testMatrix(), 1)
	for w := 0; w < 5; w++ {
		d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{
			{PathID: 0, Sent: 100, Lost: 50 + w}, // w varies so windows are distinguishable
			{PathID: 1, Sent: 100, Lost: 50 + w},
			{PathID: 2, Sent: 100, Lost: 0},
		}})
		if d.RunWindow() == nil {
			t.Fatalf("window %d: no alert", w)
		}
	}
	alerts := d.Alerts()
	if len(alerts) != 3 {
		t.Fatalf("ring kept %d alerts, want 3", len(alerts))
	}
	// The survivors are the newest three (windows 2, 3, 4): loss rates rise
	// monotonically with w, so the rates pin the order.
	for i, a := range alerts {
		wantRate := float64(52+i) / 100
		if len(a.Bad) != 1 || a.Bad[0].Rate != wantRate {
			t.Fatalf("ring slot %d: %+v, want rate %v", i, a.Bad, wantRate)
		}
	}
}

// TestSilenceHorizon: a row silent for more than HistoryWindows windows
// forgets its loss history and RTT baseline and starts over when it reports
// again; a row still banking counters for a pending slow pass keeps
// everything until that pass has drained them.
func TestSilenceHorizon(t *testing.T) {
	report := func(d *Diagnoser) {
		d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{{PathID: 0, Sent: 10, Lost: 1, MeanRTTNS: 5000}}})
		d.RunWindow()
	}
	history := func(d *Diagnoser) int { return len(d.state.Load().sig.History.Series(nil, 0)) }
	baseline := func(d *Diagnoser) int64 { return d.state.Load().sig.BaseRTTNS[0] }

	d := New(Options{Window: time.Hour, HistoryWindows: 3})
	d.SetMatrix(testMatrix(), 1)
	report(d)
	for w := 0; w < 3; w++ {
		d.RunWindow()
	}
	if history(d) != 1 || baseline(d) != 5000 {
		t.Fatalf("row forgotten inside the horizon: history %d, baseline %d", history(d), baseline(d))
	}
	d.RunWindow() // silent for HistoryWindows+1 windows now
	if history(d) != 0 || baseline(d) != 0 {
		t.Fatalf("row silent past the horizon kept history %d, baseline %d", history(d), baseline(d))
	}
	report(d)
	if history(d) != 1 || baseline(d) != 5000 {
		t.Fatalf("row did not start over: history %d, baseline %d", history(d), baseline(d))
	}

	// With a slow pass pending the banked counters pin the row: nothing is
	// forgotten at the horizon, the pass still sees the counters, and the
	// row is forgotten once the pass has drained them.
	d = New(Options{Window: time.Hour, HistoryWindows: 3, SlowEvery: 8})
	d.SetMatrix(testMatrix(), 1)
	report(d)
	for w := 0; w < 6; w++ {
		d.RunWindow()
	}
	if slow := d.state.Load().slow[0]; slow.Sent != 10 || slow.Lost != 1 {
		t.Fatalf("pending slow counters lost: %+v", slow)
	}
	if history(d) != 1 || baseline(d) != 5000 {
		t.Fatalf("row with pending slow counters forgotten: history %d, baseline %d", history(d), baseline(d))
	}
	d.RunWindow() // window 8: the slow pass runs and drains the counters
	alerts := d.Alerts()
	if last := alerts[len(alerts)-1]; !last.Slow || last.LossyPaths != 1 {
		t.Fatalf("slow pass did not see the banked counters: %+v", last)
	}
	if history(d) != 0 || baseline(d) != 0 || d.state.Load().slow[0].Sent != 0 {
		t.Fatalf("drained row past the horizon kept history %d, baseline %d", history(d), baseline(d))
	}
}

// TestMatrixVersionPrune: a matrix version change swaps the whole window
// state. The window that straddles the change is discarded on both sides of
// it, and nothing learned under version 1 — counters, histories, baselines —
// is visible under version 2.
func TestMatrixVersionPrune(t *testing.T) {
	d := New(Options{Window: time.Hour, SlowEvery: 100})
	d.SetMatrix(testMatrix(), 1)
	lossy := &pinger.Report{Node: 1, Results: []pinger.PathReport{
		{PathID: 0, Sent: 10, Lost: 5, MeanRTTNS: 5000}, {PathID: 1, Sent: 10, Lost: 5, MeanRTTNS: 5000}}}
	d.Ingest(lossy)
	if d.RunWindow() == nil {
		t.Fatal("no alert under version 1")
	}
	v1 := d.state.Load()

	d.Ingest(lossy) // before the swap: lands in version 1's state
	d.SetMatrix(testMatrix(), 2)
	d.Ingest(lossy) // after it: same window, still discarded
	if alert := d.RunWindow(); alert != nil {
		t.Fatalf("the window straddling the version change raised %+v", alert)
	}
	v2 := d.state.Load()
	if v2 == v1 || v2.version != 2 || d.MatrixVersion() != 2 {
		t.Fatalf("state not swapped: version %d", v2.version)
	}
	for r := range v2.obs {
		if v2.obs[r].Sent != 0 || v2.slow[r].Sent != 0 || v2.sig.BaseRTTNS[r] != 0 ||
			len(v2.sig.History.Series(nil, r)) != 0 {
			t.Fatalf("row %d carries state across the version change", r)
		}
	}

	d.Ingest(lossy)
	alert := d.RunWindow()
	if alert == nil || alert.Version != 2 || len(alert.Bad) != 1 {
		t.Fatalf("first full window under version 2: %+v", alert)
	}
	// Re-delivering the served version keeps the state.
	d.SetMatrix(testMatrix(), 2)
	if d.state.Load() != v2 {
		t.Fatal("same version swapped the state")
	}
}

// --- bit-identity pins -----------------------------------------------------

// strippedAlerts canonicalizes alerts for comparison: wall-clock fields
// (Time, ElapsedMS) are zeroed, everything else — links, rates, classes,
// verdicts, counts — must match bit for bit.
func strippedAlerts(alerts []Alert) []Alert {
	out := make([]Alert, len(alerts))
	for i, a := range alerts {
		a.Time = time.Time{}
		a.ElapsedMS = 0
		out[i] = a
	}
	return out
}

// alertsHash is the fnv64a of the canonical JSON of the stripped alerts.
func alertsHash(t *testing.T, alerts []Alert) uint64 {
	t.Helper()
	b, err := json.Marshal(strippedAlerts(alerts))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// servedMatrix builds the pmc-selected probe matrix for a topology — the
// production shape, not a hand fixture.
func servedMatrix(t testing.TB, ps route.PathSet, numLinks int) *route.Probes {
	t.Helper()
	res, err := pmc.Construct(ps, numLinks, pmc.Options{
		Alpha: 1, Beta: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return route.NewProbes(ps, res.Selected, numLinks)
}

// fleetWindow synthesizes one window of per-node reports over the matrix:
// every path reports sent=200, paths crossing a bad link lose 60%, and
// paths are sharded over nodes round-robin. silentNodes drop their reports
// entirely (rows absent from the window).
func fleetWindow(m *route.Probes, nodes int, badLinks map[topo.LinkID]bool, silentNodes map[int]bool) []pinger.Report {
	reps := make([]pinger.Report, nodes)
	for n := range reps {
		reps[n] = pinger.Report{Node: topo.NodeID(n + 1), Version: 1}
	}
	for path := 0; path < m.NumPaths(); path++ {
		n := path % nodes
		if silentNodes[n] {
			continue
		}
		lost := 0
		for _, l := range m.PathLinks[path] {
			if badLinks[l] {
				lost = 120
				break
			}
		}
		reps[n].Results = append(reps[n].Results, pinger.PathReport{
			PathID: uint32(path), Sent: 200, Lost: lost})
	}
	out := reps[:0]
	for _, r := range reps {
		if len(r.Results) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// windowScript returns per-window fault/churn settings: the bad-link set
// moves and some nodes go silent, so windows differ in both their lossy
// and their absent rows.
func windowScript(m *route.Probes, nodes int) []struct {
	bad    map[topo.LinkID]bool
	silent map[int]bool
} {
	l0 := m.PathLinks[0][len(m.PathLinks[0])/2]
	l1 := m.PathLinks[m.NumPaths()/2][0]
	return []struct {
		bad    map[topo.LinkID]bool
		silent map[int]bool
	}{
		{bad: map[topo.LinkID]bool{l0: true}},
		{bad: map[topo.LinkID]bool{l0: true, l1: true}, silent: map[int]bool{1: true, 5: true}},
		{bad: map[topo.LinkID]bool{l1: true}},
		{bad: map[topo.LinkID]bool{}, silent: map[int]bool{0: true}},
		{bad: map[topo.LinkID]bool{l0: true, l1: true}},
	}
}

// windowObservations is the window a fleet's reports add up to, as the
// full-recompute oracle takes it: one observation per reported row.
func windowObservations(reps []pinger.Report, into map[int]pll.Observation) []pll.Observation {
	var obs []pll.Observation
	for _, rep := range reps {
		for _, r := range rep.Results {
			o := pll.Observation{Path: int(r.PathID), Sent: r.Sent, Lost: r.Lost}
			obs = append(obs, o)
			if into != nil {
				b := into[o.Path]
				into[o.Path] = pll.Observation{Path: o.Path, Sent: b.Sent + o.Sent, Lost: b.Lost + o.Lost}
			}
		}
	}
	return obs
}

// mustMatchOracle requires an alert to carry exactly the full recompute's
// verdicts over obs: same links, bit-identical rates, same path counters.
func mustMatchOracle(t *testing.T, what string, a *Alert, m *route.Probes, obs []pll.Observation) {
	t.Helper()
	want, err := pll.Localize(m, obs, pll.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatalf("%s: no alert, oracle says %+v", what, want.Bad)
	}
	got := append(append([]LinkVerdict(nil), a.Bad...), a.Soft...)
	sort.Slice(got, func(i, j int) bool { return got[i].Link < got[j].Link })
	if len(got) != len(want.Bad) || a.LossyPaths != want.LossyPaths || a.Unexplained != want.UnexplainedPaths {
		t.Fatalf("%s: alert %+v diverges from the full recompute %+v", what, a, want)
	}
	for i, v := range want.Bad {
		if got[i].Link != v.Link || got[i].Rate != v.Rate {
			t.Fatalf("%s: verdict %d = %+v, full recompute says %+v", what, i, got[i], v)
		}
	}
}

// TestDiagnoserMatchesFullRecompute pins the tentpole invariant on served
// matrices: the diagnoser, which localizes every window on its matrix's
// sparse engine, raises exactly the alerts of a full pll.Localize over the
// same window — across windows with fault churn and vanishing pingers, for
// the fast pass and the pooled slow pass, on Fattree(8) (four components)
// and BCube(4,1), in process and behind two loopback shard services, which
// install the matrix once and fall back never. The alert hashes are the
// ones the incremental-vs-full pin printed before the engines were
// unified.
func TestDiagnoserMatchesFullRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("served-matrix differential is not -short")
	}
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	cases := []struct {
		name     string
		ps       route.PathSet
		numLinks int
		wantHash uint64
	}{
		{"Fattree8", route.NewFattreePaths(f8), f8.NumLinks(), 0xee38b0dd8d8fa4bc},
		{"BCube41", route.NewBCubePaths(b41), b41.NumLinks(), 0xab52d2f3f4337d62},
	}
	const nodes = 48
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := servedMatrix(t, c.ps, c.numLinks)
			d := New(Options{Window: time.Hour})
			dSlow := New(Options{Window: time.Hour, SlowEvery: 2})
			urls, _ := loopbackShards(t, c.ps, c.numLinks, 2, nil)
			dRemote := New(Options{Window: time.Hour, ShardEndpoints: urls})
			defer dRemote.Stop()
			installs, fallbacks := matrixInstalls.Value(), localFallbacks.Value()
			d.SetMatrix(m, 1)
			dSlow.SetMatrix(m, 1)
			dRemote.SetMatrix(m, 1)

			pooled := make(map[int]pll.Observation)
			slowAlerts := 0
			for w, sc := range windowScript(m, nodes) {
				reps := fleetWindow(m, nodes, sc.bad, sc.silent)
				for i := range reps {
					d.Ingest(&reps[i])
					dSlow.Ingest(&reps[i])
					dRemote.Ingest(&reps[i])
				}
				obs := windowObservations(reps, pooled)
				mustMatchOracle(t, fmt.Sprintf("window %d", w), d.RunWindow(), m, obs)
				mustMatchOracle(t, fmt.Sprintf("remote window %d", w), dRemote.RunWindow(), m, obs)
				dSlow.RunWindow()
				if w%2 == 1 {
					slow := dSlow.Alerts()
					last := slow[len(slow)-1]
					if !last.Slow {
						t.Fatalf("window %d: no slow pass ran", w)
					}
					var pool []pll.Observation
					for _, o := range pooled {
						pool = append(pool, o)
					}
					mustMatchOracle(t, fmt.Sprintf("slow pass at window %d", w), &last, m, pool)
					pooled = make(map[int]pll.Observation)
					slowAlerts++
				}
			}
			if slowAlerts == 0 {
				t.Fatal("no slow pass was checked")
			}
			if h := alertsHash(t, d.Alerts()); h != c.wantHash {
				t.Fatalf("alert hash %x, pinned %x: %+v", h, c.wantHash, strippedAlerts(d.Alerts()))
			}
			if h := alertsHash(t, dRemote.Alerts()); h != c.wantHash {
				t.Fatalf("remote alert hash %x, pinned %x: %+v", h, c.wantHash, strippedAlerts(dRemote.Alerts()))
			}
			if n := matrixInstalls.Value() - installs; n != 1 {
				t.Fatalf("%d matrix installs for one matrix version, want 1", n)
			}
			if n := localFallbacks.Value() - fallbacks; n != 0 {
				t.Fatalf("%d local fallbacks on a healthy pair of shard services", n)
			}
		})
	}
}

// sendFleet POSTs one window's reports to a diagnoser, one kind-5 frame
// per pinger, as the fleet does.
func sendFleet(t *testing.T, url string, reps []pinger.Report) {
	t.Helper()
	for i := range reps {
		if status := postReport(t, url, shardrpc.ContentTypeBinary, reps[i].EncodeBinary()); status != http.StatusNoContent {
			t.Fatalf("POST %s/report: %d", url, status)
		}
	}
}

// TestMixedFleetIngest is the report wire's differential pin: a fleet that
// POSTs every report as a kind-5 frame produces alerts hash-identical to
// the same reports ingested in process, on served Fattree(8) and
// BCube(4,1) matrices — the frame, the handler and the validation perturb
// nothing.
func TestMixedFleetIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("served-matrix fleet test is not -short")
	}
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	cases := []struct {
		name     string
		ps       route.PathSet
		numLinks int
	}{
		{"Fattree8", route.NewFattreePaths(f8), f8.NumLinks()},
		{"BCube41", route.NewBCubePaths(b41), b41.NumLinks()},
	}
	const nodes = 48
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := servedMatrix(t, c.ps, c.numLinks)

			dPosted := New(Options{Window: time.Hour})
			dPosted.SetMatrix(m, 1)
			srv := httptest.NewServer(dPosted.Handler())
			defer srv.Close()

			dRef := New(Options{Window: time.Hour})
			dRef.SetMatrix(m, 1)

			for _, sc := range windowScript(m, nodes) {
				reps := fleetWindow(m, nodes, sc.bad, sc.silent)
				sendFleet(t, srv.URL, reps)
				for _, rep := range reps {
					rep := rep
					dRef.Ingest(&rep)
				}
				dPosted.RunWindow()
				dRef.RunWindow()
			}

			hPosted := alertsHash(t, dPosted.Alerts())
			hRef := alertsHash(t, dRef.Alerts())
			if hPosted != hRef {
				t.Fatalf("posted-fleet alerts diverge from in-process ingest:\n posted %x %+v\n ref    %x %+v",
					hPosted, strippedAlerts(dPosted.Alerts()), hRef, strippedAlerts(dRef.Alerts()))
			}
			if len(dPosted.Alerts()) == 0 {
				t.Fatal("fleet produced no alerts — the pin is vacuous")
			}
			t.Logf("%s: %d windows, alert hash %x", c.name, len(dPosted.Alerts()), hPosted)
		})
	}
}

// --- benchmarks --------------------------------------------------------------

// benchFrames pre-encodes a fleet of kind-5 frames (nodes × resultsPerFrame
// paths), the steady-state ingest workload.
func benchFrames(nodes, resultsPerFrame int) [][]byte {
	frames := make([][]byte, nodes)
	for n := range frames {
		rep := shardrpc.Report{Node: topo.NodeID(n + 1), Version: 1, EndNS: int64(n)}
		base := n * resultsPerFrame
		for i := 0; i < resultsPerFrame; i++ {
			rep.Results = append(rep.Results, shardrpc.ReportResult{
				PathID: uint32(base + i), Sent: 200, Lost: i % 3,
				MeanRTTNS: 1_000_000 + int64(i), JitterNS: 1000, ECNFrac: 0.25,
			})
		}
		frames[n] = rep.EncodeBinary()
	}
	return frames
}

// BenchmarkIngestThroughput measures the POST /report path after the body
// is read — frame decode, validation, ID-to-row translation and merge under
// the row stripes' locks — and reports per-path report throughput. The
// acceptance floor is 1e6 reports/sec.
func BenchmarkIngestThroughput(b *testing.B) {
	const resultsPerFrame = 64
	d := New(Options{Window: time.Hour})
	frames := benchFrames(256, resultsPerFrame)
	d.SetMatrix(route.NewProbesFromLinks(make([][]topo.LinkID, len(frames)*resultsPerFrame), 1), 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var rep shardrpc.Report
		i := 0
		for pb.Next() {
			frame := frames[i%len(frames)]
			i++
			if err := d.ingestFrame(frame, &rep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)*resultsPerFrame/sec, "reports/s")
		b.ReportMetric(float64(b.N)/sec, "frames/s")
	}
}

// BenchmarkWindowClose measures what a fleet-scale window pays after its
// last report: the linear close of the window state, localization,
// classification of the flagged link and the roll-forward, on ~16k rows
// (the served Fattree(8) selection repeated, so set-up stays cheap). The
// acceptance ceiling is 2 ms a window; the map-of-slots close this state
// replaced took about 6 ms here.
func BenchmarkWindowClose(b *testing.B) {
	f8 := topo.MustFattree(8)
	served := servedMatrix(b, route.NewFattreePaths(f8), f8.NumLinks())
	var rows [][]topo.LinkID
	for i := 0; i < 112; i++ {
		rows = append(rows, served.PathLinks...)
	}
	m := route.NewProbesFromLinks(rows, f8.NumLinks())
	d := New(Options{Window: time.Hour})
	d.SetMatrix(m, 1)
	bad := m.PathLinks[0][len(m.PathLinks[0])/2]

	refill := func() {
		in := ingest{st: d.state.Load()}
		defer in.done()
		for path := 0; path < m.NumPaths(); path++ {
			lost := 0
			for _, l := range m.PathLinks[path] {
				if l == bad {
					lost = 120
					break
				}
			}
			in.merge(uint32(path), 200, lost, 1_000_000, 1000, 0)
		}
	}
	refill()
	d.RunWindow()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refill()
		b.StartTimer()
		start := time.Now()
		if alert := d.RunWindow(); alert == nil {
			b.Fatal("no alert")
		}
		total += time.Since(start)
	}
	b.StopTimer()
	if b.N > 0 {
		perWindow := total / time.Duration(b.N)
		b.ReportMetric(perWindow.Seconds()*1000, "ms/window")
		if perWindow > 2*time.Millisecond {
			b.Fatalf("window close %v exceeds the 2 ms budget", perWindow)
		}
	}
}
