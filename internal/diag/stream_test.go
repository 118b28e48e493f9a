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

	"github.com/detector-net/detector/internal/metrics"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

var malformedCounter = metrics.NewCounter("diag_malformed_reports")

// TestReportCaps pins the negotiation surface: the diagnoser advertises
// stream and summary ingest, both codecs, and its body budget.
func TestReportCaps(t *testing.T) {
	d := New(Options{Window: time.Hour, MaxBodyBytes: 1 << 20})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/reportcaps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var caps shardrpc.ReportCaps
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	if !caps.Stream || !caps.Summary || caps.MaxBodyBytes != 1<<20 {
		t.Fatalf("caps: %+v", caps)
	}
	var binary bool
	for _, c := range caps.Codecs {
		binary = binary || c == shardrpc.CodecBinary
	}
	if !binary {
		t.Fatalf("binary codec not advertised: %v", caps.Codecs)
	}
}

// TestJSONBodyCap pins the 413 path: a JSON report past MaxBodyBytes is
// refused before it can balloon the decoder, and the rejection is counted.
func TestJSONBodyCap(t *testing.T) {
	d := New(Options{Window: time.Hour, MaxBodyBytes: 128})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	rep := pinger.Report{Node: 1, Version: 1}
	for i := 0; i < 100; i++ {
		rep.Results = append(rep.Results, pinger.PathReport{PathID: uint32(i), Sent: 10})
	}
	body, _ := json.Marshal(rep)
	before := malformedCounter.Value()
	resp, err := srv.Client().Post(srv.URL+"/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON answered %s, want 413", resp.Status)
	}
	if malformedCounter.Value() != before+1 {
		t.Fatal("oversized body not counted as malformed")
	}
	if d.Reports() != 0 {
		t.Fatalf("oversized body was ingested: %d reports", d.Reports())
	}

	// A small body still lands.
	small, _ := json.Marshal(pinger.Report{Node: 1, Results: []pinger.PathReport{{PathID: 0, Sent: 5}}})
	resp, err = srv.Client().Post(srv.URL+"/report", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || d.Reports() != 1 {
		t.Fatalf("small body: %s, reports=%d", resp.Status, d.Reports())
	}
}

// TestStreamIngest drives the persistent connection end to end: mixed
// kind-5 and kind-6 frames over one POST body, then a window that matches
// the equivalent JSON ingest exactly.
func TestStreamIngest(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	pr, pw := io.Pipe()
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/reportstream", shardrpc.ContentTypeBinary, pr)
		respCh <- resp
		errCh <- err
	}()

	rep := shardrpc.Report{Node: 1, Version: 1, Results: []shardrpc.ReportResult{
		{PathID: 0, Sent: 100, Lost: 90},
		{PathID: 1, Sent: 100, Lost: 95},
	}}
	sum := shardrpc.SummaryReport{Node: 2, Version: 1, Windows: 1, TopK: 1,
		Worst:   []shardrpc.ReportResult{{PathID: 1, Sent: 50, Lost: 45}},
		Residue: []shardrpc.ResidueCounter{{PathID: 2, Sent: 100, Lost: 0}},
	}
	if _, err := pw.Write(rep.EncodeBinary()); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(sum.EncodeBinary()); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stream answered %s", resp.Status)
	}
	if d.Reports() != 2 {
		t.Fatalf("reports = %d, want 2 frames", d.Reports())
	}

	alert := d.RunWindow()
	if alert == nil || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("streamed window: %+v", alert)
	}
	if alert.LossyPaths != 2 {
		t.Fatalf("lossy paths = %d, want 2", alert.LossyPaths)
	}
}

// TestStreamMalformed: a corrupt frame kills the connection with a 400 and
// counts as malformed; frames before it still land.
func TestStreamMalformed(t *testing.T) {
	d := New(Options{Window: time.Hour})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	rep := shardrpc.Report{Node: 1, Results: []shardrpc.ReportResult{{PathID: 0, Sent: 10}}}
	var stream bytes.Buffer
	stream.Write(rep.EncodeBinary())
	stream.WriteString("this is not a frame")

	before := malformedCounter.Value()
	resp, err := http.Post(srv.URL+"/reportstream", shardrpc.ContentTypeBinary, &stream)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt stream answered %s", resp.Status)
	}
	if malformedCounter.Value() != before+1 {
		t.Fatal("corrupt stream not counted")
	}
	if d.Reports() != 1 {
		t.Fatalf("reports = %d, want the 1 good frame", d.Reports())
	}

	// An unknown frame kind on /report is a 400, not a crash.
	frame := rep.EncodeBinary()
	frame[3] = 9
	resp, err = http.Post(srv.URL+"/report", shardrpc.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind answered %s", resp.Status)
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
// matrices: the diagnoser, which localizes every window on the plane's
// sparse engine, raises exactly the alerts of a full pll.Localize over the
// same window — across windows with fault churn and vanishing pingers, for
// the fast pass and the pooled slow pass, on Fattree(8) and BCube(4,1).
// The alert hashes are the ones the incremental-vs-full pin printed before
// the engines were unified.
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
			d.SetMatrix(m, 1)
			dSlow.SetMatrix(m, 1)

			pooled := make(map[int]pll.Observation)
			slowAlerts := 0
			for w, sc := range windowScript(m, nodes) {
				reps := fleetWindow(m, nodes, sc.bad, sc.silent)
				for i := range reps {
					d.Ingest(&reps[i])
					dSlow.Ingest(&reps[i])
				}
				obs := windowObservations(reps, pooled)
				mustMatchOracle(t, fmt.Sprintf("window %d", w), d.RunWindow(), m, obs)
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
		})
	}
}

// sendFleet delivers one window's reports to a diagnoser over a mix of
// transports: nodes are split round-robin between JSON POSTs, kind-5
// binary POSTs, and summary frames over a persistent stream.
func sendFleet(t *testing.T, url string, reps []pinger.Report) {
	t.Helper()
	pr, pw := io.Pipe()
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/reportstream", shardrpc.ContentTypeBinary, pr)
		respCh <- resp
		errCh <- err
	}()
	for i, rep := range reps {
		switch i % 3 {
		case 0: // legacy JSON POST
			body, _ := json.Marshal(rep)
			postOK(t, url+"/report", "application/json", body)
		case 1: // per-report binary frame POST
			wr := shardrpc.Report{Node: rep.Node, Version: rep.Version, EndNS: rep.EndNS,
				Results: make([]shardrpc.ReportResult, len(rep.Results))}
			for j, r := range rep.Results {
				wr.Results[j] = shardrpc.ReportResult{PathID: r.PathID, Sent: r.Sent, Lost: r.Lost,
					MeanRTTNS: r.MeanRTTNS, JitterNS: r.JitterNS, ECNFrac: r.ECNFrac}
			}
			postOK(t, url+"/report", shardrpc.ContentTypeBinary, wr.EncodeBinary())
		case 2: // summary frame on the stream: top-2 worst, rest residue
			sum := shardrpc.SummaryReport{Node: rep.Node, Version: rep.Version,
				EndNS: rep.EndNS, Windows: 1, TopK: 2}
			worst1, worst2 := -1, -1
			for j, r := range rep.Results {
				if worst1 < 0 || r.Lost > rep.Results[worst1].Lost {
					worst1, worst2 = j, worst1
				} else if worst2 < 0 || r.Lost > rep.Results[worst2].Lost {
					worst2 = j
				}
			}
			for j, r := range rep.Results {
				if j == worst1 || j == worst2 {
					sum.Worst = append(sum.Worst, shardrpc.ReportResult{
						PathID: r.PathID, Sent: r.Sent, Lost: r.Lost,
						MeanRTTNS: r.MeanRTTNS, JitterNS: r.JitterNS, ECNFrac: r.ECNFrac})
				} else {
					sum.Residue = append(sum.Residue, shardrpc.ResidueCounter{
						PathID: r.PathID, Sent: r.Sent, Lost: r.Lost})
				}
			}
			if _, err := pw.Write(sum.EncodeBinary()); err != nil {
				t.Fatal(err)
			}
		}
	}
	pw.Close()
	resp, err := <-respCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stream answered %s", resp.Status)
	}
}

func postOK(t *testing.T, url, contentType string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
}

// TestMixedFleetIngest is the acceptance pin: a fleet split between JSON
// POSTs, per-report binary frames, and streamed summary frames produces
// alerts hash-identical to an all-JSON fleet ingested in process, on
// served Fattree(8) and BCube(4,1) matrices. Summary frames
// keep every path's counters (worst + residue), so loss localization is
// exactly the JSON outcome regardless of transport.
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

			dMixed := New(Options{Window: time.Hour})
			dMixed.SetMatrix(m, 1)
			srv := httptest.NewServer(dMixed.Handler())
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
				dMixed.RunWindow()
				dRef.RunWindow()
			}

			hMixed := alertsHash(t, dMixed.Alerts())
			hRef := alertsHash(t, dRef.Alerts())
			if hMixed != hRef {
				t.Fatalf("mixed-fleet alerts diverge from the all-JSON fleet's:\n mixed %x %+v\n ref   %x %+v",
					hMixed, strippedAlerts(dMixed.Alerts()), hRef, strippedAlerts(dRef.Alerts()))
			}
			if len(dMixed.Alerts()) == 0 {
				t.Fatal("fleet produced no alerts — the pin is vacuous")
			}
			t.Logf("%s: %d windows, alert hash %x", c.name, len(dMixed.Alerts()), hMixed)
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

// BenchmarkIngestThroughput measures the streaming hot path — frame decode
// (reused struct), validation, ID-to-row translation and merge under the
// row stripes' locks — and reports per-path
// report throughput. The acceptance floor is 1e6 reports/sec.
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
			if err := rep.DecodeBinary(frame, 0); err != nil {
				b.Fatal(err)
			}
			if err := validateWire(&rep); err != nil {
				b.Fatal(err)
			}
			d.ingestWire(&rep)
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
	d.RunWindow() // builds the plane: paid once per served matrix, not per window
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
