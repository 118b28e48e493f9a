package diag

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// statuszDetail fetches the diagnoser's /statusz detail block.
func statuszDetail(t *testing.T, d *Diagnoser) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	var st obs.Statusz
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/statusz: %v", err)
	}
	detail, ok := st.Detail.(map[string]any)
	if !ok {
		t.Fatalf("/statusz detail: %+v", st.Detail)
	}
	return detail
}

// TestUnknownPathResultsCounted: a result whose path ID the bound matrix
// does not carry is dropped at ingest, counted, and shown at /statusz; the
// results beside it still land.
func TestUnknownPathResultsCounted(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	before := unknownPathResults.Value()
	d.Ingest(&pinger.Report{Node: 1, Results: []pinger.PathReport{
		{PathID: 0, Sent: 100, Lost: 90},
		{PathID: 7, Sent: 100, Lost: 100}, // retired by churn
		{PathID: 1, Sent: 100, Lost: 95},
		{PathID: 2, Sent: 100, Lost: 0},
	}})
	if got := unknownPathResults.Value() - before; got != 1 {
		t.Fatalf("diag_unknown_path_results moved by %d, want 1", got)
	}
	if got := statuszDetail(t, d)["unknown_path_results"]; got != float64(unknownPathResults.Value()) {
		t.Fatalf("/statusz unknown_path_results = %v, want %d", got, unknownPathResults.Value())
	}
	if alert := d.RunWindow(); alert == nil || alert.LossyPaths != 2 || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("known paths beside the unknown one: %+v", alert)
	}
}

// TestLocalizeErrorIsCounted: a window the engine refuses (here a row
// observed twice, which the window state itself can never emit) raises no
// alert, but is told apart from a quiet window by diag_localize_errors and
// the last error at /statusz.
func TestLocalizeErrorIsCounted(t *testing.T) {
	d := New(Options{Window: time.Hour})
	d.SetMatrix(testMatrix(), 1)
	before := localizeErrors.Value()
	if _, ok := statuszDetail(t, d)["last_localize_error"]; ok {
		t.Fatal("last_localize_error set before any error")
	}
	dup := []pll.Observation{{Path: 0, Sent: 10, Lost: 5}, {Path: 0, Sent: 10, Lost: 5}}
	if alert := d.localizeAlert(nil, d.state.Load(), 0, dup, pll.DefaultConfig(), nil); alert != nil {
		t.Fatalf("malformed window raised %+v", alert)
	}
	if got := localizeErrors.Value() - before; got != 1 {
		t.Fatalf("diag_localize_errors moved by %d, want 1", got)
	}
	detail := statuszDetail(t, d)
	if msg, _ := detail["last_localize_error"].(string); !strings.Contains(msg, "observed twice") {
		t.Fatalf("/statusz last_localize_error = %q", msg)
	}
	if len(d.Alerts()) != 0 {
		t.Fatalf("alerts %+v", d.Alerts())
	}
}

// signalWindow decorates one fleetWindow with latency and ECN signals:
// every path reports a healthy RTT that differs by row; paths through
// congested carry ECN marks and triple RTT, paths through delayed quadruple
// RTT with no marks.
func signalWindow(m *route.Probes, reps []pinger.Report, congested, delayed topo.LinkID) {
	for i := range reps {
		for j := range reps[i].Results {
			r := &reps[i].Results[j]
			r.MeanRTTNS, r.JitterNS = 100_000+int64(r.PathID)*37, 1_000+int64(r.PathID)
			for _, l := range m.PathLinks[r.PathID] {
				switch l {
				case congested:
					r.MeanRTTNS, r.ECNFrac = 3*r.MeanRTTNS, 0.3+float64(r.PathID%7)/100
				case delayed:
					r.MeanRTTNS *= 4
				}
			}
		}
	}
}

// TestShuffledIngestIsDeterministic: observations are emitted in row order
// and a link's evidence is summed in row order, so the order reports and
// results arrive in cannot reach the alerts. Two diagnosers take the same
// windows — loss, ECN and RTT faults on served Fattree(8) — one in fleet
// order, one shuffled, and must publish byte-identical alerts.
func TestShuffledIngestIsDeterministic(t *testing.T) {
	f8 := topo.MustFattree(8)
	m := servedMatrix(t, route.NewFattreePaths(f8), f8.NumLinks())
	lossy := m.PathLinks[0][len(m.PathLinks[0])/2]
	congested := m.PathLinks[m.NumPaths()/2][0]
	delayed := m.PathLinks[m.NumPaths()-1][0]
	const nodes = 16

	ordered, shuffled := New(Options{Window: time.Hour}), New(Options{Window: time.Hour})
	ordered.SetMatrix(m, 1)
	shuffled.SetMatrix(m, 1)
	rng := rand.New(rand.NewSource(15))
	none := topo.LinkID(-1)
	for w, sc := range []struct {
		bad                map[topo.LinkID]bool
		congested, delayed topo.LinkID
	}{
		{nil, none, none}, // healthy warmup: baselines and the first history sample
		{map[topo.LinkID]bool{lossy: true}, congested, none},
		{nil, congested, delayed},
		{map[topo.LinkID]bool{lossy: true}, none, delayed},
	} {
		reps := fleetWindow(m, nodes, sc.bad, map[int]bool{w: true})
		signalWindow(m, reps, sc.congested, sc.delayed)
		for i := range reps {
			ordered.Ingest(&reps[i])
		}
		for _, i := range rng.Perm(len(reps)) {
			rep := reps[i]
			rep.Results = append([]pinger.PathReport(nil), rep.Results...)
			rng.Shuffle(len(rep.Results), func(a, b int) { rep.Results[a], rep.Results[b] = rep.Results[b], rep.Results[a] })
			shuffled.Ingest(&rep)
		}
		ordered.RunWindow()
		shuffled.RunWindow()
	}

	want, err := json.Marshal(strippedAlerts(ordered.Alerts()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(strippedAlerts(shuffled.Alerts()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shuffled ingest changed the alerts:\n ordered  %s\n shuffled %s", want, got)
	}
	var hard, soft int
	for _, a := range ordered.Alerts() {
		hard, soft = hard+len(a.Bad), soft+len(a.Soft)
	}
	if hard == 0 || soft == 0 {
		t.Fatalf("the pin is vacuous: %d hard and %d soft verdicts in %s", hard, soft, want)
	}
}

// TestWindowAllocsIndependentOfMatrixSize pins the point of the dense
// state: a steady-state window — ingest the fleet's reports, close,
// localize a handful of lossy rows, roll forward — allocates a small fixed
// number of objects (tracer spans, the sparse window, PLL's per-pass
// scratch, the alert), the same on a 144-row and a 16-row matrix, and none
// per path.
func TestWindowAllocsIndependentOfMatrixSize(t *testing.T) {
	const bound = 80
	f8 := topo.MustFattree(8)
	b41 := topo.MustBCube(4, 1)
	for _, c := range []struct {
		name     string
		ps       route.PathSet
		numLinks int
	}{
		{"Fattree8", route.NewFattreePaths(f8), f8.NumLinks()},
		{"BCube41", route.NewBCubePaths(b41), b41.NumLinks()},
	} {
		m := servedMatrix(t, c.ps, c.numLinks)
		d := New(Options{Window: time.Hour})
		d.SetMatrix(m, 1)
		bad := map[topo.LinkID]bool{m.PathLinks[0][len(m.PathLinks[0])/2]: true}
		reps := fleetWindow(m, 8, bad, nil)
		window := func() {
			for i := range reps {
				d.Ingest(&reps[i])
			}
			if alert := d.RunWindow(); alert == nil || len(alert.Bad) != 1 {
				t.Fatalf("%s: window raised %+v", c.name, alert)
			}
		}
		window() // fills the alert log's first slots
		allocs := testing.AllocsPerRun(50, window)
		t.Logf("%s: %d rows, %.0f allocations per window", c.name, m.NumPaths(), allocs)
		if allocs > bound {
			t.Fatalf("%s: %.0f allocations per window, want at most %d", c.name, allocs, bound)
		}
	}
}

// TestConcurrentIngestLosesNothing: eight goroutines ingest while windows
// close under them. Every result lands in exactly one closed window — the
// probes counted over all closed windows are the probes ingested.
func TestConcurrentIngestLosesNothing(t *testing.T) {
	const (
		rows       = 1000 // eight lock stripes
		goroutines = 8
		reports    = 400
		results    = 50
		sent       = 3
	)
	links := make([][]topo.LinkID, rows)
	for r := range links {
		links[r] = []topo.LinkID{topo.LinkID(r % 4)}
	}
	d := New(Options{Window: time.Hour})
	d.SetMatrix(route.NewProbesFromLinks(links, 4), 1)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep := pinger.Report{Node: topo.NodeID(g), Results: make([]pinger.PathReport, results)}
			for n := 0; n < reports; n++ {
				for i := range rep.Results {
					rep.Results[i] = pinger.PathReport{PathID: uint32((g*131 + n*results + i*17) % rows), Sent: sent}
				}
				d.Ingest(&rep)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	closed, windows := 0, 0
	closeWindow := func() {
		d.RunWindow()
		windows++
		for _, o := range d.state.Load().obs {
			closed += o.Sent
		}
	}
	for ingesting := true; ingesting; {
		select {
		case <-done:
			ingesting = false
		default:
		}
		closeWindow()
	}
	if want := goroutines * reports * results * sent; closed != want {
		t.Fatalf("%d probes in %d closed windows, %d ingested", closed, windows, want)
	}
}

// TestSwapUnderIngest: SetMatrix swaps the window state while reports land
// and windows close (the race detector checks the hand-over); results
// caught by a swap are dropped with the old state, and once the swapping
// stops the bound version localizes a full window.
func TestSwapUnderIngest(t *testing.T) {
	d := New(Options{Window: time.Hour, SlowEvery: 3})
	d.SetMatrix(testMatrix(), 1)
	lossy := &pinger.Report{Node: 1, Results: []pinger.PathReport{
		{PathID: 0, Sent: 10, Lost: 9}, {PathID: 1, Sent: 10, Lost: 9}, {PathID: 2, Sent: 10}}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					d.Ingest(lossy)
				}
			}
		}()
	}
	for v := 2; v <= 50; v++ {
		d.SetMatrix(testMatrix(), v)
		if alert := d.RunWindow(); alert != nil {
			t.Fatalf("version %d: the straddling window raised %+v", v, alert)
		}
		d.RunWindow()
	}
	close(stop)
	wg.Wait()
	d.RunWindow() // drain what the last goroutines left
	d.Ingest(lossy)
	if alert := d.RunWindow(); alert == nil || alert.Version != 50 || len(alert.Bad) != 1 || alert.Bad[0].Link != 0 {
		t.Fatalf("after the swaps: %+v", alert)
	}
}
