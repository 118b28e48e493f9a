package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/topo"
)

var smokeSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// scrapeProm fetches url and validates the Prometheus text exposition the
// way a scraper would: 200, the 0.0.4 text content type, every sample line
// parseable with a numeric value, and no duplicate series. Returns the
// samples keyed by series (name + verbatim label set).
func scrapeProm(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s: Content-Type %q is not the Prometheus text format", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := smokeSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("%s: malformed sample line %q", url, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("%s: non-numeric sample %q", url, line)
		}
		series := m[1] + m[2]
		if _, dup := samples[series]; dup {
			t.Fatalf("%s: duplicate series %q", url, series)
		}
		samples[series] = v
	}
	return samples
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: undecodable JSON: %v", url, err)
	}
}

// hasSpan reports whether a statusz timeline files a span named name under
// the cycle with the given (externally minted) ID.
func hasSpan(sz obs.Statusz, id uint64, name string) bool {
	for _, cy := range sz.Cycles {
		if cy.ID != id {
			continue
		}
		for _, sp := range cy.Spans {
			if sp.Name == name {
				return true
			}
		}
	}
	return false
}

// TestClusterObservabilitySurface is the acceptance drill for the
// observability plane: one loopback Fattree(8) cluster with remote shards
// boots, runs one construction cycle, one hand-closed diagnosis window and
// one link flap, and then every process answers /metrics with a well-formed Prometheus
// exposition and /healthz with "ok", every coordinator and diagnoser stage
// histogram is non-empty, and the shard services' /statusz timelines file
// their construct and localize spans under the coordinator's and
// diagnoser's cycle IDs — proving the X-Detector-Cycle header made it
// across the transport.
func TestClusterObservabilitySurface(t *testing.T) {
	opts := fastOptions()
	opts.K = 8
	// Windows close by hand below: with a thousand-hour window no epoch
	// boundary falls inside the test, so no pinger reports and the window
	// clock closes nothing.
	opts.Control.WindowMS = int(1000 * time.Hour / time.Millisecond)
	opts.Shards = 2
	opts.RemoteShards = true
	opts.ShardTTL = 10 * time.Second
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	// One synthetic report covering every probe path (by its served wire
	// id — ids are sparse, not dense row indices), then one hand-closed
	// window: routing sends each shard its slice, so both shard services
	// see a localization request carrying the window's cycle ID.
	rep := &pinger.Report{Version: c.Controller.Version()}
	for i, id := range c.Controller.ProbeMatrix().IDs() {
		pr := pinger.PathReport{PathID: id, Sent: 20}
		if i == 0 {
			pr.Lost = 10
		}
		rep.Results = append(rep.Results, pr)
	}
	c.Diagnoser.Ingest(rep)
	c.Diagnoser.RunWindow()

	// The boot cycle dispatched to both shard services. A link flap then
	// runs a cycle that dispatches nothing — the coordinator repairs the
	// masked component from its stored selection — so the boot cycle's ID
	// is taken first.
	var ctl obs.Statusz
	getJSON(t, c.ControllerURL+"/statusz", &ctl)
	var constructID uint64
	for _, cy := range ctl.Cycles {
		if cy.Kind == "construct" {
			constructID = cy.ID // newest first
			break
		}
	}
	if constructID == 0 {
		t.Fatalf("controller /statusz has no construct cycle: %+v", ctl.Cycles)
	}
	if _, err := c.Churn([]topo.LinkID{c.F.SwitchLinks()[0]}, nil); err != nil {
		t.Fatal(err)
	}
	getJSON(t, c.ControllerURL+"/statusz", &ctl)
	if cy := ctl.Cycles[0]; cy.Kind != "construct" || !hasSpan(ctl, cy.ID, "repair") {
		t.Errorf("the flap's cycle files no repair span: %+v", ctl.Cycles[0])
	}

	urls := map[string]string{
		"controller": c.ControllerURL,
		"diagnoser":  c.DiagnoserURL,
		"watchdog":   c.WatchdogURL,
	}
	for i, u := range c.ShardURLs {
		urls[fmt.Sprintf("shard%d", i)] = u
	}
	for name, u := range urls {
		var h obs.Health
		getJSON(t, u+"/healthz", &h)
		if h.Status != "ok" {
			t.Errorf("%s /healthz = %q (detail %q, unhealthy %v), want ok",
				name, h.Status, h.Detail, h.UnhealthyShards)
		}
		if samples := scrapeProm(t, u+"/metrics"); len(samples) == 0 {
			t.Errorf("%s /metrics served an empty exposition", name)
		}
	}

	// Every loopback process shares the registry, so one scrape shows the
	// whole pipeline's stage histograms; each must have fired.
	samples := scrapeProm(t, c.ControllerURL+"/metrics")
	for _, stage := range []string{
		"materialize", "decompose", "assign", "construct_dispatch", "repair", "merge",
		"serve", "ingest", "window_close", "localize", "classify",
	} {
		series := fmt.Sprintf(`detector_stage_duration_seconds_count{stage=%q}`, stage)
		if samples[series] < 1 {
			t.Errorf("stage histogram %s is empty after a full cycle + window", series)
		}
	}

	// Cycle correlation: the controller minted the construct cycle, the
	// diagnoser the window cycle; both IDs must reappear verbatim in each
	// shard service's timeline, tagged with the matching span.
	var dg obs.Statusz
	getJSON(t, c.DiagnoserURL+"/statusz", &dg)
	var windowID uint64
	for _, cy := range dg.Cycles {
		if cy.Kind == "window" {
			windowID = cy.ID
			break
		}
	}
	if windowID == 0 {
		t.Fatalf("diagnoser /statusz has no window cycle: %+v", dg.Cycles)
	}

	for i, u := range c.ShardURLs {
		var sz obs.Statusz
		getJSON(t, u+"/statusz", &sz)
		if !hasSpan(sz, constructID, "construct") {
			t.Errorf("shard %d /statusz files no construct span under coordinator cycle %d: %+v",
				i, constructID, sz.Cycles)
		}
		if !hasSpan(sz, windowID, "localize") {
			t.Errorf("shard %d /statusz files no localize span under diagnoser cycle %d: %+v",
				i, windowID, sz.Cycles)
		}
	}
}
