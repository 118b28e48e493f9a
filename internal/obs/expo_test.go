package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// promSample is one parsed text-exposition sample line.
type promSample struct {
	series string // name + label set, verbatim
	value  string
}

// parseProm parses a Prometheus text exposition (format 0.0.4), failing the
// test on any malformed line: bad metric names, HELP/TYPE for undeclared or
// re-declared metrics, unparseable samples, or duplicate series.
func parseProm(t *testing.T, text string) map[string]promSample {
	t.Helper()
	types := make(map[string]string)
	samples := make(map[string]promSample)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, kind := parts[0], parts[1]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("TYPE line declares invalid metric name %q", name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("TYPE line declares unknown kind %q: %q", kind, line)
			}
			if prev, ok := types[name]; ok {
				t.Fatalf("metric %q TYPE-declared twice (%s, then %s)", name, prev, kind)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("malformed HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("sample %q has non-numeric value %q", line, value)
		}
		// A sample belongs to its own TYPE, or to a histogram family via the
		// _bucket/_sum/_count suffixes.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok && types[cut] == "histogram" {
				base = cut
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		series := name + labels
		if _, dup := samples[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		samples[series] = promSample{series: series, value: value}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestPromExpositionWellFormed populates one metric of every kind, scrapes
// the text exposition through the real handler, and structurally validates
// every line.
func TestPromExpositionWellFormed(t *testing.T) {
	NewCounter("test_expo_flat", "a counter").Inc()
	NewGauge("test_expo_gauge", "a gauge").Set(42)
	NewCounterVec("test_expo_family", "a family", "who", 8).With("a").Add(3)
	h := NewHistogram("test_expo_hist", "a histogram")
	h.Observe(3 * time.Millisecond)
	h.Observe(70 * time.Microsecond)
	hv := NewHistogramVec("test_expo_histfam", "a histogram family", "op", 4)
	hv.With("x").Observe(time.Millisecond)

	srv := httptest.NewServer(MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("text exposition Content-Type = %q, want the 0.0.4 text format", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, buf.String())

	for _, want := range []string{
		"test_expo_flat",
		"test_expo_gauge",
		`test_expo_family{who="a"}`,
		`test_expo_hist_bucket{le="+Inf"}`,
		"test_expo_hist_sum",
		"test_expo_hist_count",
		`test_expo_histfam_bucket{op="x",le="+Inf"}`,
		`test_expo_histfam_count{op="x"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("exposition is missing series %q", want)
		}
	}
}

// TestJSONMatchesText pins the dual-exposition contract: every counter,
// gauge and histogram reports the same value through the JSON snapshot as
// through the Prometheus text format.
func TestJSONMatchesText(t *testing.T) {
	NewCounter("test_dual_flat", "a counter").Add(11)
	NewGauge("test_dual_gauge", "g").Set(-4)
	NewCounterVec("test_dual_vec", "v", "k", 4).With("z").Add(9)
	NewHistogram("test_dual_hist", "h").Observe(5 * time.Millisecond)

	var buf bytes.Buffer
	WriteProm(&buf)
	samples := parseProm(t, buf.String())
	snap := TakeSnapshot()

	check := func(series string, want string) {
		t.Helper()
		got, ok := samples[series]
		if !ok {
			t.Fatalf("text exposition is missing %q", series)
		}
		if got.value != want {
			t.Errorf("series %q: text %s, JSON %s", series, got.value, want)
		}
	}
	for name, v := range snap.Counters {
		check(name, strconv.FormatInt(v, 10))
	}
	for name, v := range snap.Gauges {
		check(name, strconv.FormatInt(v, 10))
	}
	for series, hs := range snap.Histograms {
		// series is `name` or `name{label="value"}`; splice the histogram
		// suffixes in before the label set.
		name, labels, _ := strings.Cut(series, "{")
		if labels != "" {
			labels = "{" + labels
		}
		check(name+"_count"+labels, strconv.FormatUint(hs.Count, 10))
		check(name+"_sum"+labels, formatFloat(hs.SumSeconds))
		for _, b := range hs.Buckets {
			le := fmt.Sprintf("le=%q", b.LE)
			bseries := name + "_bucket{" + le + "}"
			if labels != "" {
				bseries = name + "_bucket{" + strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}") + "," + le + "}"
			}
			check(bseries, strconv.FormatUint(b.Cumulative, 10))
		}
	}

	// And the JSON handler itself round-trips the same shape.
	srv := httptest.NewServer(MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var viaHTTP Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&viaHTTP); err != nil {
		t.Fatalf("JSON exposition undecodable: %v", err)
	}
	if viaHTTP.Counters["test_dual_flat"] != 11 {
		t.Fatalf("JSON exposition counter = %d, want 11", viaHTTP.Counters["test_dual_flat"])
	}
}

// TestScrapeDuringRegistration: a scrape reads the registry while another
// goroutine registers counters (a package initialising late, a test helper);
// under -race this pins that the expositions read copies taken under the
// registry lock.
func TestScrapeDuringRegistration(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			NewCounter(fmt.Sprintf("test_scrape_reg_%d", i), "c").Inc()
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		WriteProm(io.Discard)
		TakeSnapshot()
	}
	if got := TakeSnapshot().Counters["test_scrape_reg_999"]; got < 1 {
		t.Fatalf("last registered counter reads %d, want >= 1", got)
	}
}
