package obs

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"

	"github.com/detector-net/detector/internal/httpx"
)

// formatFloat renders a float the way both expositions print it, so text
// and JSON stay comparable value for value.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the JSON exposition: every registered metric in one
// structure whose values match the Prometheus text exposition exactly.
type Snapshot struct {
	// Counters maps series name (label-qualified for family children, e.g.
	// `shardrpc_client_requests{shard="0"}`) to value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to value.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms maps series name to cumulative bucket state.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// TakeSnapshot collects the current value of every metric in the process.
func TakeSnapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	reg.mu.Lock()
	counters := maps.Clone(reg.counters)
	hists := maps.Clone(reg.hists)
	histVecs := maps.Clone(reg.histVecs)
	countVecs := maps.Clone(reg.countVecs)
	gauges := maps.Clone(reg.gauges)
	reg.mu.Unlock()

	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range hists {
		s.Histograms[name] = h.snapshot()
	}
	for name, v := range histVecs {
		v.mu.RLock()
		for lv, h := range v.children {
			s.Histograms[series(name, v.label, lv)] = h.snapshot()
		}
		v.mu.RUnlock()
	}
	for name, v := range countVecs {
		v.mu.RLock()
		for lv, c := range v.children {
			s.Counters[series(name, v.label, lv)] = c.Value()
		}
		v.mu.RUnlock()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	return s
}

// series renders a label-qualified series name in the Prometheus text
// syntax, which the JSON exposition reuses as its map key.
func series(name, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

// escapeHelp escapes a HELP string per the text exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm writes the Prometheus text exposition (format 0.0.4) of every
// metric in the process: counters, counter families, gauges, and
// histograms with cumulative power-of-two `le` buckets.
func WriteProm(w io.Writer) {
	reg.mu.Lock()
	countNames := sortedKeys(reg.counters)
	histNames := sortedKeys(reg.hists)
	histVecNames := sortedKeys(reg.histVecs)
	countVecNames := sortedKeys(reg.countVecs)
	gaugeNames := sortedKeys(reg.gauges)
	// Registration may run concurrently with a scrape: read the maps from
	// copies taken under the lock.
	counters := maps.Clone(reg.counters)
	hists := maps.Clone(reg.hists)
	histVecs := maps.Clone(reg.histVecs)
	countVecs := maps.Clone(reg.countVecs)
	gauges := maps.Clone(reg.gauges)
	reg.mu.Unlock()

	for _, name := range countNames {
		c := counters[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, escapeHelp(c.help), name, name, c.Value())
	}
	for _, name := range countVecNames {
		v := countVecs[name]
		v.mu.RLock()
		values := sortedKeys(v.children)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, escapeHelp(v.help), name)
		for _, lv := range values {
			fmt.Fprintf(w, "%s %d\n", series(name, v.label, lv), v.children[lv].Value())
		}
		v.mu.RUnlock()
	}
	for _, name := range gaugeNames {
		g := gauges[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			name, escapeHelp(g.help), name, name, g.Value())
	}
	for _, name := range histNames {
		h := hists[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, escapeHelp(h.help), name)
		writePromHistogram(w, name, "", "", h.snapshot())
	}
	for _, name := range histVecNames {
		v := histVecs[name]
		v.mu.RLock()
		values := sortedKeys(v.children)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, escapeHelp(v.help), name)
		for _, lv := range values {
			writePromHistogram(w, name, v.label, lv, v.children[lv].snapshot())
		}
		v.mu.RUnlock()
	}
}

// writePromHistogram writes one histogram series set: cumulative buckets,
// sum and count, with an optional family label on every line.
func writePromHistogram(w io.Writer, name, label, value string, s HistogramSnapshot) {
	for _, b := range s.Buckets {
		if label == "" {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, b.LE, b.Cumulative)
		} else {
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, value, b.LE, b.Cumulative)
		}
	}
	suffix := ""
	if label != "" {
		suffix = fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(s.SumSeconds))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
}

// wantsJSON reports whether a /metrics request asked for the JSON
// exposition (?format=json, or an Accept header naming application/json);
// everything else gets the Prometheus text format.
func wantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// MetricsHandler serves GET /metrics for every service: Prometheus text by
// default, the JSON Snapshot on request. The two expositions report
// identical values (pinned by test).
func MetricsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			return
		}
		if wantsJSON(r) {
			httpx.WriteJSON(w, TakeSnapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w)
	}
}

// Health is the wire shape of GET /healthz.
type Health struct {
	// Status is "ok" or "degraded"; the HTTP status is 200 either way
	// (degraded is operating information, not an outage), and anything
	// other than a parseable body means the process is gone.
	Status  string `json:"status"`
	Service string `json:"service"`
	// Detail explains a degraded status.
	Detail string `json:"detail,omitempty"`
	// UnhealthyShards lists shard ids out of the plane (quarantined or
	// TTL-expired) on services that own a shard fleet.
	UnhealthyShards []int `json:"unhealthy_shards,omitempty"`
}

// HealthzHandler serves GET /healthz from a live report callback.
func HealthzHandler(report func() Health) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			return
		}
		httpx.WriteJSON(w, report())
	}
}

// Statusz is the wire shape of GET /statusz: the service's recent cycle
// timelines plus a service-specific snapshot (placement on the controller,
// engine fingerprint on a shard, window state on the diagnoser).
type Statusz struct {
	Service string          `json:"service"`
	Cycles  []CycleSnapshot `json:"cycles"`
	Detail  any             `json:"detail,omitempty"`
}

// StatuszHandler serves GET /statusz from a tracer and a detail callback
// (nil for none).
func StatuszHandler(service string, t *Tracer, detail func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			return
		}
		st := Statusz{Service: service, Cycles: t.Timeline()}
		if detail != nil {
			st.Detail = detail()
		}
		httpx.WriteJSON(w, st)
	}
}

// PprofMux returns a mux serving net/http/pprof at /debug/pprof/ without
// touching http.DefaultServeMux — the profiling surface stays off unless a
// process opts in (detectord -pprof).
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
