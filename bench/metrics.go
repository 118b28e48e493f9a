package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen (unset for
// per-layer metrics, which are not gated).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is printed by every workload's untraced run. Every workload
// reports every row, so each row is defined per workload (see README):
// op_ms is the workload's headline operation, accuracy and precision its
// output quality. The bounds on timings and memory are the widest the
// driver allows: the host drifts by more than any tighter bound (README,
// Measured spread).
var endToEnd = []metricDef{
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "accuracy", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "precision", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is printed by every workload's traced run; a layer the
// workload does not call reports 0.
var perLayer = []metricDef{
	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "route.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "route.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "route.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "route.components", Unit: "count", Better: "lower"},
	{Name: "pmc.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "pmc.score_evals", Unit: "count", Better: "lower"},
	{Name: "pmc.selected_paths", Unit: "count", Better: "lower"},
	{Name: "pmc.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "control.cycle_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "control.cycle_remainder_ms", Unit: "ms", Better: "lower"},
	{Name: "control.serve_ms", Unit: "ms", Better: "lower"},
	{Name: "control.churn_converge_ms", Unit: "ms", Better: "lower"},
	{Name: "control.churn_down_ms", Unit: "ms", Better: "lower"},
	{Name: "control.churn_up_ms", Unit: "ms", Better: "lower"},
	{Name: "route.churn_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "route.churn_dirty_components", Unit: "count", Better: "lower"},
	{Name: "control.churn_cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "control.churn_remainder_ms", Unit: "ms", Better: "lower"},
	{Name: "control.pinglist_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "control.pinglist_bytes", Unit: "bytes", Better: "lower"},
	{Name: "control.delta_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "control.delta_bytes", Unit: "bytes", Better: "lower"},
	{Name: "control.delta_changed_pingers", Unit: "count", Better: "lower"},
	{Name: "diag.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.window_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.ingest_results_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diag.window_close_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.window_remainder_ms", Unit: "ms", Better: "lower"},
	{Name: "diag.alloc_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "diag.accuracy", Unit: "ratio", Better: "higher"},
	{Name: "diag.false_positive_rate", Unit: "ratio", Better: "lower"},
	{Name: "diag.verdict_hash", Unit: "hash", Better: "lower"},
	{Name: "diag.reports_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pll.localize_ms", Unit: "ms", Better: "lower"},
	{Name: "pll.localize_standalone_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.server_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.requests_per_window", Unit: "count", Better: "lower"},
	{Name: "shardrpc.req_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "shardrpc.resp_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "shard.plane_remainder_ms", Unit: "ms", Better: "lower"},
	{Name: "live.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "live.detect_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.detect_windows", Unit: "windows", Better: "lower"},
	{Name: "live.inject_late_ms", Unit: "ms", Better: "lower"},
	{Name: "live.false_alerts", Unit: "count", Better: "lower"},
	{Name: "cluster.cpu_cores", Unit: "cores", Better: "lower"},
	{Name: "fabric.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "fabric.echo_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.input_gen_s", Unit: "s", Better: "lower"},
	{Name: "bench.traced_op_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_spans", Unit: "count", Better: "lower"},
}

// gate is one correctness check; any failed gate makes the run incorrect.
type gate struct {
	name   string
	ok     bool
	detail string
}

// recorder collects what one run measured: operations attempted and
// failed, correctness gates, timing samples and directly set values.
type recorder struct {
	attempted, failed int
	gates             []gate
	samples           map[string][]float64
	values            map[string]float64
	verdictHash       uint64
	// opErrors keeps the first few failed operations' errors for stderr.
	opErrors []error
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64), values: make(map[string]float64)}
}

// op counts one operation of the workload; a non-nil error fails it.
func (r *recorder) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.opErrors) < 5 {
			r.opErrors = append(r.opErrors, err)
		}
		return false
	}
	return true
}

// check records a correctness gate. A failed gate is also a failed
// operation, so it shows in the attempted/failed counts.
func (r *recorder) check(name string, ok bool, format string, args ...any) {
	g := gate{name: name, ok: ok}
	if !ok {
		g.detail = fmt.Sprintf(format, args...)
	}
	r.gates = append(r.gates, g)
	r.attempted++
	if !ok {
		r.failed++
	}
}

// snapshotRSS records the process's peak resident set so far as
// peak_rss_mb. Workloads call it when their measured script ends, before
// the correctness gates and layer probes, whose memory (pmc.Verify with
// pairs holds more than a beta=2 construction) is the harness's own.
func (r *recorder) snapshotRSS() {
	_, peak := rusage()
	r.set("peak_rss_mb", peak)
}

func (r *recorder) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
func (r *recorder) set(name string, v float64) { r.values[name] = v }

// value is a metric's reported number: the value set for it, else the
// median of its samples, else 0.
func (r *recorder) value(name string) float64 {
	if v, ok := r.values[name]; ok {
		return v
	}
	return median(r.samples[name])
}

func (r *recorder) gatesPassed() (passed, total int) {
	for _, g := range r.gates {
		if g.ok {
			passed++
		}
	}
	return passed, len(r.gates)
}

// correct reports a clean run; a failed gate counts as a failed operation.
func (r *recorder) correct() bool { return r.failed == 0 }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rusage returns the process's CPU time so far and its peak resident set.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetups runs setup n times and returns the last one's state and the
// median duration in seconds. Earlier states are torn down (untimed) and
// collected before the next set-up.
func timeSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var state T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(state)
			runtime.GC()
		}
		start := time.Now()
		var err error
		if state, err = setup(); err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return state, median(secs), nil
}

// calibrate times a fixed pure-Go kernel (integer mixing over a 1 MiB
// table) so a reader can tell a slow host from a slow program.
func calibrate() float64 {
	start := time.Now()
	table := make([]uint64, 1<<17)
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 12_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<17-1)] += x
	}
	calibSink.Add(table[x&(1<<17-1)])
	return ms(time.Since(start))
}

// calibSink keeps the kernel's result alive; atomic because the package
// test runs workloads side by side.
var calibSink atomic.Uint64
