// Command bench is deTector's benchmark: one harness that drives the
// control, diagnosis and probe planes through six workloads and reports
// end-to-end and per-layer metrics. See README.md for what each workload
// and metric is and why it was chosen.
//
//	bench                      every workload, untraced then traced, one JSON document
//	bench -workload W          one untraced run of W, one JSON result line
//	bench -workload W -trace 1 one traced run, per-layer metrics, out/trace-W.json
//	bench -repeat N            N fresh runs per workload at one seed, medians and spreads
//
// Every run of a workload is its own OS process, so CPU time and peak RSS
// belong to that workload alone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// processStart is when this process began, as near as Go code can tell;
// set-up time and every span are measured from it.
var processStart = time.Now()

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds float64
	// setups is how many times the workload sets up; setup_s is their median.
	setups int
	tr     *tracer
	rec    *recorder
}

// workload is one set of inputs the benchmark runs. toy is the same
// script at a size the package test can afford.
type workload struct {
	name string
	why  string
	// A workload's process runs on one scheduler thread (GOMAXPROCS=1)
	// unless everyCore is set. The sandbox is two cores of a shared host:
	// with both in use an operation waits for whichever the neighbours are
	// slowing, and forty alternated runs of the same cold cycle spread
	// 9.9 % (interquartile) on two threads and 4.9 % on one. The control
	// and replay workloads measure work done, which one thread measures;
	// live-f4 measures timers and keeps every core.
	everyCore bool
	full      func(*env) error
	toy       func(*env) error
}

const milli = time.Millisecond

// runSeconds is the length of a run's measured phase unless -seconds says
// otherwise; the package test holds it equal to BENCHMARK.json's run_seconds.
const runSeconds = 12

// traceDir is out/ beside this source file. run.sh and go run both build
// the harness where its source lies, so traces land in bench/out/ whatever
// the working directory; a binary carried elsewhere writes ./out.
func traceDir() string {
	if _, file, _, ok := runtime.Caller(0); ok {
		if info, err := os.Stat(filepath.Dir(file)); err == nil && info.IsDir() {
			return filepath.Join(filepath.Dir(file), "out")
		}
	}
	return "out"
}

var workloads = []workload{
	{
		name: "control-f16",
		why:  "cold PMC construction on Fattree(16) at alpha=3 beta=1: the paper's hot path; bypasses refine's pair universe and all transport",
		full: func(e *env) error {
			return runControl(e, controlParams{k: 16, alpha: 3, beta: 1, coldShare: 0.8, churnShare: 0.1,
				minCold: 3, minFlaps: 1, serveCycles: 10, probeReps: 5})
		},
		toy: func(e *env) error {
			return runControl(e, controlParams{k: 8, alpha: 3, beta: 1, minCold: 2, minFlaps: 1, serveCycles: 2, probeReps: 1})
		},
	},
	{
		name: "control-f12-b2",
		why:  "the same script on Fattree(12) at alpha=1 beta=2, where the time is in refine's virtual-pair splitting instead",
		full: func(e *env) error {
			return runControl(e, controlParams{k: 12, alpha: 1, beta: 2, coldShare: 0.8, churnShare: 0.1,
				minCold: 3, minFlaps: 1, serveCycles: 10, probeReps: 5})
		},
		toy: func(e *env) error {
			return runControl(e, controlParams{k: 6, alpha: 1, beta: 2, minCold: 2, minFlaps: 1, serveCycles: 2, probeReps: 1})
		},
	},
	{
		name: "churn-f16",
		why:  "single-link flaps on Fattree(16): the incremental diff, warm-started PMC and pinglist delta serving that cold cycles bypass",
		full: func(e *env) error {
			return runControl(e, controlParams{k: 16, alpha: 3, beta: 1, coldShare: 0, churnShare: 0.9,
				minCold: 2, minFlaps: 1, serveCycles: 10, churnHeadline: true, probeReps: 5})
		},
		toy: func(e *env) error {
			return runControl(e, controlParams{k: 8, alpha: 3, beta: 1, minCold: 2, minFlaps: 2, serveCycles: 2,
				churnHeadline: true, probeReps: 1})
		},
	},
	{
		name: "diagnose-f16",
		why:  "unsharded diagnoser replaying windows on the served Fattree(16) matrix: striped ingest and incremental PLL; bypasses shard and shardrpc",
		full: func(e *env) error {
			return runDiagnose(e, diagnoseParams{k: 16, scenarios: 12, windowsPer: 3, faultCounts: []int{1, 2, 5, 10},
				probesPerPath: 300, minPasses: 2})
		},
		toy: func(e *env) error {
			return runDiagnose(e, diagnoseParams{k: 8, scenarios: 5, windowsPer: 1, faultCounts: []int{1, 2},
				probesPerPath: 100, minPasses: 2})
		},
	},
	{
		name: "diagnose-f16-remote",
		why:  "the same windows through two loopback shardrpc servers: full recompute per window over the wire, the only place transport cost shows end to end",
		full: func(e *env) error {
			return runDiagnose(e, diagnoseParams{k: 16, scenarios: 12, windowsPer: 3, faultCounts: []int{1, 2, 5, 10},
				probesPerPath: 300, remoteShards: 2, minPasses: 2})
		},
		toy: func(e *env) error {
			return runDiagnose(e, diagnoseParams{k: 8, scenarios: 5, windowsPer: 1, faultCounts: []int{1, 2},
				probesPerPath: 100, remoteShards: 2, minPasses: 2})
		},
	},
	{
		name:      "live-f4",
		everyCore: true,
		why:       "the whole deployment on loopback (pinger, fabric, responder, HTTP reports, timer-driven windows): open-loop fault injection to alert",
		full: func(e *env) error {
			return runLive(e, liveParams{k: 4, window: 125 * milli, probeTimeout: 50 * milli, ratePPS: 200,
				warmupWindows: 2, minTrials: 4, echoProbes: 2000, codecOps: 200000})
		},
		toy: func(e *env) error {
			return runLive(e, liveParams{k: 4, window: 100 * milli, probeTimeout: 40 * milli, ratePPS: 200,
				warmupWindows: 1, minTrials: 2, echoProbes: 50, codecOps: 1000})
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one-line result of a single run.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload in this process and returns its result. A
// traced run reports the per-layer metrics and writes its spans under
// traceDir; an untraced run reports the end-to-end metrics.
func execute(w *workload, toy bool, seed int64, seconds float64, traced bool, traceDir string, stderr io.Writer) (*runResult, error) {
	e := &env{seed: seed, seconds: seconds, setups: 3, tr: &tracer{on: traced}, rec: newRecorder()}
	run := w.full
	if toy {
		run, e.setups = w.toy, 1
	}
	if err := run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e.rec.set("bench.trace_spans", float64(e.tr.count()))

	for _, g := range e.rec.gates {
		if !g.ok {
			fmt.Fprintf(stderr, "%s: gate %s FAILED: %s\n", w.name, g.name, g.detail)
		}
	}
	for _, err := range e.rec.opErrors {
		fmt.Fprintf(stderr, "%s: operation failed: %v\n", w.name, err)
	}
	if e.rec.verdictHash != 0 {
		fmt.Fprintf(stderr, "%s: seed %d verdict_hash %016x\n", w.name, seed, e.rec.verdictHash)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &runResult{Correct: e.rec.correct(), Attempted: e.rec.attempted, Failed: e.rec.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	counts := make(map[string]float64)
	for _, d := range defs {
		v := e.rec.value(d.Name)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if d.Unit == "count" || d.Unit == "bytes" {
			counts[d.Name] = v
		}
	}
	if err := e.tr.write(traceDir, w.name, seed, counts); err != nil {
		return nil, err
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", runSeconds, "length of the measured phase of one run")
	trace := fs.Int("trace", 0, "1 records spans, reports per-layer metrics and writes out/trace-<workload>.json")
	repeat := fs.Int("repeat", 0, "run each selected workload this many times at -seed in fresh processes and report spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}

	switch {
	case *repeat > 0:
		return runRepeat(selected, *seed, *seconds, *repeat, stdout, stderr)
	case *name == "":
		return runAll(selected, *seed, *seconds, stdout, stderr)
	}
	if !selected[0].everyCore {
		runtime.GOMAXPROCS(1)
	}
	res, err := execute(&selected[0], false, *seed, float64(*seconds), *trace == 1, traceDir(), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process of this binary and parses
// the result line it prints last.
func child(w string, seed int64, seconds int, traced bool, stderr io.Writer) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run() // waits for the process to end
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w, runErr)
		}
		return nil, fmt.Errorf("%s: result line: %w", w, err)
	}
	return &res, nil
}

type docWorkload struct {
	Correct      bool                   `json:"correct"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
}

// runAll runs every selected workload untraced, then traced, each in its
// own process, and prints one JSON document on stdout and a table on
// stderr. The gap between the two runs' headline operation is the tracing
// overhead.
func runAll(selected []workload, seed int64, seconds int, stdout, stderr io.Writer) int {
	doc := struct {
		Seed      int64                  `json:"seed"`
		Seconds   int                    `json:"seconds"`
		Workloads map[string]docWorkload `json:"workloads"`
	}{Seed: seed, Seconds: seconds, Workloads: make(map[string]docWorkload)}
	ok := true
	hashes := make(map[string]float64)
	for _, w := range selected {
		plain, err := child(w.name, seed, seconds, false, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		traced, err := child(w.name, seed, seconds, true, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		dw := docWorkload{Correct: plain.Correct && traced.Correct, OpsAttempted: plain.Attempted, OpsFailed: plain.Failed,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics}
		if base := plain.Metrics["op_ms"].Value; base > 0 {
			dw.PerLayer["bench.trace_overhead_pct"] = metricValue{
				Value: 100 * (traced.Metrics["bench.traced_op_ms"].Value - base) / base, Unit: "%"}
		}
		if h := traced.Metrics["diag.verdict_hash"].Value; h != 0 {
			hashes[w.name] = h
		}
		ok = ok && dw.Correct
		doc.Workloads[w.name] = dw
	}
	// The merged shard plane must give the unsharded diagnoser's verdicts.
	if a, b := hashes["diagnose-f16"], hashes["diagnose-f16-remote"]; a != 0 && b != 0 && a != b {
		fmt.Fprintf(stderr, "bench: verdict_hash differs: diagnose-f16 %012x, diagnose-f16-remote %012x\n", uint64(a), uint64(b))
		ok = false
	}

	tw := tabwriter.NewWriter(stderr, 0, 8, 2, ' ', 0)
	for _, w := range selected {
		dw := doc.Workloads[w.name]
		fmt.Fprintf(tw, "%s\tcorrect=%v\tops %d\tfailed %d\n", w.name, dw.Correct, dw.OpsAttempted, dw.OpsFailed)
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, dw.EndToEnd[d.Name].Value, d.Unit)
		}
		for _, d := range append(perLayer, metricDef{Name: "bench.trace_overhead_pct", Unit: "%"}) {
			if m := dw.PerLayer[d.Name]; m.Value != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, m.Value, d.Unit)
			}
		}
	}
	_ = tw.Flush() // stderr table is a convenience

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runRepeat runs each selected workload n times untraced in fresh
// processes at one seed, so what varies is the host and not the input, and
// prints per end-to-end metric the median, the quartiles, and whether the
// spread (interquartile range over median) fits the metric's bound.
func runRepeat(selected []workload, seed int64, seconds, n int, stdout, stderr io.Writer) int {
	type row struct {
		Values []float64 `json:"values"`
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Bound  float64   `json:"bound"`
		Fits   bool      `json:"fits"`
	}
	doc := make(map[string]map[string]*row)
	ok := true
	tw := tabwriter.NewWriter(stderr, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\tfits")
	for _, w := range selected {
		rows := make(map[string]*row)
		for _, d := range endToEnd {
			rows[d.Name] = &row{Bound: d.Bound}
		}
		for i := 0; i < n; i++ {
			res, err := child(w.name, seed, seconds, false, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			ok = ok && res.Correct
			for _, d := range endToEnd {
				rows[d.Name].Values = append(rows[d.Name].Values, res.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			r := rows[d.Name]
			r.Q1, r.Median, r.Q3 = quartiles(r.Values)
			if r.Median != 0 {
				r.Spread = (r.Q3 - r.Q1) / r.Median
			}
			// setup_s is exempt from the spread rule, not from the bound
			// on its median.
			r.Fits = r.Spread <= r.Bound || d.Name == "setup_s"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%v\n",
				w.name, d.Name, r.Median, r.Q1, r.Q3, 100*r.Spread, 100*r.Bound, r.Fits)
		}
		doc[w.name] = rows
	}
	_ = tw.Flush() // stderr table is a convenience
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
