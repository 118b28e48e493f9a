package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []metricDef         `json:"end_to_end"`
	PerLayer   []metricDef         `json:"per_layer"`
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json's workloads and metrics from the harness's tables")

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryMatchesBenchmarkFile holds the harness's metric and workload
// tables equal to what BENCHMARK.json promises the driver.
func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if *update {
		b.Workloads = nil
		for _, w := range workloads {
			b.Workloads = append(b.Workloads, benchmarkWorkload{Name: w.name, Why: w.why})
		}
		b.EndToEnd, b.PerLayer = endToEnd, perLayer
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %+v\nharness %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile    %+v\nharness %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("file lists %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestToyWorkloads runs every workload at toy scale through the code the
// full-size runs use, untraced and traced, and checks the emitted metric
// names against the registry and the trace file's structure.
func TestToyWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			traced := traced
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				res, err := execute(w, true, 1, 0.2, traced, dir, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				// The live cluster runs on 100 ms windows beside eleven
				// other subtests; a late probe there says nothing about
				// the harness.
				if !res.Correct && w.name != "live-f4" {
					t.Errorf("run not correct: %d of %d operations failed", res.Failed, res.Attempted)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				var got, names []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				for _, d := range want {
					names = append(names, d.Name)
					if res.Metrics[d.Name].Unit != d.Unit {
						t.Errorf("%s: unit %q, want %q", d.Name, res.Metrics[d.Name].Unit, d.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(names)
				if !reflect.DeepEqual(got, names) {
					t.Errorf("emitted metrics\n%v\nwant\n%v", got, names)
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatal(err)
				}
				if len(tf.Spans) == 0 || tf.Workload != w.name {
					t.Fatalf("trace has %d spans for workload %q", len(tf.Spans), tf.Workload)
				}
				ids := make(map[int]bool, len(tf.Spans))
				for _, s := range tf.Spans {
					ids[s.ID] = true
				}
				for _, s := range tf.Spans {
					if s.Parent != 0 && !ids[s.Parent] {
						t.Errorf("span %d (%s): parent %d not in the trace", s.ID, s.Name, s.Parent)
					}
					if s.EndNS < s.StartNS || s.Name == "" || s.Op == 0 {
						t.Errorf("span %+v: unfinished, unnamed or without an operation", s)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
