package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the harness made into a layer. Spans of one operation
// (one cold cycle, one churn convergence, one window, one fault trial)
// share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// The zero tracer is off: begin and end return at once without reading
// the clock, so the untraced run pays one branch per boundary. It is
// safe for concurrent use because the shard-server middleware records
// from HTTP handler goroutines.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// ms lists the durations, in milliseconds, of every finished span with
// the given name, in recording order.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.EndNS >= s.StartNS && s.EndNS != 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// msByOp sums the durations of the named spans per operation, so a layer
// called several times within one operation reports its share of it.
func (t *tracer) msByOp(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]float64)
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.EndNS != 0 {
			out[s.Op] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

// write stores the trace as <dir>/trace-<workload>.json. counts carries
// the counters recorded at the same boundaries as the spans.
func (t *tracer) write(dir, workload string, seed int64, counts map[string]float64) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Counts: counts, Spans: t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
