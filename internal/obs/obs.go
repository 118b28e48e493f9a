// Package obs is the cycle-scoped observability plane: zero-alloc hot-path
// instrumentation primitives (fixed power-of-two-bucket latency histograms,
// gauges, and labeled counter families with bounded cardinality), a
// cycle-scoped tracer whose IDs propagate to remote shards over the
// X-Detector-Cycle header, Prometheus text + JSON exposition for every
// service's GET /metrics, and the /healthz, /statusz and pprof surfaces.
//
// The design follows AMON's principle that a monitoring system must itself
// be continuously measurable at bounded cost: every primitive is a fixed
// number of atomic operations on pre-registered storage — no allocation, no
// locking, no unbounded label growth — so instrumentation can stay on the
// construction and localization critical paths permanently rather than
// living only in offline benchmarks.
package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: finite upper bounds at every power of two from
// 2^bucketMinExp ns (~1 µs) through 2^(bucketMinExp+numFinite-1) ns
// (~17.2 s), plus a +Inf bucket. Power-of-two bounds make the hot path one
// bits.Len64 and three atomic adds.
const (
	bucketMinExp = 10 // smallest finite bound: 2^10 ns ≈ 1 µs
	numFinite    = 25 // finite bounds 2^10 .. 2^34 ns
	numBuckets   = numFinite + 1
)

// Histogram is a fixed-bucket latency histogram. Observe is safe for
// concurrent use and allocation-free.
type Histogram struct {
	name, help string
	buckets    [numBuckets]atomic.Uint64
	count      atomic.Uint64
	sumNS      atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	idx := 0
	if ns > 1<<bucketMinExp {
		// Bucket i holds ns in (2^(minExp+i-1), 2^(minExp+i)]; ns-1 keeps
		// exact powers of two in the bucket whose bound they equal, so the
		// exposition's `le` is a true ≤.
		idx = bits.Len64(uint64(ns-1)) - bucketMinExp
		if idx > numFinite {
			idx = numFinite
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the sum of all observed durations in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNS.Load()) / 1e9 }

// bucketBoundSeconds is the upper bound of finite bucket i, in seconds.
func bucketBoundSeconds(i int) float64 {
	return float64(int64(1)<<(bucketMinExp+i)) / 1e9
}

// Bucket is one cumulative histogram bucket in a snapshot. LE is the upper
// bound in seconds formatted exactly as the Prometheus text exposition
// prints it ("+Inf" for the last bucket), so the two expositions are
// comparable value for value.
type Bucket struct {
	LE         string `json:"le"`
	Cumulative uint64 `json:"count"`
}

// HistogramSnapshot is one histogram's state for the JSON exposition.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// snapshot reads the histogram's current state (not atomic across fields;
// concurrent observations may straddle the read, as with any live scrape).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, numBuckets)}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < numFinite {
			le = formatFloat(bucketBoundSeconds(i))
		}
		s.Buckets[i] = Bucket{LE: le, Cumulative: cum}
	}
	s.Count = h.count.Load()
	s.SumSeconds = h.SumSeconds()
	return s
}

// Counter is a monotonically increasing counter: a registered operational
// counter (NewCounter) or one child of a labeled CounterVec family. One
// atomic add, cheap enough for request paths.
type Counter struct {
	help string // set by NewCounter; empty on a CounterVec child
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (bulk increments: byte counts and the like).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value (shards alive, paths tracked).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// OverflowLabel is the label value that absorbs every child past a family's
// cardinality bound: series count stays bounded no matter how label values
// churn, and the overflow series makes the truncation itself visible.
const OverflowLabel = "overflow"

// CounterVec is a labeled counter family with bounded cardinality: at most
// maxSeries distinct label values get their own child; later values share
// the OverflowLabel child.
type CounterVec struct {
	name, help, label string
	max               int

	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for a label value, creating it on first
// use (or the shared overflow child once the family is at its bound).
// Callers on hot paths should look the child up once and hold it.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[value]; c != nil {
		return c
	}
	if len(v.children) >= v.max {
		value = OverflowLabel
		if c := v.children[value]; c != nil {
			return c
		}
	}
	c = &Counter{}
	v.children[value] = c
	return c
}

// Len returns the number of live series in the family (test hook for the
// cardinality bound).
func (v *CounterVec) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.children)
}

// HistogramVec is a labeled histogram family with the same bounded
// cardinality contract as CounterVec.
type HistogramVec struct {
	name, help, label string
	max               int

	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the child histogram for a label value (see CounterVec.With).
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.children[value]; h != nil {
		return h
	}
	if len(v.children) >= v.max {
		value = OverflowLabel
		if h := v.children[value]; h != nil {
			return h
		}
	}
	h = &Histogram{name: v.name, help: v.help}
	v.children[value] = h
	return h
}

// Len returns the number of live series in the family.
func (v *HistogramVec) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.children)
}

// registry holds every registered metric, keyed by name. Registration is
// idempotent by name (the same name always yields the same metric, so
// package-level declarations across packages cannot collide) but a name
// re-registered as a different kind panics: two packages fighting over one
// name with different types is a bug worth failing loudly on.
var reg = struct {
	mu        sync.Mutex
	hists     map[string]*Histogram
	histVecs  map[string]*HistogramVec
	counters  map[string]*Counter
	countVecs map[string]*CounterVec
	gauges    map[string]*Gauge
}{
	hists:     make(map[string]*Histogram),
	histVecs:  make(map[string]*HistogramVec),
	counters:  make(map[string]*Counter),
	countVecs: make(map[string]*CounterVec),
	gauges:    make(map[string]*Gauge),
}

func checkKind(name, kind string) {
	if _, ok := reg.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as histogram, now requested as %s", name, kind))
	}
	if _, ok := reg.histVecs[name]; ok && kind != "histogramvec" {
		panic(fmt.Sprintf("obs: %q already registered as histogram family, now requested as %s", name, kind))
	}
	if _, ok := reg.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as counter, now requested as %s", name, kind))
	}
	if _, ok := reg.countVecs[name]; ok && kind != "countervec" {
		panic(fmt.Sprintf("obs: %q already registered as counter family, now requested as %s", name, kind))
	}
	if _, ok := reg.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as gauge, now requested as %s", name, kind))
	}
}

// NewHistogram registers (or returns) the histogram under name.
func NewHistogram(name, help string) *Histogram {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if h, ok := reg.hists[name]; ok {
		return h
	}
	checkKind(name, "histogram")
	h := &Histogram{name: name, help: help}
	reg.hists[name] = h
	return h
}

// NewHistogramVec registers (or returns) the labeled histogram family under
// name. maxSeries bounds the family's cardinality (plus one overflow
// series).
func NewHistogramVec(name, help, label string, maxSeries int) *HistogramVec {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if v, ok := reg.histVecs[name]; ok {
		return v
	}
	checkKind(name, "histogramvec")
	v := &HistogramVec{name: name, help: help, label: label, max: maxSeries,
		children: make(map[string]*Histogram)}
	reg.histVecs[name] = v
	return v
}

// NewCounter registers (or returns) the counter under name.
func NewCounter(name, help string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if c, ok := reg.counters[name]; ok {
		return c
	}
	checkKind(name, "counter")
	c := &Counter{help: help}
	reg.counters[name] = c
	return c
}

// NewCounterVec registers (or returns) the labeled counter family under
// name, bounded at maxSeries distinct label values plus one overflow.
func NewCounterVec(name, help, label string, maxSeries int) *CounterVec {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if v, ok := reg.countVecs[name]; ok {
		return v
	}
	checkKind(name, "countervec")
	v := &CounterVec{name: name, help: help, label: label, max: maxSeries,
		children: make(map[string]*Counter)}
	reg.countVecs[name] = v
	return v
}

// NewGauge registers (or returns) the gauge under name.
func NewGauge(name, help string) *Gauge {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if g, ok := reg.gauges[name]; ok {
		return g
	}
	checkKind(name, "gauge")
	g := &Gauge{name: name, help: help}
	reg.gauges[name] = g
	return g
}

// Stages is the cross-service pipeline stage histogram family — the live
// per-cycle analog of the paper's Table 2/5 per-stage decomposition.
// Coordinator stages: materialize, decompose, assign, construct_dispatch,
// repair per cycle that repairs a masked component, merge, serve,
// churn_diff per effective topology change, and churn_index per change
// that is the first to touch a pristine component. Diagnoser
// stages: ingest, window_close, localize, classify.
var Stages = NewHistogramVec("detector_stage_duration_seconds",
	"Per-cycle pipeline stage latency, one series per stage.", "stage", 32)
