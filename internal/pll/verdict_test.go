package pll_test

import (
	"reflect"
	"testing"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestHistoryRing: each row keeps its last depth samples, oldest first, at
// its own cadence, across many wraps of the ring; Forget starts it over.
func TestHistoryRing(t *testing.T) {
	const depth = 4
	h := pll.NewHistory(3, depth)
	var want []float64
	for w := 0; w < 10*depth+1; w++ {
		h.Append(1, float64(w))
		if w%3 == 0 { // row 2 reports every third window only
			h.Append(2, float64(-w))
		}
		want = append(want, float64(w))
		if len(want) > depth {
			want = want[1:]
		}
		if got := h.Series(nil, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: row 1 holds %v, want %v", w, got, want)
		}
	}
	if got := h.Series(nil, 2); !reflect.DeepEqual(got, []float64{-30, -33, -36, -39}) {
		t.Fatalf("row 2 holds %v", got)
	}
	if got := h.Series([]float64{9}, 0); !reflect.DeepEqual(got, []float64{9}) {
		t.Fatalf("silent row appended %v", got)
	}
	h.Forget(1)
	h.Append(1, 0.5)
	if got := h.Series(nil, 1); !reflect.DeepEqual(got, []float64{0.5}) {
		t.Fatalf("after Forget row 1 holds %v", got)
	}
	var none *pll.History
	if got := none.Series(nil, 0); len(got) != 0 {
		t.Fatalf("nil history holds %v", got)
	}
}

// TestVerdictReadsRowIndexedWindow: a link's evidence is the observations
// of the rows through it, read by row. Rows past the window's end, rows that
// did not report, and history or baselines shorter than the matrix are all
// "no evidence", not a panic.
func TestVerdictReadsRowIndexedWindow(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {0, 2}, {2}, {0}}, 3)
	scfg := pll.DefaultSignalConfig()

	// Rows 0 and 1 alternate dead/clean; row 3 (also through link 0) is
	// past the window's end and row 2 is not on the link.
	hist := pll.NewHistory(2, 12)
	for _, rate := range []float64{1, 0, 1, 0} {
		hist.Append(0, rate)
		hist.Append(1, rate)
	}
	down := []pll.Observation{{Path: 0, Sent: 100, Lost: 100}, {Path: 1, Sent: 100, Lost: 100}, {Path: 2, Sent: 100}}
	sig := &pll.Signals{History: hist, BaseRTTNS: []int64{50_000}}
	if got := pll.ClassifyVerdict(p, down, 0, sig, scfg); got != pll.VerdictFlapping {
		t.Fatalf("alternating series classified %v, want flapping", got)
	}
	if got := pll.ClassifyVerdict(p, down, 0, nil, scfg); got != pll.VerdictLossy {
		t.Fatalf("no cross-window context: %v, want lossy", got)
	}
	if got := pll.Classify(p, down, 0); got != pll.ClassFull {
		t.Fatalf("class %v, want full", got)
	}

	// A row that did not report (Sent == 0) carries no evidence: link 2 is
	// judged on row 2 alone, inflated 4x against its baseline.
	slow := []pll.Observation{{Path: 0}, {Path: 1}, {Path: 2, Sent: 100, MeanRTTNS: 400_000}}
	sig = &pll.Signals{BaseRTTNS: []int64{0, 0, 100_000}}
	if got := pll.ClassifyVerdict(p, slow, 2, sig, scfg); got != pll.VerdictDelayed {
		t.Fatalf("inflated row classified %v, want delayed", got)
	}
	if got := pll.ClassifyVerdict(p, slow, 1, sig, scfg); got != pll.VerdictUnknown {
		t.Fatalf("link with no reporting row classified %v, want unknown", got)
	}
	res := pll.LocalizeSignals(p, slow, sig, scfg, pll.DefaultConfig())
	if len(res.Congested) != 0 || len(res.Delayed) != 1 || res.Delayed[0].Link != 2 {
		t.Fatalf("signal localization: %+v", res)
	}
	if res := pll.LocalizeSignals(p, down, nil, scfg, pll.DefaultConfig()); len(res.Congested)+len(res.Delayed) != 0 {
		t.Fatalf("a window with no marks and no baselines localized %+v", res)
	}
}
