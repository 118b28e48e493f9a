package diag

// The report accumulator, rebuilt for streaming ingest. The original
// diagnoser kept four parallel maps (window counters, slow-window counters,
// loss history, RTT baseline) under the one Diagnoser mutex and reallocated
// the window map every close — at fleet scale that is a fresh allocation
// per path per window and a single lock every report frame fights for.
//
// The accumulator replaces them with one persistent slot per path, sharded
// over lock stripes by path ID. Ingest locks only the slot's stripe; the
// window close walks the stripes one at a time and ZEROES the window
// section of each slot instead of reallocating, so a steady-state fleet
// ingests with no per-report allocation at all. Cross-window state (loss
// history, RTT baseline, slow-window counters) lives in the same slot, and
// slots idle past the history horizon are deleted — the maps are bounded by
// the live path population, not by everything ever reported.

import "sync"

// numStripes is the lock-stripe fan-out (power of two; path IDs of one
// pinger are consecutive, so ID & mask spreads one frame's results evenly).
const numStripes = 64

// pathSlot is one path's standing accumulator state.
type pathSlot struct {
	// Window section: this window's merged counters and delivered-weighted
	// signal sums, zeroed (not reallocated) at window close.
	sent, lost     int
	acked, rttW    float64
	rttSum, jitSum float64
	ecnSum         float64
	// touched marks the slot as having received a report this window.
	touched bool

	// Cross-window section.
	slowSent, slowLost int       // long-window (SlowEvery) accumulation
	hist               []float64 // per-window loss rates, flap detection
	rttBase            int64     // healthy-baseline mean RTT (min-tracked)
	idle               int       // windows since last report, for pruning
}

type stripe struct {
	mu    sync.Mutex
	slots map[uint32]*pathSlot
}

// accumulator is the sharded ingest state. Ingest paths lock one stripe at
// a time; the window close serializes with them stripe by stripe.
type accumulator struct {
	stripes [numStripes]stripe
}

func newAccumulator() *accumulator {
	a := &accumulator{}
	for i := range a.stripes {
		a.stripes[i].slots = make(map[uint32]*pathSlot)
	}
	return a
}

// merge folds one path's window counters (and, when acked > 0 with a
// positive RTT, its delivered-weighted signals) into the path's slot.
// Multiple reports for one path — several pingers probing the same path, or
// several batched sub-windows — accumulate into honest weighted means,
// exactly as the old map-based Ingest did.
func (a *accumulator) merge(pathID uint32, sent, lost int, meanRTTNS, jitterNS int64, ecnFrac float64) {
	s := &a.stripes[pathID&(numStripes-1)]
	s.mu.Lock()
	c := s.slots[pathID]
	if c == nil {
		c = &pathSlot{}
		s.slots[pathID] = c
	}
	c.touched = true
	c.sent += sent
	c.lost += lost
	if del := float64(sent - lost); del > 0 {
		c.acked += del
		c.ecnSum += ecnFrac * del
		if meanRTTNS > 0 {
			c.rttW += del
			c.rttSum += float64(meanRTTNS) * del
			c.jitSum += float64(jitterNS) * del
		}
	}
	s.mu.Unlock()
}

// reset drops every slot — the matrix version changed, so path IDs index a
// different probe matrix and all standing state (histories, baselines, slow
// counters, window counters) is about paths that no longer exist.
func (a *accumulator) reset() {
	for i := range a.stripes {
		s := &a.stripes[i]
		s.mu.Lock()
		s.slots = make(map[uint32]*pathSlot)
		s.mu.Unlock()
	}
}

// paths counts live slots (tests and /statusz).
func (a *accumulator) paths() int {
	n := 0
	for i := range a.stripes {
		s := &a.stripes[i]
		s.mu.Lock()
		n += len(s.slots)
		s.mu.Unlock()
	}
	return n
}
