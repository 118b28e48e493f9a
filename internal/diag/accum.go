package diag

// The window state: everything the diagnoser holds about probe paths, dense
// and indexed by matrix row, bound to one served matrix version. Wire path
// IDs are translated to rows once, at ingest; after that every structure is
// a slice the window close scans linearly, zeroes and rolls forward in
// place, so a steady-state window allocates nothing per path and the state
// is bounded by the matrix, not by what was ever reported. SetMatrix swaps
// the whole state on a version change, so nothing about the old version's
// paths carries over.
//
// Two sections, two locking rules:
//
//   - ingest section (win): row r is guarded by locks[r>>stripeShift].
//     Report handlers lock only the stripes their rows fall in and never
//     take a diagnoser-wide lock; the close locks one stripe at a time.
//   - close section (everything from straddled down): touched only by
//     RunWindow, which Diagnoser.closeMu serialises.
//
// Beside them sits the epoch bookkeeping (pingers, reported): one atomic
// high-water mark per pinger the matrix expects, written by ingest with no
// lock at all and read by the window clock (epoch.go).

import (
	"sync"
	"sync/atomic"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// stripeShift sets the ingest lock granularity: 128 consecutive rows share
// a lock. One pinger's paths are mostly consecutive rows, so a report frame
// holds one lock over a run of results instead of taking one per result,
// and frames of different pingers fall in different stripes.
const stripeShift = 7

// rowCounters is one row's open window: merged counters and
// delivered-weighted signal sums, zeroed (not reallocated) at window close.
type rowCounters struct {
	sent, lost     int
	acked, rttW    float64
	rttSum, jitSum float64
	ecnSum         float64
	// touched marks the row as having received a report this window.
	touched bool
}

type windowState struct {
	matrix  *route.Probes
	version int
	// engine is PLL bound to matrix: every window of this version is
	// localized on it.
	engine *pll.Engine
	// matrixSig (route.RowsSignature of matrix) names the matrix to the
	// shard endpoint its windows go to, d.clients[endpoint]; both are zero
	// on a diagnoser without endpoints.
	matrixSig uint64
	endpoint  int

	locks []sync.Mutex
	win   []rowCounters

	// pingers are the servers the matrix expects reports from (its distinct
	// Src); reported[i] is the highest window epoch pingers[i] has
	// reported into this state, set after the frame's results are merged.
	// pingerAt and pingers never change, so ingest reads them unlocked.
	pingers  []topo.NodeID
	pingerAt map[topo.NodeID]int
	reported []atomic.Int64

	// straddled marks the first window of a state that replaced another:
	// its reports straddle the version change and the close discards them.
	straddled bool
	// obs is the window last closed, row-indexed (obs[r].Path == r, Sent == 0
	// for a silent row) and rewritten by every close.
	obs []pll.Observation
	// slow banks obs' counters for the long-window pass in the same layout;
	// nil when the pass is off.
	slow []pll.Observation
	// sig is the cross-window context as of the window before obs: each
	// row's loss-rate history and min-tracked healthy RTT baseline.
	sig pll.Signals
	// idle[r] counts the windows since row r last reported; 0 marks a row
	// that reported in obs. Past horizon (Options.HistoryWindows) the row
	// forgets its history and baseline.
	idle    []int32
	horizon int32
}

func newWindowState(m *route.Probes, version int, opts *Options, straddled bool) *windowState {
	rows, horizon := m.NumPaths(), opts.HistoryWindows
	if horizon <= 0 {
		horizon = 12
	}
	s := &windowState{
		matrix: m, version: version, straddled: straddled,
		engine: pll.NewEngine(m),
		locks:  make([]sync.Mutex, (rows>>stripeShift)+1),
		win:    make([]rowCounters, rows),
		obs:    make([]pll.Observation, rows),
		sig: pll.Signals{
			History:   pll.NewHistory(rows, horizon),
			BaseRTTNS: make([]int64, rows),
			Counters:  opts.LinkCounters,
		},
		idle:    make([]int32, rows),
		horizon: int32(horizon),
	}
	if opts.SlowEvery > 0 {
		s.slow = make([]pll.Observation, rows)
		for r := range s.slow {
			s.slow[r].Path = r
		}
	}
	s.pingerAt = make(map[topo.NodeID]int)
	for _, src := range m.Src {
		if _, ok := s.pingerAt[src]; !ok {
			s.pingerAt[src] = len(s.pingers)
			s.pingers = append(s.pingers, src)
		}
	}
	s.reported = make([]atomic.Int64, len(s.pingers))
	return s
}

// advance raises node's high-water mark to epoch and reports whether it
// moved. A node the matrix does not expect has no mark.
func (s *windowState) advance(node topo.NodeID, epoch int64) bool {
	i, ok := s.pingerAt[node]
	if !ok {
		return false
	}
	for m := &s.reported[i]; ; {
		cur := m.Load()
		if epoch <= cur {
			return false
		}
		if m.CompareAndSwap(cur, epoch) {
			return true
		}
	}
}

// ingest merges the results of one report frame into a window state,
// holding the current stripe's lock across consecutive results that share
// it. Zero value plus st is ready; done must be called when the frame ends.
type ingest struct {
	st      *windowState
	held    *sync.Mutex
	unknown int64
}

// merge folds one path's window counters (and, when acked > 0 with a
// positive RTT, its delivered-weighted signals) into the path's row.
// Multiple reports for one path — several pingers probing the same path, or
// several batched sub-windows — accumulate into honest weighted means. A
// path ID the bound matrix does not carry (a path retired by churn, a stale
// pinger, or no matrix bound yet) is counted and dropped.
func (in *ingest) merge(pathID uint32, sent, lost int, meanRTTNS, jitterNS int64, ecnFrac float64) {
	row, ok := 0, false
	if in.st != nil {
		row, ok = in.st.matrix.RowOf(pathID)
	}
	if !ok {
		in.unknown++
		return
	}
	if mu := &in.st.locks[row>>stripeShift]; mu != in.held {
		if in.held != nil {
			in.held.Unlock()
		}
		mu.Lock()
		in.held = mu
	}
	c := &in.st.win[row]
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
}

func (in *ingest) done() {
	if in.held != nil {
		in.held.Unlock()
	}
	if in.unknown > 0 {
		unknownPathResults.Add(in.unknown)
	}
}

// close turns the open window into s.obs and zeroes it, stripe by stripe,
// banking the counters for the slow pass. It returns how many rows
// reported. History and baselines are not touched: the verdicts of this
// window read them as they stood before it (see rollForward).
func (s *windowState) close() (reported int) {
	for k := range s.locks {
		lo := k << stripeShift
		hi := min(lo+1<<stripeShift, len(s.win))
		s.locks[k].Lock()
		for r := lo; r < hi; r++ {
			c, o := &s.win[r], pll.Observation{Path: r}
			if c.touched && !s.straddled {
				o.Sent, o.Lost = c.sent, c.lost
				if c.acked > 0 {
					o.ECNFrac = c.ecnSum / c.acked
				}
				if c.rttW > 0 {
					o.MeanRTTNS = int64(c.rttSum / c.rttW)
					o.JitterNS = int64(c.jitSum / c.rttW)
				}
				if s.slow != nil {
					s.slow[r].Sent += c.sent
					s.slow[r].Lost += c.lost
				}
				s.idle[r] = 0
				reported++
			} else {
				s.idle[r]++
			}
			if c.touched {
				*c = rowCounters{}
			}
			s.obs[r] = o
		}
		s.locks[k].Unlock()
	}
	s.straddled = false
	return reported
}

// rollForward folds the closed window into the cross-window state, after
// its verdicts were classified: rows that reported append their loss rate
// and min-track the RTT baseline; a row silent past the horizon forgets
// both, unless it still banks counters for a pending slow pass.
func (s *windowState) rollForward() {
	for r := range s.obs {
		o := &s.obs[r]
		switch {
		case s.idle[r] == 0:
			s.sig.History.Append(r, float64(o.Lost)/float64(max(o.Sent, 1)))
			if o.MeanRTTNS > 0 && (s.sig.BaseRTTNS[r] == 0 || o.MeanRTTNS < s.sig.BaseRTTNS[r]) {
				s.sig.BaseRTTNS[r] = o.MeanRTTNS
			}
		case s.idle[r] > s.horizon && (s.slow == nil || s.slow[r].Sent == 0):
			s.sig.History.Forget(r)
			s.sig.BaseRTTNS[r] = 0
		}
	}
}
