package diag

// The window clock. Pingers cut their reports at wall-clock epoch boundaries
// — epoch e ends at e·W, W = Options.Window = the pinglist's WindowMS — and
// stamp each frame with the boundary it answers for (EndNS). The diagnoser
// closes epoch e when the evidence for it has arrived, not when a timer of
// its own happens to fire: as soon as every pinger the matrix expects has
// reported an epoch ≥ e, or when a grace of W/4 past the boundary runs out
// on the diagnoser's clock, whichever is first. Ingest is not gated on any
// of this: a frame merges into whatever window is open, so a report that
// arrives after its epoch closed counts, once, in the next one.

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/topo"
)

// Why an epoch closed: every expected pinger had reported it, or its grace
// ran out first. A fleet that leans on the grace has a silent, late or
// batching pinger, or clocks that disagree by a sizeable part of a window.
const (
	closeComplete = "complete"
	closeGrace    = "grace"
)

var (
	epochCloses = obs.NewCounterVec("diag_epoch_closes",
		"Window epochs closed, by what closed them: every expected pinger had reported, or the grace deadline passed.", "reason", 2)
	closeLagMS = obs.NewGauge("diag_epoch_close_lag_ms",
		"How long after its boundary the last window epoch closed, in milliseconds on the diagnoser's clock.")
)

// epochDue is the close rule. reported[i] is the highest epoch expected[i]
// has reported; pingers in unhealthy are not waited for. It returns the
// highest epoch ≥ e that may close at now and why, or "" when e must stay
// open. Only the grace reads now, so pinger clocks need agree only with each
// other for a complete close; one close answers for every epoch it skips
// (the diagnoser stalled past a whole window, or every pinger is ahead).
func epochDue(reported []atomic.Int64, expected []topo.NodeID, unhealthy map[topo.NodeID]bool,
	e int64, now time.Time, w time.Duration) (int64, string) {

	byGrace := (now.UnixNano() - int64(w)/4) / int64(w) // last epoch whose grace has run out
	lo, waited := int64(math.MaxInt64), false
	for i, n := range expected {
		if !unhealthy[n] {
			waited = true
			lo = min(lo, reported[i].Load())
		}
	}
	switch {
	case waited && lo >= e && lo >= byGrace:
		return lo, closeComplete
	case byGrace >= e:
		return byGrace, closeGrace
	}
	return 0, ""
}

// markReported records that node's frame for the epoch ending at endNS has
// been merged into st, and wakes the window clock when that is news. Frames
// without an epoch (EndNS 0: replayed or hand-built reports) are not marked.
func (d *Diagnoser) markReported(st *windowState, node topo.NodeID, endNS int64) {
	if st == nil || endNS <= 0 {
		return
	}
	if st.advance(node, endNS/int64(d.opts.Window)) {
		select {
		case d.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// Run drives the window clock until Stop: it evaluates epochDue whenever a
// pinger's mark advances and at the open epoch's grace deadline, and closes
// the window (RunWindow) when the epoch is due.
func (d *Diagnoser) Run() {
	d.done.Add(1)
	go func() {
		defer d.done.Done()
		w := d.opts.Window
		e := time.Now().UnixNano()/int64(w) + 1 // the first boundary still ahead
		for {
			grace := time.NewTimer(time.Until(time.Unix(0, e*int64(w)+int64(w)/4)))
			select {
			case <-d.stopChan:
				grace.Stop()
				return
			case <-d.wake:
			case <-grace.C:
			}
			grace.Stop()
			var unhealthy map[topo.NodeID]bool
			if d.opts.Unhealthy != nil {
				unhealthy = d.opts.Unhealthy()
			}
			var reported []atomic.Int64
			var expected []topo.NodeID
			if st := d.state.Load(); st != nil {
				reported, expected = st.reported, st.pingers
			}
			now := time.Now()
			epoch, reason := epochDue(reported, expected, unhealthy, e, now, w)
			if reason == "" {
				continue
			}
			lag := now.Sub(time.Unix(0, epoch*int64(w)))
			epochCloses.With(reason).Inc()
			closeLagMS.Set(lag.Milliseconds())
			d.runWindow(epoch)
			d.mu.Lock()
			d.lastClose = closeInfo{Epoch: epoch, Reason: reason, LagMS: float64(lag.Microseconds()) / 1000}
			d.mu.Unlock()
			d.closedEpochs.Add(1)
			e = epoch + 1
		}
	}()
}

// closeInfo describes the window clock's last close for /statusz.
type closeInfo struct {
	Epoch  int64   `json:"epoch"`
	Reason string  `json:"reason"`
	LagMS  float64 `json:"lag_ms"`
}

// ClosedEpochs counts the windows the clock has closed (not RunWindow calls
// made by hand): what a caller waits on instead of sleeping a window.
func (d *Diagnoser) ClosedEpochs() int64 { return d.closedEpochs.Load() }
