package pll

import (
	"math"
	"sort"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// VerdictClass is the multi-signal verdict lattice over a localized link.
// Classify's loss-only classes (full / deterministic / random) answer "how
// does this link lose packets"; the lattice answers the operator's prior
// question, "is this link dying or merely busy" — using the latency, ECN
// and per-window time-series signals alongside loss (paper §7's richer
// failure-mode discrimination).
type VerdictClass uint8

const (
	// VerdictUnknown means not enough signal to decide.
	VerdictUnknown VerdictClass = iota
	// VerdictLossy: persistent counted loss — the link is losing traffic
	// and its switch knows (CRC errors, buffer overruns, link down).
	VerdictLossy
	// VerdictSilentPartial: persistent loss the switch counters do not
	// see — the gray failure proper, the paper's motivating case.
	VerdictSilentPartial
	// VerdictCongested: ECN marks and inflated RTT, losses (if any)
	// explained by queue pressure — busy, not broken.
	VerdictCongested
	// VerdictDelayed: inflated RTT with no loss and no marks — a slow
	// forwarding path.
	VerdictDelayed
	// VerdictFlapping: the per-window loss-rate series alternates between
	// clean and dead — a failing transceiver, not a steady fault.
	VerdictFlapping
)

// String names the verdict.
func (c VerdictClass) String() string {
	switch c {
	case VerdictLossy:
		return "lossy"
	case VerdictSilentPartial:
		return "silent-partial"
	case VerdictCongested:
		return "congested"
	case VerdictDelayed:
		return "delayed"
	case VerdictFlapping:
		return "flapping"
	default:
		return "unknown"
	}
}

// Hard reports whether the verdict warrants a link-down-style alert (the
// link is losing traffic persistently) rather than a congestion advisory.
func (c VerdictClass) Hard() bool {
	return c == VerdictLossy || c == VerdictSilentPartial || c == VerdictFlapping
}

// SignalConfig tunes the verdict lattice. The zero value of any field
// takes the default.
type SignalConfig struct {
	// ECNFloor is the pooled ECN-mark fraction above which a link counts
	// as congested (default 0.05).
	ECNFloor float64
	// RTTInflation is the ratio of current to baseline path RTT above
	// which latency counts as inflated (default 2.0).
	RTTInflation float64
	// FlapHigh and FlapLow are the hysteresis thresholds on per-window
	// loss rate for flap detection (defaults 0.25 and 0.02): a window is
	// "down" above FlapHigh, "up" below FlapLow.
	FlapHigh, FlapLow float64
	// FlapTransitions is how many down/up state changes the loss-rate
	// series needs before the link counts as flapping (default 2).
	FlapTransitions int
	// CounterFloor is the switch-counter drop delta below which observed
	// loss counts as silent (default 3): probes are vanishing but the
	// switch claims innocence.
	CounterFloor int64
	// LossFloor is the pooled loss rate below which the link counts as
	// loss-free (default 1e-3, PLL's LossRatioFloor).
	LossFloor float64
}

// DefaultSignalConfig returns the lattice's operating point.
func DefaultSignalConfig() SignalConfig {
	return SignalConfig{
		ECNFloor:        0.05,
		RTTInflation:    2.0,
		FlapHigh:        0.25,
		FlapLow:         0.02,
		FlapTransitions: 2,
		CounterFloor:    3,
		LossFloor:       1e-3,
	}
}

func (c SignalConfig) norm() SignalConfig {
	d := DefaultSignalConfig()
	if c.ECNFloor == 0 {
		c.ECNFloor = d.ECNFloor
	}
	if c.RTTInflation == 0 {
		c.RTTInflation = d.RTTInflation
	}
	if c.FlapHigh == 0 {
		c.FlapHigh = d.FlapHigh
	}
	if c.FlapLow == 0 {
		c.FlapLow = d.FlapLow
	}
	if c.FlapTransitions == 0 {
		c.FlapTransitions = d.FlapTransitions
	}
	if c.CounterFloor == 0 {
		c.CounterFloor = d.CounterFloor
	}
	if c.LossFloor == 0 {
		c.LossFloor = d.LossFloor
	}
	return c
}

// LinkCounters reports the switch drop-counter delta of a link over the
// window, and whether counters are available for it at all. The diagnoser
// backs it with the SNMP baseline's poll deltas.
type LinkCounters func(l topo.LinkID) (delta int64, ok bool)

// History is every matrix row's recent loss rates, for flap detection: a
// fixed-depth ring per row in one flat slice, appended in place. The layout
// is slot-major (ring[slot*rows+row]), so a fleet whose rows all report
// every window appends one contiguous run per window.
type History struct {
	rows, depth int
	// n[row] counts the samples appended since the row was last forgotten,
	// folded back by depth at 2*depth: min(n, depth) samples are live and
	// the next lands in slot n%depth.
	n    []int32
	ring []float64
}

// NewHistory holds up to depth samples for each of rows rows.
func NewHistory(rows, depth int) *History {
	return &History{rows: rows, depth: depth, n: make([]int32, rows), ring: make([]float64, rows*depth)}
}

// Append records row's loss rate for the window just closed, dropping the
// oldest sample once depth are held.
func (h *History) Append(row int, rate float64) {
	n := int(h.n[row])
	h.ring[n%h.depth*h.rows+row] = rate
	if n++; n == 2*h.depth {
		n = h.depth
	}
	h.n[row] = int32(n)
}

// Forget drops row's samples.
func (h *History) Forget(row int) { h.n[row] = 0 }

// Series appends row's samples to buf, oldest first. A nil History, or a
// row it does not hold, has none.
func (h *History) Series(buf []float64, row int) []float64 {
	if h == nil || row >= h.rows {
		return buf
	}
	n := int(h.n[row])
	for k := max(n-h.depth, 0); k < n; k++ {
		buf = append(buf, h.ring[k%h.depth*h.rows+row])
	}
	return buf
}

// Signals carries the cross-window context the lattice needs beyond one
// window's observations, as row-indexed views the diagnoser's standing
// state is read through in place. Any field may be nil/empty; the verdict
// degrades to what the remaining signals support.
type Signals struct {
	// History holds each row's loss rates of the preceding windows,
	// excluding the current window.
	History *History
	// BaseRTTNS[r] is row r's healthy-baseline mean RTT; zero, or a row past
	// the slice, has none.
	BaseRTTNS []int64
	// Counters exposes per-link switch drop-counter deltas.
	Counters LinkCounters
}

func (s *Signals) baseRTT(row int) int64 {
	if row < len(s.BaseRTTNS) {
		return s.BaseRTTNS[row]
	}
	return 0
}

// ClassifyVerdict places one localized link in the verdict lattice using
// the row-indexed window (see rowObservation) plus the cross-window signals
// of the paths through the link. Decision order encodes signal priority: a
// flapping series trumps everything (any single window misreads it), ECN
// marks trump loss (tail drops are a symptom of the queue), latency
// inflation without loss is a delay fault, and remaining persistent loss
// splits on whether the switch counted it.
func ClassifyVerdict(p *route.Probes, obs []Observation, link topo.LinkID, sig *Signals, cfg SignalConfig) VerdictClass {
	cfg = cfg.norm()
	if sig == nil {
		sig = &Signals{}
	}

	var sentTotal, lostTotal, delivered int
	var ecnWeighted, rttRatioWeighted, rttWeight float64
	flapPaths, observedPaths := 0, 0
	var series []float64
	for _, row := range p.PathsThrough(link) {
		o, ok := rowObservation(obs, row)
		if !ok {
			continue
		}
		observedPaths++
		sentTotal += o.Sent
		lostTotal += o.Lost
		del := o.Sent - o.Lost
		delivered += del
		ecnWeighted += o.ECNFrac * float64(del)

		series = append(sig.History.Series(series[:0], o.Path), float64(o.Lost)/float64(o.Sent))
		if flapTransitions(series, cfg) >= cfg.FlapTransitions {
			flapPaths++
		}
		if base := sig.baseRTT(o.Path); base > 0 && del > 0 && o.MeanRTTNS > 0 {
			rttRatioWeighted += float64(o.MeanRTTNS) / float64(base) * float64(del)
			rttWeight += float64(del)
		}
	}
	if observedPaths == 0 || sentTotal == 0 {
		return VerdictUnknown
	}

	// Flapping: the majority of observed paths through the link show an
	// alternating clean/dead series.
	if flapPaths*2 >= observedPaths && flapPaths > 0 {
		return VerdictFlapping
	}

	lossRate := float64(lostTotal) / float64(sentTotal)

	// Congestion: delivered-weighted ECN-mark fraction over the floor.
	if delivered > 0 && ecnWeighted/float64(delivered) >= cfg.ECNFloor {
		return VerdictCongested
	}

	// Latency inflation against the healthy baseline.
	if rttWeight > 0 && rttRatioWeighted/rttWeight >= cfg.RTTInflation {
		if lossRate < cfg.LossFloor {
			return VerdictDelayed
		}
		// Inflated and losing but unmarked: still queue pressure.
		return VerdictCongested
	}

	if lossRate < cfg.LossFloor {
		return VerdictUnknown
	}

	// Persistent loss: silent unless the switch counted it.
	if sig.Counters != nil {
		if delta, ok := sig.Counters(link); ok && delta < cfg.CounterFloor {
			return VerdictSilentPartial
		}
	}
	return VerdictLossy
}

// flapTransitions counts down/up state changes of a loss-rate series under
// hysteresis: rates above high enter the down state, below low the up
// state, in-between rates keep the current state.
func flapTransitions(series []float64, cfg SignalConfig) int {
	const (
		stateNone = iota
		stateUp
		stateDown
	)
	state, transitions := stateNone, 0
	for _, r := range series {
		next := state
		switch {
		case r >= cfg.FlapHigh:
			next = stateDown
		case r <= cfg.FlapLow:
			next = stateUp
		}
		if state != stateNone && next != state {
			transitions++
		}
		state = next
	}
	return transitions
}

// SoftVerdict is one link flagged by the signal-localization pass:
// congested or delayed, advisory rather than link-down.
type SoftVerdict struct {
	Link topo.LinkID
	// Class is VerdictCongested or VerdictDelayed.
	Class VerdictClass
	// Level is the attributed signal intensity: the explained ECN-mark
	// fraction for congestion, the fraction of inflated probes for delay.
	Level float64
}

// SignalResult is the outcome of LocalizeSignals.
type SignalResult struct {
	Congested []SoftVerdict
	Delayed   []SoftVerdict
}

// LocalizeSignals localizes congestion and delay faults that the loss
// pipeline cannot see (they lose little or nothing). It maps each signal
// onto pseudo loss observations — ECN-marked probes "lost" for the
// congestion pass, RTT-inflated paths fully "lost" for the delay pass —
// and reuses the PLL greedy on them, so the localization math (hit
// ratios, component decomposition) is shared with the loss path. A pass
// whose signal no row carries builds nothing: on a fleet with no marks and
// no inflation the cost is two scans of the window.
func LocalizeSignals(p *route.Probes, obs []Observation, sig *Signals, scfg SignalConfig, cfg Config) SignalResult {
	scfg = scfg.norm()
	if sig == nil {
		sig = &Signals{}
	}
	// localize runs PLL over the window with each path's losses replaced
	// by pseudoLost, if any path has some.
	localize := func(pseudoLost func(*Observation) int) []Verdict {
		any := false
		for i := range obs {
			if any = pseudoLost(&obs[i]) > 0; any {
				break
			}
		}
		if !any {
			return nil
		}
		pseudo := make([]Observation, len(obs))
		for i := range obs {
			pseudo[i] = Observation{Path: obs[i].Path, Sent: obs[i].Sent, Lost: pseudoLost(&obs[i])}
		}
		r, err := Localize(p, pseudo, cfg)
		if err != nil {
			return nil
		}
		return r.Bad
	}
	var res SignalResult

	// Congestion pass: a path's marked probes become its losses.
	congested := make(map[topo.LinkID]bool)
	for _, v := range localize(func(o *Observation) int {
		del := o.Sent - o.Lost
		if del <= 0 || o.ECNFrac < scfg.ECNFloor {
			return 0
		}
		return max(int(math.Round(o.ECNFrac*float64(del))), 1)
	}) {
		congested[v.Link] = true
		res.Congested = append(res.Congested, SoftVerdict{Link: v.Link, Class: VerdictCongested, Level: v.Rate})
	}

	// Delay pass: an inflated, unmarked path counts as fully lost.
	for _, v := range localize(func(o *Observation) int {
		if o.MeanRTTNS <= 0 || o.Sent-o.Lost <= 0 || o.ECNFrac >= scfg.ECNFloor {
			return 0
		}
		if base := sig.baseRTT(o.Path); base > 0 && float64(o.MeanRTTNS) >= scfg.RTTInflation*float64(base) {
			return o.Sent
		}
		return 0
	}) {
		if !congested[v.Link] {
			res.Delayed = append(res.Delayed, SoftVerdict{Link: v.Link, Class: VerdictDelayed, Level: v.Rate})
		}
	}
	sort.Slice(res.Congested, func(i, j int) bool { return res.Congested[i].Link < res.Congested[j].Link })
	sort.Slice(res.Delayed, func(i, j int) bool { return res.Delayed[i].Link < res.Delayed[j].Link })
	return res
}
