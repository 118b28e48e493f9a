package pll

import (
	"math"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// LossClass is the failure mode inferred from a localized link's loss
// pattern. The paper's §7 proposes distinguishing full losses,
// deterministic partial losses and random partial losses to narrow the
// operator's diagnosis scope ("they exhibit different loss
// characteristics"); this classifier implements that proposal.
type LossClass uint8

const (
	// ClassUnknown means not enough observations to decide.
	ClassUnknown LossClass = iota
	// ClassFull: every path through the link loses (almost) everything —
	// link down, switch down, or hard blackhole of all flows.
	ClassFull
	// ClassDeterministic: loss rates differ wildly across paths through
	// the link (some clean, some heavily hit) — the signature of a
	// flow-selective blackhole or misconfigured rule.
	ClassDeterministic
	// ClassRandom: all paths through the link see statistically similar
	// loss rates — bit errors, CRC errors, buffer overflow.
	ClassRandom
)

// String names the class.
func (c LossClass) String() string {
	switch c {
	case ClassFull:
		return "full"
	case ClassDeterministic:
		return "deterministic-partial"
	case ClassRandom:
		return "random-partial"
	default:
		return "unknown"
	}
}

// Classify infers the loss class of a localized link from the row-indexed
// window (see rowObservation). The decision works on the per-path loss
// ratios of observed paths through the link:
//
//   - pooled ratio >= fullThreshold on every path → ClassFull;
//   - otherwise, if the across-path dispersion of ratios is far above
//     what binomial sampling noise at the pooled rate explains (or some
//     paths are clean while others lose), the loss is flow-selective →
//     ClassDeterministic;
//   - otherwise → ClassRandom.
func Classify(p *route.Probes, obs []Observation, link topo.LinkID) LossClass {
	const fullThreshold = 0.95

	var ratios []float64
	var sentTotal, lostTotal int
	minRatio, maxRatio := 1.0, 0.0
	for _, row := range p.PathsThrough(link) {
		o, ok := rowObservation(obs, row)
		if !ok {
			continue
		}
		r := float64(o.Lost) / float64(o.Sent)
		ratios = append(ratios, r)
		sentTotal += o.Sent
		lostTotal += o.Lost
		if r < minRatio {
			minRatio = r
		}
		if r > maxRatio {
			maxRatio = r
		}
	}
	if len(ratios) < 2 || lostTotal == 0 {
		return ClassUnknown
	}
	if minRatio >= fullThreshold {
		return ClassFull
	}
	pooled := float64(lostTotal) / float64(sentTotal)

	// Mean per-path sample size for the binomial noise floor.
	meanSent := float64(sentTotal) / float64(len(ratios))
	binomVar := pooled * (1 - pooled) / meanSent

	// Observed across-path variance of ratios.
	mean := 0.0
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	obsVar := 0.0
	for _, r := range ratios {
		d := r - mean
		obsVar += d * d
	}
	obsVar /= float64(len(ratios))

	// Clean-and-lossy coexistence is the strongest blackhole signal.
	if minRatio == 0 && maxRatio >= 0.2 {
		return ClassDeterministic
	}
	// Dispersion test: > 9x the binomial noise (3 sigma on the std scale).
	if binomVar > 0 && obsVar > 9*binomVar {
		return ClassDeterministic
	}
	if math.IsNaN(obsVar) {
		return ClassUnknown
	}
	return ClassRandom
}
