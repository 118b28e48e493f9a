// Package pll implements deTector's Packet Loss Localization algorithm
// (paper §5) and the binary-tomography baselines it is evaluated against
// (Tomo, SCORE, OMP).
//
// Input is one measurement window of per-path probe counters; output is the
// smallest set of links that explains the observed losses. PLL extends the
// classic Tomo greedy with a per-link hit-ratio threshold so that partial
// packet loss — a blackhole that drops only some flows crossing a link —
// does not exonerate the link just because one unaffected path through it
// stayed clean.
package pll

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// Observation is one probe path's counters for a measurement window.
type Observation struct {
	// Path indexes into the probe matrix.
	Path int
	// Sent and Lost count probes and losses on the path (echo included:
	// a probe is lost if either direction drops it).
	Sent, Lost int
	// MeanRTTNS and JitterNS are the mean round-trip time and RFC 3550
	// interarrival jitter over the delivered probes, in nanoseconds; zero
	// when no probe was delivered or the source does not measure latency.
	MeanRTTNS, JitterNS int64
	// ECNFrac is the fraction of delivered probes that came back
	// congestion-marked, in [0,1].
	ECNFrac float64
}

// rowObservation reads row's entry of a row-indexed window: obs[r] is the
// observation of matrix row r (Path == r), Sent == 0 where the row did not
// report, and rows at or past len(obs) did not report either. The
// diagnoser's window state and the simulator both emit this layout; it lets
// a link's evidence be read through Probes.PathsThrough, in ascending row
// order, without scanning the window. ok is false for a row with no report.
func rowObservation(obs []Observation, row int32) (o Observation, ok bool) {
	if int(row) >= len(obs) {
		return o, false
	}
	o = obs[row]
	return o, o.Sent > 0 && o.Path == int(row)
}

// Config tunes PLL. The zero value is unusable; use DefaultConfig.
type Config struct {
	// HitRatio is the threshold on lossyPaths(l)/pathsThrough(l) above
	// which a link is a localization candidate. The paper sets 0.6 (§5.3);
	// 1.0 degenerates to Tomo's "any clean path exonerates" rule.
	HitRatio float64
	// LossRatioFloor filters measurement noise: a path is only "lossy"
	// when lost/sent >= the floor (paper §5.1 cites 1e-3).
	LossRatioFloor float64
	// MinLoss is the minimum absolute loss count for a lossy path.
	MinLoss int
	// BaselineRate, when positive, enables the §5.1 hypothesis-testing
	// refinement: a path additionally counts as lossy only if its loss
	// count is statistically inconsistent with this ambient loss rate at
	// the Significance level (one-sided exact binomial test).
	BaselineRate float64
	// Significance is the p-value threshold of the hypothesis test
	// (default 1e-3 when BaselineRate is set).
	Significance float64
	// Unhealthy lists servers flagged by the watchdog; observations whose
	// path endpoints touch them are dropped as outliers (paper §5.1).
	Unhealthy map[topo.NodeID]bool
	// Workers bounds component parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{HitRatio: 0.6, LossRatioFloor: 1e-3, MinLoss: 1}
}

// Verdict is one localized link with its estimated loss rate.
type Verdict struct {
	Link topo.LinkID
	// Rate is the estimated loss rate: explained losses over probes sent
	// on the paths this link explains.
	Rate float64
	// Explained is the number of lost probes attributed to this link.
	Explained int
}

// Result is a localization outcome.
type Result struct {
	// Bad lists the localized links, sorted by ID.
	Bad []Verdict
	// UnexplainedPaths counts lossy paths no candidate link could explain
	// (all candidates below the hit-ratio threshold).
	UnexplainedPaths int
	// LossyPaths is the post-filter lossy path count.
	LossyPaths int
	Elapsed    time.Duration
}

// BadLinks returns just the link IDs, sorted.
func (r *Result) BadLinks() []topo.LinkID {
	out := make([]topo.LinkID, len(r.Bad))
	for i, v := range r.Bad {
		out[i] = v.Link
	}
	return out
}

// preprocess drops outlier observations and splits the rest into clean and
// lossy sets (paper §5.1). A row that crosses no link can explain nothing
// and is dropped like an unknown one.
func preprocess(p *route.Probes, obs []Observation, cfg Config) (lossy []Observation, cleanPaths []int) {
	for _, o := range obs {
		if o.Sent <= 0 || o.Path < 0 || o.Path >= p.NumPaths() || len(p.PathLinks[o.Path]) == 0 {
			continue
		}
		if cfg.unhealthyPath(p, o.Path) {
			continue
		}
		if cfg.lossy(o) {
			lossy = append(lossy, o)
		} else {
			cleanPaths = append(cleanPaths, o.Path)
		}
	}
	return lossy, cleanPaths
}

// unhealthyPath reports whether either endpoint of a path is a server the
// watchdog flagged: its observations are outliers (paper §5.1).
func (cfg Config) unhealthyPath(p *route.Probes, path int) bool {
	return cfg.Unhealthy != nil && (cfg.Unhealthy[p.Src[path]] || cfg.Unhealthy[p.Dst[path]])
}

// lossy classifies one observation with Sent > 0 against the loss floor
// and, when BaselineRate is set, the binomial significance test.
func (cfg Config) lossy(o Observation) bool {
	ratio := float64(o.Lost) / float64(o.Sent)
	if o.Lost < cfg.MinLoss || ratio < cfg.LossRatioFloor {
		return false
	}
	if cfg.BaselineRate > 0 {
		sig := cfg.Significance
		if sig <= 0 {
			sig = 1e-3
		}
		return SignificantLoss(o.Sent, o.Lost, cfg.BaselineRate, sig)
	}
	return true
}

// Localize runs PLL on one window of observations.
func Localize(p *route.Probes, obs []Observation, cfg Config) (*Result, error) {
	start := time.Now()
	if cfg.HitRatio <= 0 || cfg.HitRatio > 1 {
		return nil, fmt.Errorf("pll: hit ratio must be in (0,1], got %v", cfg.HitRatio)
	}
	lossy, _ := preprocess(p, obs, cfg)
	res := &Result{LossyPaths: len(lossy)}
	if len(lossy) == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// pathsThrough counts observed paths per link (Step 2's hit-ratio
	// denominators); the core does the rest.
	pathsThrough := observedPathsThrough(p, obs)
	res.Bad, res.UnexplainedPaths = localizeCore(p, lossy, pathsThrough, cfg)
	res.Elapsed = time.Since(start)
	return res, nil
}

// localizeCore runs Steps 2-5 of PLL over an already-preprocessed lossy
// set: candidate links by hit ratio, decomposition into components, the
// per-component greedy in parallel, and the final link-ID sort. It is
// shared by the one-shot Localize and the Engine — the
// bit-identical-verdicts guarantee between them rests on this being the
// same code path. The verdicts depend only on the lossy SET (and
// pathsThrough), not its order: candidates are walked in link-ID order,
// component verdicts concatenate and re-sort by link, and greedy ties
// break on (explained losses, hit ratio, candidate order).
func localizeCore(p *route.Probes, lossy []Observation, pathsThrough []int32, cfg Config) ([]Verdict, int) {
	// The lossy inverted index collects lossy observations per link as a
	// flat CSR slab. Hit ratios are computed once, before the greedy.
	lossyOff, lossyArena := lossyIndex(p, lossy)

	// Candidate links pass the hit-ratio threshold. Walking links in ID
	// order replaces the map iteration + sort of the previous
	// implementation and reuses the probe matrix's inverted link→paths
	// index shape: lossyArena rows are ascending lossy-observation indices.
	var cands []candidate
	for l := 0; l < p.NumLinks; l++ {
		lp := lossyArena[lossyOff[l]:lossyOff[l+1]]
		if len(lp) == 0 {
			continue
		}
		hit := float64(len(lp)) / float64(pathsThrough[l])
		if hit >= cfg.HitRatio {
			cands = append(cands, candidate{topo.LinkID(l), lp, hit})
		}
	}

	// Step 1: decompose into components over the lossy paths, then run the
	// greedy per component in parallel. Components are independent: no
	// candidate link is on lossy paths of two components.
	comps := lossyComponents(p, lossy)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	// componentOf and explained are shared across workers: lossy paths
	// partition into components, so each goroutine only reads and writes
	// its own component's indices. This keeps the per-window footprint
	// O(lossy) instead of O(components × lossy).
	componentOf := make([]int32, len(lossy))
	for ci, paths := range comps {
		for _, pi := range paths {
			componentOf[pi] = int32(ci)
		}
	}
	explained := make([]bool, len(lossy))
	verdicts := make([][]Verdict, len(comps))
	unexplained := make([]int, len(comps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for ci := range comps {
		wg.Add(1)
		sem <- struct{}{}
		go func(ci int) {
			defer wg.Done()
			defer func() { <-sem }()
			verdicts[ci], unexplained[ci] = greedyExplain(int32(ci), componentOf, explained, lossy, comps[ci], cands)
		}(ci)
	}
	wg.Wait()

	var bad []Verdict
	totalUnexplained := 0
	for ci := range comps {
		bad = append(bad, verdicts[ci]...)
		totalUnexplained += unexplained[ci]
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].Link < bad[j].Link })
	return bad, totalUnexplained
}

// observedPathsThrough counts, per link, the observed paths crossing it —
// a flat array over the link-ID space, shared by PLL and the baselines.
func observedPathsThrough(p *route.Probes, obs []Observation) []int32 {
	out := make([]int32, p.NumLinks)
	for _, o := range obs {
		if o.Sent <= 0 || o.Path < 0 || o.Path >= p.NumPaths() {
			continue
		}
		for _, l := range p.PathLinks[o.Path] {
			out[l]++
		}
	}
	return out
}

// lossyIndex builds the link → lossy-observation inverted index as a flat
// CSR slab (count, prefix-sum, fill): row l is arena[off[l]:off[l+1]],
// listing ascending indices into lossy. Three allocations total, no maps.
func lossyIndex(p *route.Probes, lossy []Observation) (off, arena []int32) {
	off = make([]int32, p.NumLinks+1)
	for _, o := range lossy {
		for _, l := range p.PathLinks[o.Path] {
			off[l+1]++
		}
	}
	for l := 0; l < p.NumLinks; l++ {
		off[l+1] += off[l]
	}
	arena = make([]int32, off[p.NumLinks])
	fill := make([]int32, p.NumLinks)
	copy(fill, off[:p.NumLinks])
	for i, o := range lossy {
		for _, l := range p.PathLinks[o.Path] {
			arena[fill[l]] = int32(i)
			fill[l]++
		}
	}
	return off, arena
}

// lossyComponents groups lossy-observation indices into link-connected
// components of the probe matrix with an array-backed union-find over the
// link-ID space (no maps on the localization path).
func lossyComponents(p *route.Probes, lossy []Observation) [][]int {
	parent := make([]int32, p.NumLinks)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, o := range lossy {
		links := p.PathLinks[o.Path]
		for _, l := range links[1:] {
			ra, rb := find(int32(links[0])), find(int32(l))
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	// Bucket lossy observations by root, components ordered by root id.
	var roots []int32
	byRoot := make(map[int32][]int)
	for i, o := range lossy {
		r := find(int32(p.PathLinks[o.Path][0]))
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([][]int, len(roots))
	for i, r := range roots {
		out[i] = byRoot[r]
	}
	return out
}

// candidate is a link that passed the hit-ratio threshold, with the indices
// of the lossy observations whose paths cross it (a row of the lossy
// inverted index, ascending).
type candidate struct {
	link  topo.LinkID
	paths []int32
	hit   float64
}

// greedyExplain runs Steps 3-5 of PLL on one component: repeatedly pick the
// candidate link explaining the most lost packets and remove its paths.
// Component membership is checked against the shared componentOf labeling,
// and explained is the shared per-lossy-observation state (only this
// component's indices are touched).
func greedyExplain(comp int32, componentOf []int32, explained []bool, lossy []Observation, compPaths []int, cands []candidate) ([]Verdict, int) {
	var out []Verdict
	for {
		remaining := 0
		for _, pi := range compPaths {
			if !explained[pi] {
				remaining++
			}
		}
		if remaining == 0 {
			return out, 0
		}
		// Maximal explained losses; ties break on hit ratio (a fully
		// consistent link beats one with clean paths through it), then on
		// link ID for determinism.
		best := -1
		bestScore := 0
		bestHit := 0.0
		for ci, c := range cands {
			score := 0
			for _, pi := range c.paths {
				if componentOf[pi] == comp && !explained[pi] {
					score += lossy[pi].Lost
				}
			}
			if score > bestScore || (score == bestScore && score > 0 && c.hit > bestHit) {
				best, bestScore, bestHit = ci, score, c.hit
			}
		}
		if best < 0 {
			return out, remaining
		}
		v := Verdict{Link: cands[best].link}
		sent := 0
		for _, pi := range cands[best].paths {
			if componentOf[pi] == comp && !explained[pi] {
				explained[pi] = true
				v.Explained += lossy[pi].Lost
				sent += lossy[pi].Sent
			}
		}
		if sent > 0 {
			v.Rate = float64(v.Explained) / float64(sent)
		}
		out = append(out, v)
	}
}
