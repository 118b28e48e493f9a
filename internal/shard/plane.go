package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// stageLocalize times the plane's merged per-window localization (routing,
// per-shard PLL dispatch, verdict merge).
var stageLocalize = obs.Stages.With("localize")

// stageReconcile times the cut-link reconciliation pass of the verdict
// merge — zero-duration on a component plane, which has nothing to
// reconcile.
var stageReconcile = obs.Stages.With("reconcile")

// planeLocalFallbacks counts per-shard localizations that fell back to
// local execution after the shard's transport client failed mid-window.
// The merged verdict stays exact (same algorithm, same sub-matrix); the
// counter makes a flapping shard service visible.
var planeLocalFallbacks = obs.NewCounter("shard_plane_local_fallbacks",
	"Per-shard localizations run locally after the shard's transport client failed.")

// planeCutLinks tracks how many links the most recently built plane cut
// across shards: 0 on a component plane (nothing is split), and the
// measured accuracy-bound surface on an interior plane.
var planeCutLinks = obs.NewGauge("shard_plane_cut_links",
	"Links whose observed paths the diagnosis plane splits across shards (0 = exact partition).")

// planeCacheHits counts plane builds avoided because the served matrix was
// the cached one (same pointer, or same route.ProbesSignature content).
var planeCacheHits = obs.NewCounter("shard_plane_cache_hits",
	"Diagnosis plane builds avoided because the served matrix was unchanged.")

// PlaneStats summarizes a built plane for the server-level experiment and
// tests.
type PlaneStats struct {
	// Partitions is the number of shards owning at least one path — the
	// plane's effective parallelism this matrix.
	Partitions int
	// Parts is the partition count before shard assignment (parts collapse
	// onto Partitions shards by capacity-capped rendezvous).
	Parts int
	// CutLinks counts links whose observed paths span more than one shard.
	CutLinks int
	// MaxReplication is the largest number of shards sharing one link's
	// evidence (1 = exact).
	MaxReplication int
}

// MergeStats reports what one merged localization had to reconcile.
type MergeStats struct {
	// Reconciled counts verdicts on the same link arriving from more than
	// one shard, merged by the reconciliation pass.
	Reconciled int
	// Disagreements is the per-cut-link disagreement count of the window:
	// for every cut link some shard flagged bad, the number of shards
	// sharing that link that did not flag it. 0 means every shard that
	// saw a cut link's evidence reached the same verdict.
	Disagreements int
}

// Plane is the diagnosis side of the sharded plane: a partition of a served
// probe matrix across shards, each shard's part owning one PLL engine, with
// probe-report routing by path ID and a cluster-wide verdict merge. It is
// the one way a window gets localized: an unsharded diagnoser runs the
// plane with one shard, whose part is the matrix itself.
//
// The diagnoser's plane (NewPlane) partitions by connected component of
// the probe matrix itself (links connected through shared probe paths):
// every observed path through a link lands on the link's owning shard,
// hence each shard's PLL sees exactly the global algorithm's per-link path
// counts, hit ratios and greedy cover for its links, and the merged result
// is bit-identical to one pll.Localize over the whole matrix. Server-level
// matrices entangle those components through shared pinger uplinks and
// collapse to one partition; a plane over route.InteriorPartition
// (NewPlaneFrom) cuts exactly those server-edge links, accepting split hit
// ratios on the cut links in exchange for spreading the matrix — the cut
// set and its replication counts are exported so the accuracy loss is a
// measured bound, not a hope.
//
// Window contract, enforced on every Localize: at most one observation per
// matrix row. The diagnoser's window state emits exactly that; a duplicate
// is an error, not a silent double count.
type Plane struct {
	alive []int
	owner []int32 // global path index -> owning shard id
	local []int32 // global path index -> row in the owner's sub-matrix
	subs  map[int]*Part
	// whole is the shard whose part is the plane's matrix itself (it owns
	// every row, so a window needs no routing), or -1.
	whole   int
	clients map[int]ShardClient // optional: dispatch localization over the transport

	parts   int                 // partition count before shard assignment
	cuts    []route.CutLink     // shard-level cut links, ascending
	cutRepl map[topo.LinkID]int // cut link -> shards sharing it

	errMu      sync.Mutex
	remoteErrs map[int]RemoteError
}

// Part is one shard's slice of a plane: a PLL engine over the sub-matrix of
// the paths the shard owns (global link-ID space preserved, so verdicts
// need no translation) and the content address that names that sub-matrix
// on the wire. A shard that owns every path gets the plane's matrix itself,
// not a copy.
type Part struct {
	Engine *pll.Engine
	// Sig is route.RowsSignature of the engine's matrix, computed once when
	// the plane is built.
	Sig uint64
}

func newPart(m *route.Probes) *Part {
	return &Part{Engine: pll.NewEngine(m), Sig: route.RowsSignature(m)}
}

// RemoteError is the last failure of a shard's transport client on this
// plane, as served at the diagnoser's /statusz: the window itself was
// localized by the local fallback, so without this a shard that rejects
// every request is visible only as a ticking fallback counter.
type RemoteError struct {
	Time  time.Time `json:"time"`
	Error string    `json:"error"`
}

// NewPlane partitions p across the alive shard ids (must be non-empty,
// ascending) by connected component (route.ComponentPartition). Paths in
// the same matrix component share an owner; ownership uses the same
// rendezvous hash as construction, keyed by the component's smallest link
// ID, so a component whose links match a candidate component lands on the
// shard that built its rows.
func NewPlane(p *route.Probes, alive []int) *Plane {
	return NewPlaneFrom(p, alive, route.ComponentPartition(p))
}

// NewPlaneFrom partitions p across the alive shard ids by pt, a partition
// of p's rows: parts collapse onto shards by capacity-capped rendezvous on
// their keys, and a row pt leaves without a part gets no owner.
func NewPlaneFrom(p *route.Probes, alive []int, pt *route.Partition) *Plane {
	owners := assignBalanced(pt.Keys, alive)

	n := p.NumPaths()
	pl := &Plane{
		alive: append([]int(nil), alive...),
		owner: make([]int32, n),
		local: make([]int32, n),
		subs:  make(map[int]*Part, len(alive)),
		whole: -1,
		parts: len(pt.Keys),
	}
	for i := 0; i < n; i++ {
		if pt.PathPart[i] < 0 {
			// A linkless path can explain nothing; treat it like an
			// unknown path id rather than crediting its observations to
			// some shard's row 0.
			pl.owner[i] = -1
			continue
		}
		pl.owner[i] = owners[pt.PathPart[i]]
	}
	owned := make(map[int32]int, len(alive))
	for _, o := range pl.owner {
		owned[o]++
	}
	for _, id := range alive {
		switch owned[int32(id)] {
		case 0:
			continue
		case n:
			for i := range pl.local {
				pl.local[i] = int32(i)
			}
			pl.subs[id], pl.whole = newPart(p), id
			continue
		}
		var pathLinks [][]topo.LinkID
		var global []int32
		for i := 0; i < n; i++ {
			if pl.owner[i] != int32(id) {
				continue
			}
			pl.local[i] = int32(len(global))
			global = append(global, int32(i))
			pathLinks = append(pathLinks, p.PathLinks[i])
		}
		sub := route.NewProbesFromLinks(pathLinks, p.NumLinks)
		for li, gi := range global {
			sub.Src[li], sub.Dst[li] = p.Src[gi], p.Dst[gi]
		}
		pl.subs[id] = newPart(sub)
	}
	pl.findCuts(p)
	planeCutLinks.Set(int64(len(pl.cuts)))
	return pl
}

// findCuts records the shard-level cut set: links whose observed paths
// span more than one owning shard. On a component plane this is empty by
// construction; on an interior plane, parts that rendezvous onto the same
// shard heal their shared links, so the shard-level cut set (what the
// merge actually reconciles) can be smaller than the partition's.
func (pl *Plane) findCuts(p *route.Probes) {
	pl.cutRepl = make(map[topo.LinkID]int)
	seen := make(map[int32]bool)
	for l := 0; l < p.NumLinks; l++ {
		rows := p.PathsThrough(topo.LinkID(l))
		if len(rows) == 0 {
			continue
		}
		for k := range seen {
			delete(seen, k)
		}
		for _, row := range rows {
			if o := pl.owner[row]; o >= 0 {
				seen[o] = true
			}
		}
		if len(seen) > 1 {
			pl.cutRepl[topo.LinkID(l)] = len(seen)
			pl.cuts = append(pl.cuts, route.CutLink{Link: topo.LinkID(l), Parts: len(seen)})
		}
	}
}

// UseClients attaches transport clients keyed by shard id: Localize then
// dispatches each shard's pass through its client instead of running it
// locally, falling back to local execution (the same engine on the same
// window, hence the same verdicts) when a client fails mid-window.
// Returns pl for chaining.
func (pl *Plane) UseClients(clients map[int]ShardClient) *Plane {
	pl.clients = clients
	return pl
}

// Owner returns the shard owning probe path i, or -1 for out-of-range ids
// and linkless paths.
func (pl *Plane) Owner(i int) int {
	if i < 0 || i >= len(pl.owner) {
		return -1
	}
	return int(pl.owner[i])
}

// CutLinks returns the shard-level cut set, ascending by link ID: every
// link whose observed paths span more than one shard, with the number of
// shards sharing it. Empty on a component plane.
func (pl *Plane) CutLinks() []route.CutLink {
	return append([]route.CutLink(nil), pl.cuts...)
}

// Stats summarizes the partition.
func (pl *Plane) Stats() PlaneStats {
	st := PlaneStats{
		Partitions:     len(pl.subs),
		Parts:          pl.parts,
		CutLinks:       len(pl.cuts),
		MaxReplication: 1,
	}
	for _, c := range pl.cuts {
		if c.Parts > st.MaxReplication {
			st.MaxReplication = c.Parts
		}
	}
	return st
}

// Shards returns the shard ids that own at least one path, ascending.
func (pl *Plane) Shards() []int {
	out := make([]int, 0, len(pl.subs))
	for _, id := range pl.alive {
		if _, ok := pl.subs[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Route splits one window of observations by owning shard, translating
// path ids into each shard's local index space. Observations with unknown
// path ids are dropped, exactly as the global localizer's preprocessing
// drops them.
func (pl *Plane) Route(obs []pll.Observation) map[int][]pll.Observation {
	out := make(map[int][]pll.Observation, len(pl.subs))
	for _, o := range obs {
		if o.Path < 0 || o.Path >= len(pl.owner) || pl.owner[o.Path] < 0 {
			continue
		}
		id := int(pl.owner[o.Path])
		o.Path = int(pl.local[o.Path])
		out[id] = append(out[id], o)
	}
	return out
}

// windows reduces one window of observations to each owning shard's
// exceptions, shard ids ascending. The part that is the whole matrix takes
// the observations as they are; otherwise they route by path owner first.
func (pl *Plane) windows(observations []pll.Observation, cfg pll.Config) ([]int, []pll.Window, error) {
	if pl.whole >= 0 {
		w, err := pl.subs[pl.whole].Engine.Sparsify(observations, cfg)
		return []int{pl.whole}, []pll.Window{w}, err
	}
	routed := pl.Route(observations)
	ids := make([]int, 0, len(routed))
	for id := range routed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ws := make([]pll.Window, len(ids))
	for k, id := range ids {
		var err error
		if ws[k], err = pl.subs[id].Engine.Sparsify(routed[id], cfg); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", id, err)
		}
	}
	return ids, ws, nil
}

// localizeShard runs shard id's PLL pass: through the transport client
// when one is attached, on the part's own engine otherwise — and on it as
// a fallback when the client fails, so one flapping shard service degrades
// a window to local compute instead of losing it. The remote failure is
// not lost with it: it ends the shard's span and is kept for RemoteErrors.
func (pl *Plane) localizeShard(cy *obs.Cycle, id int, w pll.Window, cfg pll.Config) (*pll.Result, error) {
	part := pl.subs[id]
	sp := cy.ShardSpan("localize", id)
	var remoteErr error
	if cl := pl.clients[id]; cl != nil {
		var res *pll.Result
		if res, remoteErr = cl.Localize(cy.ID(), part, w, cfg); remoteErr == nil {
			sp.End()
			return res, nil
		}
		planeLocalFallbacks.Inc()
		pl.errMu.Lock()
		if pl.remoteErrs == nil {
			pl.remoteErrs = make(map[int]RemoteError)
		}
		pl.remoteErrs[id] = RemoteError{Time: time.Now(), Error: remoteErr.Error()}
		pl.errMu.Unlock()
	}
	res, err := part.Engine.Localize(w, cfg)
	if err != nil {
		sp.EndErr(err)
	} else {
		sp.EndErr(remoteErr)
	}
	return res, err
}

// RemoteErrors returns the last transport failure per shard since the
// plane was built; empty when every remote pass succeeded.
func (pl *Plane) RemoteErrors() map[int]RemoteError {
	pl.errMu.Lock()
	defer pl.errMu.Unlock()
	out := make(map[int]RemoteError, len(pl.remoteErrs))
	for id, e := range pl.remoteErrs {
		out[id] = e
	}
	return out
}

// Localize runs one merged localization; see LocalizeCycleStats.
func (pl *Plane) Localize(observations []pll.Observation, cfg pll.Config) (*pll.Result, error) {
	res, _, err := pl.LocalizeCycleStats(nil, observations, cfg)
	return res, err
}

// LocalizeCycleStats reduces the window to each owning shard's exceptions,
// runs one PLL pass per shard concurrently, merges the verdicts and
// reports what the merge reconciled. Each shard's pass gets a shard-tagged
// span on cy, the merged pass feeds the "localize" stage histogram, and
// the cycle ID rides to remote shards in the X-Detector-Cycle header so
// their server-side spans file under the same timeline. A nil cy traces
// nothing and propagates cycle ID 0.
//
// The merge is a sorted union of bad links with a reconciliation pass for
// cut links: a link flagged by several shards keeps the maximum observed
// loss rate and the summed explained-loss count (each shard explained a
// disjoint path subset). A cut link flagged by some but not all of the
// shards sharing it counts into MergeStats.Disagreements — on a component
// plane both numbers are structurally zero.
func (pl *Plane) LocalizeCycleStats(cy *obs.Cycle, observations []pll.Observation, cfg pll.Config) (*pll.Result, MergeStats, error) {
	start := time.Now()
	defer func() { stageLocalize.Observe(time.Since(start)) }()
	ids, windows, err := pl.windows(observations, cfg)
	if err != nil {
		return nil, MergeStats{}, err
	}

	results := make([]*pll.Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for k, id := range ids {
		wg.Add(1)
		go func(k, id int) {
			defer wg.Done()
			results[k], errs[k] = pl.localizeShard(cy, id, windows[k], cfg)
		}(k, id)
	}
	wg.Wait()
	var ms MergeStats
	for _, err := range errs {
		if err != nil {
			return nil, ms, err
		}
	}

	reconcileStart := time.Now()
	reconcileSpan := cy.Span("reconcile")
	merged := &pll.Result{}
	byLink := make(map[topo.LinkID]int)     // link -> index into merged.Bad
	reportedBy := make(map[topo.LinkID]int) // link -> shards that flagged it
	for _, r := range results {
		merged.LossyPaths += r.LossyPaths
		merged.UnexplainedPaths += r.UnexplainedPaths
		for _, v := range r.Bad {
			reportedBy[v.Link]++
			if j, ok := byLink[v.Link]; ok {
				// Reconciliation: the shards sharing a cut link each saw a
				// disjoint subset of its paths, so the explained counts
				// add; the loss rate is an estimate of one underlying
				// physical rate, so the largest (best-evidenced) wins.
				ms.Reconciled++
				merged.Bad[j].Explained += v.Explained
				if v.Rate > merged.Bad[j].Rate {
					merged.Bad[j].Rate = v.Rate
				}
				continue
			}
			byLink[v.Link] = len(merged.Bad)
			merged.Bad = append(merged.Bad, v)
		}
	}
	for link, n := range reportedBy {
		if repl := pl.cutRepl[link]; repl > n {
			ms.Disagreements += repl - n
		}
	}
	sort.Slice(merged.Bad, func(i, j int) bool { return merged.Bad[i].Link < merged.Bad[j].Link })
	reconcileSpan.End()
	stageReconcile.Observe(time.Since(reconcileStart))
	merged.Elapsed = time.Since(start)
	return merged, ms, nil
}

// PlaneCache memoizes the most recent plane. A diagnoser handed its matrix
// in process sees the same pointer every window and hits on identity, for
// free; one that re-fetches /matrix gets a fresh allocation each window,
// and for that path alone the cache falls back to the content signature,
// so an unchanged matrix still does not rebuild the partition, the
// sub-matrices and their engines. The cache invalidates on any change to
// the matrix content or the alive shard set.
type PlaneCache struct {
	mu     sync.Mutex
	matrix *route.Probes // the matrix of the last hit or build; never mutated once served
	sig    uint64
	alive  []int
	plane  *Plane
}

// Get returns the plane for (p, alive), rebuilding only when the matrix
// content or shard set changed since the last call. rebuilt reports
// whether a build happened — callers hook once-per-cycle work on it.
func (pc *PlaneCache) Get(p *route.Probes, alive []int) (pl *Plane, rebuilt bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sameShape := pc.plane != nil && equalInts(pc.alive, alive)
	if sameShape && pc.matrix == p {
		planeCacheHits.Inc()
		return pc.plane, false
	}
	sig := route.ProbesSignature(p)
	pc.matrix = p
	if sameShape && pc.sig == sig {
		planeCacheHits.Inc()
		return pc.plane, false
	}
	pc.plane = NewPlane(p, alive)
	pc.sig = sig
	pc.alive = append(pc.alive[:0], alive...)
	return pc.plane, true
}

// Cached returns the memoized plane, or nil before the first Get. Status
// surfaces read it without forcing a build.
func (pc *PlaneCache) Cached() *Plane {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.plane
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
