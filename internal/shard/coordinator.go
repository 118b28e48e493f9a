package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
	"github.com/detector-net/detector/internal/watchdog"
)

// heartbeatLapses counts failed liveness probes across all shards — the
// transport-level signal that precedes a watchdog death.
var heartbeatLapses = obs.NewCounter("shard_heartbeat_lapses",
	"Failed shard liveness probes.")

// constructFailovers counts shards quarantined mid-cycle because a
// dispatched construction failed; each one forces a reassignment retry.
var constructFailovers = obs.NewCounter("shard_construct_failovers",
	"Shards quarantined mid-cycle after a dispatched construction failed.")

// Coordinator stage histograms: the live per-cycle decomposition of the
// construction pipeline (deTector §5's construct timing, exported per
// cycle instead of per bench run). Looked up once; Observe is atomic.
var (
	// stageMaterialize is the coordinator's MaterializeCSR, observed once
	// in New: the whole arena for a family that stores its rows; for a
	// Fattree, whose rows are generated on every read, a constructor that
	// stores none. No cycle, churn step or repair stores a row after it.
	stageMaterialize = obs.Stages.With("materialize")
	stageDecompose   = obs.Stages.With("decompose")
	stageAssign      = obs.Stages.With("assign")
	stageDispatch    = obs.Stages.With("construct_dispatch")
	stageMerge       = obs.Stages.With("merge")
	stageChurnDiff   = obs.Stages.With("churn_diff")  // effective ApplyChurn diffs only, first-touch indexing excluded
	stageChurnIndex  = obs.Stages.With("churn_index") // a churn step's first touch of a pristine component: its active-row counts, and a stored matrix's index (route.Diff.IndexTime)
)

// Fleet gauges: how many shards are in/out of the plane right now.
var (
	shardsAlive       = obs.NewGauge("shard_fleet_alive", "Shards currently in the plane (last liveness view).")
	shardsQuarantined = obs.NewGauge("shard_fleet_quarantined", "Shards currently quarantined after a mid-cycle failure.")
)

// Options shapes a coordinator.
type Options struct {
	// Shards is the number of in-process controller shards to boot when
	// Clients is nil (>= 1). Ignored when Clients is set.
	Shards int
	// Clients, when non-nil, is the explicit shard fleet: one transport
	// client per shard, slot i must have ID i. This is how remote shards
	// (internal/shardrpc) join the plane. The coordinator takes
	// ownership and closes them on Stop.
	Clients []ShardClient
	// PMC configures per-shard construction. The coordinator always
	// decomposes the matrix (sharding is meaningless without it), so the
	// merged result equals pmc.Construct's.
	PMC pmc.Options
	// TTL marks a shard dead after this many heartbeat-probe failures'
	// worth of silence (default 10 s; compressed in tests).
	TTL time.Duration
	// HeartbeatEvery is the liveness-probe period (default TTL/4).
	HeartbeatEvery time.Duration
	// Sequential runs per-shard constructions one after another instead of
	// concurrently. Benchmarks use it so that each shard's elapsed time is
	// an uncontended single-controller measurement and the critical path
	// (max over shards) models the wall clock of a real N-machine
	// deployment run on one box.
	Sequential bool
	// DownLinks is the initial set of links masked out of the candidate
	// matrix (topology churn state at boot). Paths traversing a down link
	// are excluded from decomposition and construction; ApplyChurn moves
	// links in and out of this set at runtime.
	DownLinks []topo.LinkID
	// ReuseSelections keeps per-component selections across Construct
	// cycles and dispatches only components invalidated by churn
	// (ApplyChurn) since the last cycle. Clean components' prior
	// selections are reused verbatim, so the merge stays bit-identical to
	// a full recompute while dispatch cost and wire bytes scale with the
	// dirty set. A dirty component then costs its shard a repair — its
	// pristine parent's selection from the memo, the paths it still has,
	// and a completion pass over only the rows through a deficient link,
	// never a class solve — or, coming back up, a memo hit. Off by
	// default: benchmarks and tests that measure full cycles rely on every
	// Construct doing the full work.
	ReuseSelections bool
}

// ShardStats describes one shard's share of a construction cycle.
type ShardStats struct {
	ID         int
	Components int
	Selected   int
	Elapsed    time.Duration
}

// Result is one merged construction cycle.
type Result struct {
	// Result is the merged PMC outcome, bit-identical to the
	// single-controller engine: Selected is the sorted union of the
	// per-shard selections and Stats sums the per-shard stats.
	*pmc.Result
	// PerShard lists each participating shard's share, ascending by ID.
	PerShard []ShardStats
	// CriticalPath is the slowest shard's construction time — the modeled
	// wall clock of the distributed construction (exact when Sequential).
	CriticalPath time.Duration
	// Moved counts components reassigned during this cycle (nonzero after
	// a shard died, rejoined, or failed mid-cycle).
	Moved int
	// Alive is the number of shards that contributed to the merge.
	Alive int
	// Retries counts mid-cycle dispatch rounds that had to be repeated
	// because a shard failed after passing liveness (transport error or
	// construction error). 0 on a clean cycle.
	Retries int
	// DirtyComponents is how many components were actually dispatched this
	// cycle; ReusedComponents is how many were served from the selection
	// cache (always 0 unless Options.ReuseSelections).
	DirtyComponents, ReusedComponents int
}

// compSel is one component's cached construction outcome, keyed by
// Component.Key() in the selection cache. The flags are the owning shard's
// merged flags at solve time (conservative when a shard solved several
// components at once — exactly as conservative as the full merge they came
// from).
type compSel struct {
	selected    []int
	coverageMet bool
	identMet    bool
}

// Coordinator is the front-end of the sharded controller plane. It owns the
// materialized candidate matrix and its decomposition, assigns components
// to shards, dispatches construction over the ShardClient transport, and
// merges results.
type Coordinator struct {
	ps       route.PathSet
	numLinks int
	opt      Options
	csr      *route.CSR
	// sig is stamped on construction requests: the matrix fingerprint for
	// an explicit fleet (Options.Clients), which may hold another matrix;
	// 0 for the default in-process shards, which share csr.
	sig     uint64
	wd      *watchdog.Service
	clients []ShardClient // immutable after New

	mu          sync.Mutex
	inc         *route.Incremental // owns the masked decomposition
	comps       []route.Component  // current snapshot of inc.Components()
	churnEpoch  uint64             // bumped by every effective ApplyChurn
	selCache    map[uint64]compSel // Component.Key() -> last selection
	assignKey   map[uint64]int32   // Component.Key() -> owning shard id
	quarantined []bool             // construct failed while pings still pass
	assign      []int32            // component index -> owning shard id
	stopped     bool
	stop        chan struct{}
	probers     sync.WaitGroup
}

// New materializes and decomposes the candidate matrix, connects the shard
// fleet (booting in-process shards when no transport clients are given),
// starts the liveness probers, and computes the initial assignment.
func New(ps route.PathSet, numLinks int, opt Options) (*Coordinator, error) {
	if len(opt.Clients) > 0 {
		if opt.Shards != 0 && opt.Shards != len(opt.Clients) {
			return nil, fmt.Errorf("shard: Shards=%d conflicts with %d explicit clients", opt.Shards, len(opt.Clients))
		}
		opt.Shards = len(opt.Clients)
		for i, cl := range opt.Clients {
			if cl.ID() != i {
				return nil, fmt.Errorf("shard: client in slot %d has ID %d", i, cl.ID())
			}
		}
	}
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", opt.Shards)
	}
	if opt.TTL <= 0 {
		opt.TTL = 10 * time.Second
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = opt.TTL / 4
	}
	matStart := time.Now()
	csr := route.MaterializeCSR(ps)
	stageMaterialize.Observe(time.Since(matStart))
	decStart := time.Now()
	csr.Pristine(numLinks)
	stageDecompose.Observe(time.Since(decStart))
	inc, err := route.NewIncremental(csr, numLinks, opt.DownLinks)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		ps:       ps,
		numLinks: numLinks,
		opt:      opt,
		csr:      csr,
		inc:      inc,
		comps:    inc.Components(),
		wd:       watchdog.New(opt.TTL),
		stop:     make(chan struct{}),
	}
	c.assign = make([]int32, len(c.comps))
	c.selCache = make(map[uint64]compSel)
	c.assignKey = make(map[uint64]int32)
	c.quarantined = make([]bool, opt.Shards)
	if opt.Clients != nil {
		c.clients = opt.Clients
		c.sig = c.MatrixSig()
		for _, cl := range c.clients {
			// Pin the engine fingerprint on transport clients before any
			// probe runs: a shard built for a different matrix then fails
			// pings and is declared dead, rather than flapping through
			// admit-dispatch-fail cycles.
			if mc, ok := cl.(MatrixChecker); ok {
				mc.ExpectMatrix(c.sig, c.numLinks)
			}
		}
	} else {
		// In-process shards share the matrix and one engine memo:
		// components that move between shards (failover, churn-driven
		// reassignment) still hit their cached selections.
		memo := pmc.NewMemo(0)
		for i := 0; i < opt.Shards; i++ {
			c.clients = append(c.clients, &Shard{id: i, ps: ps, csr: csr, numLinks: numLinks, memo: memo})
		}
	}
	alive := make([]int, opt.Shards)
	for i := range alive {
		alive[i] = i
		// Initial grace: every shard starts with one granted heartbeat so
		// that a slow-to-boot remote shard gets a full TTL before being
		// declared dead.
		c.wd.Track(topo.NodeID(i))
		c.wd.Heartbeat(topo.NodeID(i))
	}
	c.reassignLocked(alive)
	// One synchronous probe round before the periodic probers start: it
	// seeds liveness with a real heartbeat, so the first construct
	// dispatch already skips a dead endpoint. Pings run in parallel, so a
	// dead endpoint costs one refused connection, not a serial timeout
	// chain.
	var initial sync.WaitGroup
	for i := range c.clients {
		initial.Add(1)
		go func(i int) {
			defer initial.Done()
			if err := c.clients[i].Ping(); err == nil {
				c.wd.Heartbeat(topo.NodeID(i))
			}
		}(i)
	}
	initial.Wait()
	for i := range c.clients {
		c.probers.Add(1)
		go c.probe(i)
	}
	return c, nil
}

// probe is the per-shard liveness loop: one transport ping per heartbeat
// period, translated into a watchdog heartbeat on success. This is the
// only heartbeat source — in-process and remote shards are kept alive (and
// declared dead) by exactly the same mechanism.
func (c *Coordinator) probe(i int) {
	defer c.probers.Done()
	tick := time.NewTicker(c.opt.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			if err := c.clients[i].Ping(); err == nil {
				c.wd.Heartbeat(topo.NodeID(i))
			} else {
				heartbeatLapses.Inc()
			}
		}
	}
}

// MatrixSig returns the coordinator's candidate-matrix signature, computed
// on first read; remote shards must be built over a matrix with the same
// signature.
func (c *Coordinator) MatrixSig() uint64 { return c.csr.Signature(c.numLinks) }

// NumShards returns the configured shard count.
func (c *Coordinator) NumShards() int { return c.opt.Shards }

// Components returns the number of independent components being sharded.
func (c *Coordinator) Components() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.comps)
}

// Client returns shard i's transport client (test and operator access).
func (c *Coordinator) Client(i int) ShardClient { return c.clients[i] }

// Kill crash-simulates shard i when its client supports it (in-process
// shards). Its components are reassigned once the watchdog TTL expires or
// a dispatch fails, whichever the coordinator observes first. Remote
// shards are killed for real: stop the server and the same failover path
// runs off failed pings.
func (c *Coordinator) Kill(i int) {
	if k, ok := c.clients[i].(Killer); ok {
		k.Kill()
	}
}

// Revive recovers shard i after a Kill (or a remote shard's restart): the
// quarantine is lifted and one immediate liveness probe runs, so a healthy
// shard is back in the plane at once. The next Construct cycle recomputes
// the assignment over the full alive set — and because the assignment is a
// pure function of (component keys, alive set), a revived shard reclaims
// exactly the components it owned before it died, leaving every other
// shard's components in place.
func (c *Coordinator) Revive(i int) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.quarantined[i] = false
	c.mu.Unlock()
	if r, ok := c.clients[i].(Reviver); ok {
		r.Revive()
	}
	if err := c.clients[i].Ping(); err == nil {
		c.wd.Heartbeat(topo.NodeID(i))
	}
}

// Stop halts the liveness probers and closes every shard client
// (teardown). Idempotent.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.stop)
	c.mu.Unlock()
	c.probers.Wait()
	for _, cl := range c.clients {
		cl.Close()
	}
}

// Unhealthy lists the shard ids currently out of the plane: watchdog TTL
// expiries plus mid-cycle quarantines, ascending.
func (c *Coordinator) Unhealthy() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := make(map[int]bool)
	for _, n := range c.wd.Unhealthy() {
		set[int(n)] = true
	}
	for i, q := range c.quarantined {
		if q {
			set[i] = true
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// aliveLocked returns the live shard ids, ascending: not expired in the
// watchdog and not quarantined. Dead-by-TTL means ping failures went
// unanswered for the TTL; a killed shard stays "alive" until then, exactly
// like a crashed controller whose silence has not yet been noticed.
// Requires c.mu.
func (c *Coordinator) aliveLocked() []int {
	unhealthy := c.wd.UnhealthySet()
	alive := make([]int, 0, c.opt.Shards)
	for i := 0; i < c.opt.Shards; i++ {
		if !unhealthy[topo.NodeID(i)] && !c.quarantined[i] {
			alive = append(alive, i)
		}
	}
	return alive
}

// reprobeQuarantined gives quarantined shards one synchronous liveness
// probe at the start of a cycle: a shard whose process was restarted (or
// whose transport blip healed) rejoins automatically, while a shard that
// still fails stays out without costing the cycle anything further.
func (c *Coordinator) reprobeQuarantined() {
	c.mu.Lock()
	var retry []int
	for i, q := range c.quarantined {
		if q {
			retry = append(retry, i)
		}
	}
	c.mu.Unlock()
	for _, i := range retry {
		if err := c.clients[i].Ping(); err == nil {
			c.wd.Heartbeat(topo.NodeID(i))
			c.mu.Lock()
			c.quarantined[i] = false
			c.mu.Unlock()
		}
	}
}

// reassignLocked recomputes the capacity-capped rendezvous assignment over
// the alive set and returns how many components moved. Movement is tracked
// by component *key*, not index: churn shifts component indices around, but
// a clean component that stays on its shard has not moved. Requires c.mu
// (or single-threaded init).
func (c *Coordinator) reassignLocked(alive []int) int {
	keys := make([]uint64, len(c.comps))
	for ci := range c.comps {
		keys[ci] = c.comps[ci].Key()
	}
	next := assignBalanced(keys, alive)
	moved := 0
	nextByKey := make(map[uint64]int32, len(keys))
	for ci := range c.comps {
		c.assign[ci] = next[ci]
		nextByKey[keys[ci]] = next[ci]
		if prev, ok := c.assignKey[keys[ci]]; !ok || prev != next[ci] {
			moved++
		}
	}
	c.assignKey = nextByKey
	return moved
}

// ApplyChurn transitions links down/up in the masked candidate matrix and
// invalidates exactly the components the change touches. The next Construct
// dispatches only those (under Options.ReuseSelections; without it the next
// cycle constructs every component of the new decomposition — still
// bit-identical, just not incremental), and a shard repairs each masked
// one from its pristine class selection (see pmc.ConstructComponents).
// Returns the component diff.
//
// ApplyChurn must not race a Construct in flight: the coordinator detects
// the overlap and the Construct returns an error asking to be re-run. The
// control plane serializes the two.
func (c *Coordinator) ApplyChurn(down, up []topo.LinkID) (route.Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return route.Diff{}, fmt.Errorf("shard: coordinator stopped")
	}
	diffStart := time.Now()
	diff, err := c.inc.Apply(down, up)
	if err != nil {
		return route.Diff{}, err
	}
	if diff.IndexTime > 0 {
		stageChurnIndex.Observe(diff.IndexTime)
	}
	if diff.Empty() {
		return diff, nil
	}
	stageChurnDiff.Observe(time.Since(diffStart) - diff.IndexTime)
	c.churnEpoch++
	c.comps = c.inc.Components()
	for i := range diff.Removed {
		delete(c.selCache, diff.Removed[i].Key())
		delete(c.assignKey, diff.Removed[i].Key())
	}
	// An added component sharing a removed key (splits keep the smallest
	// link) must not inherit the stale selection either.
	for i := range diff.Added {
		delete(c.selCache, diff.Added[i].Key())
	}
	c.assign = make([]int32, len(c.comps))
	for ci := range c.comps {
		if id, ok := c.assignKey[c.comps[ci].Key()]; ok {
			c.assign[ci] = id
		}
	}
	return diff, nil
}

// DownLinks returns the current down-link set, ascending.
func (c *Coordinator) DownLinks() []topo.LinkID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.Down()
}

// Assignment returns a copy of the component → shard mapping.
func (c *Coordinator) Assignment() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int32(nil), c.assign...)
}

// Construct runs one distributed construction cycle: observe liveness,
// reassign dead shards' components, dispatch PMC over the transport to
// every live shard, and merge. A shard that fails its dispatch — transport
// error or engine error — is quarantined and the cycle retries over the
// survivors, so the result is always a complete merge: bit-identical to
// pmc.Construct(ps, numLinks, opt.PMC) regardless of the shard count, the transport, or which shards die mid-cycle.
func (c *Coordinator) Construct() (*Result, error) {
	return c.ConstructCycle(nil)
}

// ConstructCycle is Construct under an observability cycle: the assign,
// per-shard dispatch and merge phases get spans on cy (per-shard spans are
// tagged with the shard id), the stage histograms fill regardless, and the
// cycle ID is stamped on every ConstructRequest so remote shards' server
// spans file under the caller's timeline. A nil cy traces nothing and
// stamps cycle ID 0 — the construction itself is identical either way.
func (c *Coordinator) ConstructCycle(cy *obs.Cycle) (*Result, error) {
	start := time.Now()
	c.reprobeQuarantined()
	totalMoved := 0
	var lastErr error
	// Completed per-shard runs, kept across retry rounds: when a shard
	// fails mid-cycle, survivors whose component slice is unchanged by the
	// reassignment (rendezvous moves only the failed shard's components
	// plus cap displacements) reuse their finished construction instead of
	// recomputing it — a failover round costs roughly the failed shard's
	// work, not the whole cycle's. Keyed by shard id; valid only while the
	// slice (component indices) matches.
	type doneRun struct {
		compIdx []int32
		res     *pmc.Result
	}
	cache := make(map[int]doneRun)
	for attempt := 0; attempt <= c.opt.Shards; attempt++ {
		c.mu.Lock()
		alive := c.aliveLocked()
		if len(alive) == 0 {
			c.mu.Unlock()
			if lastErr != nil {
				return nil, fmt.Errorf("shard: all %d shards dead or quarantined; last dispatch error: %w",
					c.opt.Shards, lastErr)
			}
			return nil, fmt.Errorf("shard: all %d shards dead; cannot construct", c.opt.Shards)
		}
		assignStart := time.Now()
		assignSpan := cy.Span("assign")
		totalMoved += c.reassignLocked(alive)
		assign := append([]int32(nil), c.assign...)
		comps := c.comps // replaced wholesale by ApplyChurn; safe to hold
		epoch := c.churnEpoch
		reuse := c.opt.ReuseSelections
		// Dirty components: not yet in the selection cache. Without reuse,
		// everything is dirty every cycle.
		dirty := make([]int32, 0, len(comps))
		for ci := range comps {
			if reuse {
				if _, ok := c.selCache[comps[ci].Key()]; ok {
					continue
				}
			}
			dirty = append(dirty, int32(ci))
		}
		c.mu.Unlock()

		perShard := make([][]int32, c.opt.Shards)
		for _, ci := range dirty {
			id := assign[ci]
			perShard[id] = append(perShard[id], ci)
		}
		assignSpan.End()
		stageAssign.Observe(time.Since(assignStart))

		results := make([]*pmc.Result, len(alive))
		errs := make([]error, len(alive))
		var toRun, idle []int
		for k, id := range alive {
			if reuse && len(perShard[id]) == 0 {
				// Nothing dirty here — but dispatch is also how the
				// coordinator discovers a dead shard before the watchdog TTL
				// fires, so an undispatched shard gets a synchronous ping
				// below instead of a free pass.
				idle = append(idle, k)
				continue
			}
			if d, ok := cache[id]; ok && slices.Equal(d.compIdx, perShard[id]) {
				results[k] = d.res
				continue
			}
			toRun = append(toRun, k)
		}
		dispatchStart := time.Now()
		run := func(k int) {
			id := alive[k]
			sub := make([]route.Component, len(perShard[id]))
			for i, ci := range perShard[id] {
				sub[i] = comps[ci]
			}
			sp := cy.ShardSpan("construct", id)
			results[k], errs[k] = c.clients[id].Construct(ConstructRequest{
				MatrixSig: c.sig,
				NumLinks:  c.numLinks,
				Comps:     sub,
				Opt:       c.opt.PMC,
				Cycle:     cy.ID(),
			})
			sp.EndErr(errs[k])
		}
		ping := func(k int) {
			if err := c.clients[alive[k]].Ping(); err != nil {
				errs[k] = fmt.Errorf("shard: idle liveness ping: %w", err)
			}
		}
		if c.opt.Sequential {
			for _, k := range toRun {
				run(k)
			}
			for _, k := range idle {
				ping(k)
			}
		} else {
			var wg sync.WaitGroup
			for _, k := range toRun {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					run(k)
				}(k)
			}
			for _, k := range idle {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					ping(k)
				}(k)
			}
			wg.Wait()
		}
		stageDispatch.Observe(time.Since(dispatchStart))

		failed := false
		for k, err := range errs {
			id := alive[k]
			if err == nil {
				if results[k] != nil {
					cache[id] = doneRun{compIdx: perShard[id], res: results[k]}
				}
				continue
			}
			failed = true
			lastErr = err
			constructFailovers.Inc()
			obs.Logger().Warn("shard quarantined after failed construct dispatch",
				"shard", id, "cycle", cy.ID(), "err", err)
			delete(cache, id)
			c.mu.Lock()
			c.quarantined[id] = true
			c.mu.Unlock()
		}
		if failed {
			// Never serve a partial merge: requeue the cycle over the
			// survivors (cached runs carry over). Each retry quarantines
			// at least one shard, so the loop terminates within opt.Shards
			// rounds.
			continue
		}

		mergeStart := time.Now()
		mergeSpan := cy.Span("merge")
		merged := &Result{
			Result:          &pmc.Result{Stats: pmc.Stats{CoverageMet: true, IdentMet: c.opt.PMC.Beta >= 1}},
			Moved:           totalMoved,
			Alive:           len(alive),
			Retries:         attempt,
			DirtyComponents: len(dirty),
		}
		for k, r := range results {
			if r == nil {
				continue // reuse mode: shard had no dirty components
			}
			merged.Stats.Components += r.Stats.Components
			merged.Stats.Classes += r.Stats.Classes
			merged.Stats.Repaired += r.Stats.Repaired
			merged.Stats.Candidates += r.Stats.Candidates
			merged.Stats.ScoreEvals += r.Stats.ScoreEvals
			merged.Stats.Reseeds += r.Stats.Reseeds
			merged.Stats.CoverageMet = merged.Stats.CoverageMet && r.Stats.CoverageMet
			merged.Stats.IdentMet = merged.Stats.IdentMet && r.Stats.IdentMet
			merged.PerShard = append(merged.PerShard, ShardStats{
				ID:         alive[k],
				Components: len(perShard[alive[k]]),
				Selected:   len(r.Selected),
				Elapsed:    r.Stats.Elapsed,
			})
			if !reuse {
				merged.Selected = append(merged.Selected, r.Selected...)
			}
			if r.Stats.Elapsed > merged.CriticalPath {
				merged.CriticalPath = r.Stats.Elapsed
			}
		}
		if reuse {
			// Store the fresh per-component selections, then serve the full
			// merge from the cache: clean components verbatim, dirty ones
			// from this cycle's results. The split attributes each selected
			// path to its component through its first link (CSR.AppendRow).
			c.mu.Lock()
			if c.churnEpoch != epoch {
				c.mu.Unlock()
				return nil, fmt.Errorf("shard: topology churned during construction; re-run Construct")
			}
			for k, r := range results {
				if r == nil {
					continue
				}
				idxs := perShard[alive[k]]
				if len(idxs) == 1 {
					c.selCache[comps[idxs[0]].Key()] = compSel{
						selected:    r.Selected,
						coverageMet: r.Stats.CoverageMet,
						identMet:    r.Stats.IdentMet,
					}
					continue
				}
				parts := make(map[int32][]int, len(idxs))
				var row []topo.LinkID
				for _, pid := range r.Selected {
					row = c.csr.AppendRow(pid, row[:0])
					ci := int32(c.inc.CompIndexOf(row[0]))
					parts[ci] = append(parts[ci], pid)
				}
				for _, ci := range idxs {
					c.selCache[comps[ci].Key()] = compSel{
						selected:    parts[ci],
						coverageMet: r.Stats.CoverageMet,
						identMet:    r.Stats.IdentMet,
					}
				}
			}
			merged.Stats.Components = len(comps)
			for ci := range comps {
				sel, ok := c.selCache[comps[ci].Key()]
				if !ok {
					c.mu.Unlock()
					return nil, fmt.Errorf("shard: component %d missing from selection cache after merge", ci)
				}
				merged.Selected = append(merged.Selected, sel.selected...)
				merged.Stats.CoverageMet = merged.Stats.CoverageMet && sel.coverageMet
				merged.Stats.IdentMet = merged.Stats.IdentMet && sel.identMet
			}
			c.mu.Unlock()
			merged.ReusedComponents = len(comps) - len(dirty)
		}
		sort.Ints(merged.Selected)
		merged.Stats.Selected = len(merged.Selected)
		merged.Stats.Elapsed = time.Since(start)
		mergeSpan.End()
		stageMerge.Observe(time.Since(mergeStart))
		shardsAlive.Set(int64(len(alive)))
		shardsQuarantined.Set(int64(c.opt.Shards - len(alive)))
		return merged, nil
	}
	return nil, fmt.Errorf("shard: construction failed after %d dispatch rounds: %w", c.opt.Shards+1, lastErr)
}

// ShardInfo is one shard's row in the operator-facing placement view.
type ShardInfo struct {
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	Alive       bool   `json:"alive"`
	Quarantined bool   `json:"quarantined,omitempty"`
	// Components are the component indices the shard currently owns.
	Components []int `json:"components"`
}

// ComponentInfo is one component's row in the placement view.
type ComponentInfo struct {
	Index int    `json:"index"`
	Key   uint64 `json:"key,string"`
	Links int    `json:"links"`
	Paths int    `json:"paths"`
	Shard int    `json:"shard"`
}

// Status is the operator-facing snapshot served at the control service's
// GET /shards: who is alive and where every component lives — placement
// without log scraping.
type Status struct {
	MatrixSig  uint64          `json:"matrix_sig,string"`
	Shards     []ShardInfo     `json:"shards"`
	Components []ComponentInfo `json:"components"`
	// Down lists the currently masked (churned-out) links, ascending.
	Down []topo.LinkID `json:"down,omitempty"`
}

// Status snapshots shard liveness and the component → shard assignment.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	unhealthy := c.wd.UnhealthySet()
	st := Status{MatrixSig: c.MatrixSig(), Down: c.inc.Down()}
	owned := make(map[int][]int, c.opt.Shards)
	for ci := range c.comps {
		id := int(c.assign[ci])
		owned[id] = append(owned[id], ci)
		st.Components = append(st.Components, ComponentInfo{
			Index: ci,
			Key:   c.comps[ci].Key(),
			Links: len(c.comps[ci].Links),
			Paths: c.comps[ci].Paths.Len(),
			Shard: id,
		})
	}
	for i := 0; i < c.opt.Shards; i++ {
		comps := owned[i]
		if comps == nil {
			comps = []int{}
		}
		st.Shards = append(st.Shards, ShardInfo{
			ID:          i,
			Addr:        c.clients[i].Addr(),
			Alive:       !unhealthy[topo.NodeID(i)] && !c.quarantined[i],
			Quarantined: c.quarantined[i],
			Components:  comps,
		})
	}
	return st
}
