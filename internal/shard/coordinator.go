package shard

import (
	"errors"
	"fmt"
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
	stageRepair      = obs.Stages.With("repair") // masked components repaired in the coordinator, cycles with any only
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
	// PMC configures construction, on the shards and in the
	// coordinator's repairs. The coordinator always decomposes the matrix
	// (sharding is meaningless without it), so with no link down the
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
}

// Result is one merged construction cycle.
type Result struct {
	// Result is the merged PMC outcome, bit-identical to the
	// single-controller engine: Selected is the sorted union of every live
	// component's stored selection, and Stats counts the work this cycle
	// dispatched and repaired.
	*pmc.Result
	// CriticalPath is the slowest shard's construction time this cycle —
	// the modeled wall clock of the distributed construction (exact when
	// Sequential), 0 when nothing was dispatched.
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
	// Repair is how long the coordinator spent repairing masked
	// components this cycle, 0 when it repaired none.
	Repair time.Duration
	// DirtyComponents is how many live components the selection store
	// lacked when the cycle began, each answered by a dispatch, a repair
	// or both; ReusedComponents is how many it held.
	DirtyComponents, ReusedComponents int
}

// selection is one component's stored answer. A dispatched component's
// flags are its shard's merged flags, as conservative as the full merge
// they came from; a repaired component's are its own.
type selection struct {
	paths                 []int // ascending path indices
	coverageMet, identMet bool
}

// Coordinator is the front-end of the sharded controller plane. It owns the
// materialized candidate matrix and its decomposition, assigns components
// to shards, dispatches construction over the ShardClient transport, and
// merges results.
//
// It holds the plane's only selection store. A selection is a function of
// content and options, never of history: the store keeps each pristine
// component's selection from the first cycle that needs it, never evicted,
// and each live masked component's — its parent's repaired for the mask
// (pmc.Repair), in the coordinator — until ApplyChurn removes it. Only the
// pristine components the store lacks are dispatched to shards.
type Coordinator struct {
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
	inc         *route.Incremental    // owns the masked decomposition
	comps       []route.Component     // current snapshot of inc.Components()
	churnEpoch  uint64                // bumped by every effective ApplyChurn
	pristine    []*selection          // by index into csr.Pristine(numLinks).Comps; nil until dispatched
	masked      map[uint64]*selection // live masked components by Component.Key()
	assignKey   map[uint64]int32      // Component.Key() -> owning shard id
	quarantined []bool                // construct failed while pings still pass
	assign      []int32               // component index -> owning shard id
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
		numLinks: numLinks,
		opt:      opt,
		csr:      csr,
		inc:      inc,
		comps:    inc.Components(),
		wd:       watchdog.New(opt.TTL),
		stop:     make(chan struct{}),
	}
	c.assign = make([]int32, len(c.comps))
	c.pristine = make([]*selection, len(csr.Pristine(numLinks).Comps))
	c.masked = make(map[uint64]*selection)
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
		// In-process shards share the coordinator's matrix.
		for i := 0; i < opt.Shards; i++ {
			c.clients = append(c.clients, &Shard{id: i, ps: ps, csr: csr, numLinks: numLinks})
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
// drops the stored selections of exactly the masked components the change
// removes. The next Construct answers the components it adds from the
// store: a pristine one coming back by lookup, a masked one by repairing
// its parent's stored selection. Returns the component diff.
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
	// An added component sharing a removed key (splits keep the smallest
	// link) finds no selection under it.
	for i := range diff.Removed {
		delete(c.masked, diff.Removed[i].Key())
		delete(c.assignKey, diff.Removed[i].Key())
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
// reassign dead shards' components, dispatch PMC over the transport for
// the pristine components the store lacks, repair the masked ones, and
// merge. A shard that fails its dispatch — transport error or engine
// error — is quarantined and the cycle retries over the survivors, so the
// result is always a complete merge: bit-identical to a fresh
// coordinator's first cycle with the same links down (with none down, to
// pmc.Construct(ps, numLinks, opt.PMC)) regardless of the shard count,
// the transport, or which shards die mid-cycle.
func (c *Coordinator) Construct() (*Result, error) {
	return c.ConstructCycle(nil)
}

// ConstructCycle is Construct under an observability cycle: the assign,
// per-shard dispatch, repair and merge phases get spans on cy (per-shard
// spans are tagged with the shard id), the stage histograms fill
// regardless, and the cycle ID is stamped on every ConstructRequest so
// remote shards' server spans file under the caller's timeline. A nil cy
// traces nothing and stamps cycle ID 0 — the construction itself is
// identical either way.
func (c *Coordinator) ConstructCycle(cy *obs.Cycle) (*Result, error) {
	start := time.Now()
	c.reprobeQuarantined()
	pristine := c.csr.Pristine(c.numLinks)
	merged := &Result{Result: &pmc.Result{Stats: pmc.Stats{CoverageMet: true, IdentMet: c.opt.PMC.Beta >= 1}}}
	if err := c.dispatch(cy, pristine, merged); err != nil {
		return nil, err
	}

	// Every live component's selection is in the store now but for the
	// masked ones it lacks, which are repaired here from their parents'.
	// A selection still missing means ApplyChurn ran since the dispatch.
	c.mu.Lock()
	comps, epoch := c.comps, c.churnEpoch
	sels := make([]*selection, len(comps))
	var cut []route.Component
	var cutAt []int
	var parents [][]int
	for ci := range comps {
		p, masked := parentOf(pristine, &comps[ci])
		switch {
		case !masked:
			sels[ci] = c.pristine[p]
		case c.masked[comps[ci].Key()] != nil:
			sels[ci] = c.masked[comps[ci].Key()]
		case c.pristine[p] != nil:
			cut = append(cut, comps[ci])
			cutAt = append(cutAt, ci)
			parents = append(parents, c.pristine[p].paths)
		}
	}
	c.mu.Unlock()
	if len(cut) > 0 {
		repairStart := time.Now()
		sp := cy.Span("repair")
		repaired, st, err := pmc.Repair(c.csr, cut, parents, c.numLinks, c.opt.PMC)
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}
		merged.Repair = time.Since(repairStart)
		stageRepair.Observe(merged.Repair)
		merged.Stats.AddWork(st)
		for i, r := range repaired {
			sels[cutAt[i]] = &selection{paths: r.Selected, coverageMet: r.CoverageMet, identMet: r.IdentMet}
		}
	}

	mergeStart := time.Now()
	mergeSpan := cy.Span("merge")
	c.mu.Lock()
	if c.churnEpoch != epoch {
		c.mu.Unlock()
		return nil, errChurned
	}
	for _, ci := range cutAt {
		c.masked[comps[ci].Key()] = sels[ci]
	}
	c.mu.Unlock()
	for _, sel := range sels {
		if sel == nil {
			return nil, errChurned
		}
		merged.Selected = append(merged.Selected, sel.paths...)
		merged.Stats.CoverageMet = merged.Stats.CoverageMet && sel.coverageMet
		merged.Stats.IdentMet = merged.Stats.IdentMet && sel.identMet
	}
	merged.Stats.Components = len(comps)
	merged.ReusedComponents = len(comps) - merged.DirtyComponents
	sort.Ints(merged.Selected)
	merged.Stats.Selected = len(merged.Selected)
	merged.Stats.Elapsed = time.Since(start)
	mergeSpan.End()
	stageMerge.Observe(time.Since(mergeStart))
	shardsAlive.Set(int64(merged.Alive))
	shardsQuarantined.Set(int64(c.opt.Shards - merged.Alive))
	return merged, nil
}

// errChurned is a cycle's answer when ApplyChurn ran while it was in
// flight.
var errChurned = errors.New("shard: topology churned during construction; re-run Construct")

// parentOf returns the index of c's pristine parent, which every component
// of the coordinator's decomposition has, and whether c is masked: cut out
// of that parent, with fewer paths.
func parentOf(pristine *route.Pristine, c *route.Component) (p int, masked bool) {
	p = pristine.Parent(c)
	return p, c.Paths.Len() < pristine.Comps[p].Paths.Len()
}

// dispatch sends each live shard the pristine components the store lacks
// that it owns (missingLocked), pings the shards it sends nothing, and
// stores what comes back. A failed shard is quarantined and the round
// repeated over the survivors, re-dispatching only what the store still
// lacks; each retry quarantines a shard, so at most opt.Shards+1 rounds
// run. It fills merged's dispatch fields and stats.
func (c *Coordinator) dispatch(cy *obs.Cycle, pristine *route.Pristine, merged *Result) error {
	var lastErr error
	elapsed := make(map[int]time.Duration) // shard id -> its constructions' time, over the rounds
	for attempt := 0; attempt <= c.opt.Shards; attempt++ {
		c.mu.Lock()
		alive := c.aliveLocked()
		if len(alive) == 0 {
			c.mu.Unlock()
			if lastErr != nil {
				return fmt.Errorf("shard: all %d shards dead or quarantined; last dispatch error: %w",
					c.opt.Shards, lastErr)
			}
			return fmt.Errorf("shard: all %d shards dead; cannot construct", c.opt.Shards)
		}
		assignStart := time.Now()
		assignSpan := cy.Span("assign")
		merged.Moved += c.reassignLocked(alive)
		perShard, dirty := c.missingLocked(pristine)
		c.mu.Unlock()
		assignSpan.End()
		stageAssign.Observe(time.Since(assignStart))
		if attempt == 0 {
			merged.DirtyComponents = dirty
		}

		results := make([]*pmc.Result, len(alive))
		errs := make([]error, len(alive))
		dispatchStart := time.Now()
		run := func(k int) {
			id := alive[k]
			if len(perShard[id]) == 0 {
				// Nothing to construct here — but dispatch is also how the
				// coordinator discovers a dead shard before the watchdog
				// TTL fires, so an idle shard gets a synchronous ping
				// instead of a free pass.
				if err := c.clients[id].Ping(); err != nil {
					errs[k] = fmt.Errorf("shard: idle liveness ping: %w", err)
				}
				return
			}
			sub := make([]route.Component, len(perShard[id]))
			for i, p := range perShard[id] {
				sub[i] = pristine.Comps[p]
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
		if c.opt.Sequential {
			for k := range alive {
				run(k)
			}
		} else {
			var wg sync.WaitGroup
			for k := range alive {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					run(k)
				}(k)
			}
			wg.Wait()
		}
		stageDispatch.Observe(time.Since(dispatchStart))

		failed := false
		for k, err := range errs {
			id := alive[k]
			if err != nil {
				failed = true
				lastErr = err
				constructFailovers.Inc()
				obs.Logger().Warn("shard quarantined after failed construct dispatch",
					"shard", id, "cycle", cy.ID(), "err", err)
				c.mu.Lock()
				c.quarantined[id] = true
				c.mu.Unlock()
				continue
			}
			r := results[k]
			if r == nil {
				continue // idle
			}
			c.storeDispatched(pristine, perShard[id], r)
			merged.Stats.AddWork(r.Stats)
			elapsed[id] += r.Stats.Elapsed
		}
		if failed {
			// Never serve a partial merge: requeue over the survivors.
			continue
		}
		merged.Alive = len(alive)
		merged.Retries = attempt
		for _, d := range elapsed {
			merged.CriticalPath = max(merged.CriticalPath, d)
		}
		return nil
	}
	return fmt.Errorf("shard: construction failed after %d dispatch rounds: %w", c.opt.Shards+1, lastErr)
}

// missingLocked lists per shard id the pristine components (indices into
// pristine.Comps) the store lacks that a live component needs — itself, or
// as a masked component's parent — each for the first such component's
// shard. dirty counts the live components the store lacks. Requires c.mu.
func (c *Coordinator) missingLocked(pristine *route.Pristine) (perShard [][]int32, dirty int) {
	perShard = make([][]int32, c.opt.Shards)
	asked := make(map[int]bool)
	for ci := range c.comps {
		p, masked := parentOf(pristine, &c.comps[ci])
		if masked && c.masked[c.comps[ci].Key()] != nil {
			continue
		}
		if masked || c.pristine[p] == nil {
			dirty++
		}
		if c.pristine[p] != nil || asked[p] {
			continue
		}
		asked[p] = true
		id := c.assign[ci]
		perShard[id] = append(perShard[id], int32(p))
	}
	return perShard, dirty
}

// storeDispatched stores a shard's answer for pristine components ps,
// split by each selected path's first link. A pristine selection is a
// function of content alone, so it is stored even if the topology churned.
func (c *Coordinator) storeDispatched(pristine *route.Pristine, ps []int32, r *pmc.Result) {
	parts := make(map[int][]int, len(ps))
	var row []topo.LinkID
	for _, pid := range r.Selected {
		row = c.csr.AppendRow(pid, row[:0])
		p := pristine.CompOf(row[0])
		parts[p] = append(parts[p], pid)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range ps {
		c.pristine[p] = &selection{paths: parts[int(p)], coverageMet: r.Stats.CoverageMet, identMet: r.Stats.IdentMet}
	}
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
