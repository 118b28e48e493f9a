package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// controlParams shapes one run of the control-plane script: cold
// construction cycles, a fleet pinglist bootstrap over loopback HTTP,
// single-link churn flaps, then unhealthy-set-only cycles. The control-*
// workloads spend the run on cold cycles, churn-f16 on flaps; the script
// and its correctness gates are the same.
type controlParams struct {
	k, alpha, beta int
	// coldShare and churnShare split the measured seconds between the
	// cold-cycle and the churn phase; minCold and minFlaps hold however
	// short the run is.
	coldShare, churnShare float64
	minCold, minFlaps     int
	serveCycles           int
	// churnHeadline makes churn convergence, not the cold cycle, op_ms.
	churnHeadline bool
	probeReps     int
}

// controlState is what one set-up leaves behind: the controller after its
// first cycle, served over loopback, and the seeded inputs.
type controlState struct {
	f      *topo.Fattree
	cfg    control.Config
	ctl    *control.Controller
	url    string
	stop   func()
	client *http.Client
	wire   *countingTransport
	// flapLinks is the seeded order in which switch links flap;
	// sickServers the seeded servers the unhealthy-only cycles exclude.
	flapLinks   []topo.LinkID
	sickServers []topo.NodeID
}

func (s *controlState) close() {
	s.stop()
	s.wire.base.CloseIdleConnections()
	s.ctl.Close()
}

func setupControl(p controlParams, seed int64) (*controlState, error) {
	f, err := topo.NewFattree(p.k)
	if err != nil {
		return nil, err
	}
	cfg := control.DefaultConfig()
	cfg.Alpha, cfg.Beta = p.alpha, p.beta
	ctl := control.New(f, cfg)
	if err := ctl.RunCycle(nil); err != nil {
		return nil, fmt.Errorf("first cycle: %w", err)
	}
	url, stop, err := serveLoopback(ctl.Handler())
	if err != nil {
		ctl.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	links := append([]topo.LinkID(nil), f.SwitchLinks()...)
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	servers := append([]topo.NodeID(nil), f.Servers()...)
	rng.Shuffle(len(servers), func(i, j int) { servers[i], servers[j] = servers[j], servers[i] })
	client, wire := newCountingClient()
	return &controlState{f: f, cfg: cfg, ctl: ctl, url: url, stop: stop,
		client: client, wire: wire, flapLinks: links, sickServers: servers}, nil
}

func runControl(e *env, p controlParams) error {
	rec, tr := e.rec, e.tr
	st, setupS, err := timeSetups(e.setups,
		func() (*controlState, error) { return setupControl(p, e.seed) }, (*controlState).close)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	rec.set("setup_s", setupS)
	calibBefore := calibrate()

	op := 0
	nextOp := func() int { op++; return op }
	budget := func(share float64) time.Duration {
		return time.Duration(share * e.seconds * float64(time.Second))
	}

	// Phase 1: cold construction cycles, each on a fresh controller after
	// a forced collection so one cycle's garbage is not the next one's GC.
	var coldMS, pmcMS []float64
	var first pmc.Stats
	countsRepeat := true
	phase := time.Now()
	for i := 0; i < p.minCold || time.Since(phase) < budget(p.coldShare); i++ {
		runtime.GC()
		sp := tr.begin("control.cold_cycle", 0, nextOp())
		t0 := time.Now()
		c := control.New(st.f, st.cfg)
		err := c.RunCycle(nil)
		d := time.Since(t0)
		tr.end(sp)
		stats := c.PMCStats()
		c.Close()
		if !rec.op(err) {
			continue
		}
		coldMS = append(coldMS, ms(d))
		pmcMS = append(pmcMS, ms(stats.Elapsed))
		if len(coldMS) == 1 {
			first = stats
		} else if stats.ScoreEvals != first.ScoreEvals || stats.Selected != first.Selected {
			countsRepeat = false
		}
	}
	rec.check("pmc-counts-repeat", countsRepeat, "score evals / selected paths differ between cold cycles")

	firstMatrix := st.ctl.ProbeMatrix()

	// Phase 2: every pinger bootstraps its full pinglist, as a fleet boot
	// would.
	fleet := append([]topo.NodeID(nil), st.ctl.PingerNodes()...)
	held := make(map[topo.NodeID]*control.Pinglist, len(fleet))
	wire0 := st.wire.bytes.Load()
	sp := tr.begin("control.pinglist_fetch", 0, nextOp())
	for _, n := range fleet {
		pl, err := control.FetchPinglist(st.client, st.url, n)
		if !rec.op(err) {
			return fmt.Errorf("pinglist bootstrap of node %d: %w", n, err)
		}
		held[n] = pl
	}
	tr.end(sp)
	rec.set("control.pinglist_bytes", float64(st.wire.bytes.Load()-wire0))

	// Phase 3: single-link flaps. One convergence is ApplyChurn, the
	// incremental cycle, and every pinger pulling its delta.
	baseSig := route.ProbesSignature(firstMatrix)
	// A link going down recomputes its component (~125 ms on Fattree(16));
	// coming back reuses the remembered selection (~46 ms). The median of
	// that mix sits in either mode by chance, so every statistic of the
	// churn phase is the mean of its two direction medians.
	isDown := make(map[int]bool) // by operation id
	convergeMS := make(map[int]float64)
	byDirection := func(byOp map[int]float64) (down, up float64) {
		var d, u []float64
		for id, v := range byOp {
			if isDown[id] {
				d = append(d, v)
			} else {
				u = append(u, v)
			}
		}
		return median(d), median(u)
	}
	bothWays := func(byOp map[int]float64) float64 {
		down, up := byDirection(byOp)
		return (down + up) / 2
	}
	converge := func(down, up []topo.LinkID) {
		id := nextOp()
		isDown[id] = len(down) > 0
		root := tr.begin("control.churn_converge", 0, id)
		wire0 := st.wire.bytes.Load()
		changed := 0
		t0 := time.Now()
		sp := tr.begin("route.churn_apply", root, id)
		diff, err := st.ctl.ApplyChurn(down, up)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("control.churn_cycle", root, id)
			err = st.ctl.RunCycle(nil)
			tr.end(sp)
		}
		if err == nil {
			sp = tr.begin("control.delta_fetch", root, id)
			// A flap can hand work to a server that had none: the fleet
			// is every node that has ever held a pinglist.
			for _, n := range st.ctl.PingerNodes() {
				if held[n] == nil {
					held[n] = &control.Pinglist{Node: n}
					fleet = append(fleet, n)
				}
			}
			for _, n := range fleet {
				d, notModified, ferr := control.FetchPinglistDelta(st.client, st.url, n, held[n].Version)
				if ferr != nil {
					err = ferr
					break
				}
				if d != nil && !notModified {
					held[n] = control.ApplyDelta(held[n], d)
					changed++
				}
			}
			tr.end(sp)
		}
		d := time.Since(t0)
		tr.end(root)
		if err == nil {
			for _, n := range st.ctl.PingerNodes() {
				if held[n].Version != st.ctl.PinglistFor(n).Version {
					err = fmt.Errorf("pinger %d did not reach the served pinglist version", n)
					break
				}
			}
		}
		if !rec.op(err) {
			return
		}
		convergeMS[id] = ms(d)
		rec.add("route.churn_dirty_components", float64(len(diff.Added)))
		rec.add("control.delta_changed_pingers", float64(changed))
		rec.add("control.delta_bytes", float64(st.wire.bytes.Load()-wire0))
	}
	flapsRestore := true
	phase = time.Now()
	for i := 0; i < p.minFlaps || time.Since(phase) < budget(p.churnShare); i++ {
		l := []topo.LinkID{st.flapLinks[i%len(st.flapLinks)]}
		converge(l, nil)
		converge(nil, l)
		if route.ProbesSignature(st.ctl.ProbeMatrix()) != baseSig {
			flapsRestore = false
		}
	}
	rec.check("flap-restores-matrix", flapsRestore, "served matrix signature after a down/up flap differs from before it")
	lastMatrix := st.ctl.ProbeMatrix()

	// Phase 4: cycles where only the unhealthy set changed; construction
	// reuses every selection, so this is the serve stage alone.
	for i := 0; i < p.serveCycles; i++ {
		sick := map[topo.NodeID]bool{st.sickServers[i%len(st.sickServers)]: true}
		sp := tr.begin("control.serve_cycle", 0, nextOp())
		err := st.ctl.RunCycle(sick)
		tr.end(sp)
		rec.op(err)
	}

	rec.snapshotRSS()
	calibAfter := calibrate()

	// The paper's contract on what was served: after the first cycle and
	// after the last flap.
	for _, g := range []struct {
		name   string
		matrix *route.Probes
	}{{"contract-after-first-cycle", firstMatrix}, {"contract-after-last-churn", lastMatrix}} {
		sp := tr.begin("pmc.verify", 0, nextOp())
		v := pmc.Verify(g.matrix, st.f.SwitchLinks(), p.beta >= 2)
		tr.end(sp)
		ok := v.MinCoverage >= p.alpha && v.Identifiable1 && (p.beta < 2 || v.Identifiable2)
		rec.check(g.name, ok, "min coverage %d (want >= %d), 1-identifiable %v, 2-identifiable %v, %v",
			v.MinCoverage, p.alpha, v.Identifiable1, v.Identifiable2, v.Collisions)
	}

	converged := bothWays(convergeMS)
	headline := median(coldMS)
	if p.churnHeadline {
		headline = converged
	}
	rec.set("op_ms", headline)
	passed, total := rec.gatesPassed()
	rec.set("accuracy", float64(passed)/float64(total))
	rec.set("precision", float64(passed)/float64(total))
	if !tr.on {
		return nil
	}

	// Layer probes: the stages RunCycle runs internally, called directly
	// so each gets its own number. Traced run only.
	var components int
	for i := 0; i < p.probeReps; i++ {
		id := nextOp()
		sp := tr.begin("topo.build", 0, id)
		f, err := topo.NewFattree(p.k)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("route.enumerate", 0, id)
		ps := route.NewFattreePaths(f)
		tr.end(sp)
		sp = tr.begin("route.materialize", 0, id)
		csr := route.MaterializeCSR(ps)
		tr.end(sp)
		sp = tr.begin("route.decompose", 0, id)
		components = len(route.DecomposeCSR(csr, f.NumLinks()))
		tr.end(sp)
	}

	enumerate := median(tr.ms("route.enumerate"))
	rec.set("host.calib_ms", (calibBefore+calibAfter)/2)
	rec.set("bench.traced_op_ms", headline)
	rec.set("topo.build_ms", median(tr.ms("topo.build")))
	rec.set("route.enumerate_ms", enumerate)
	rec.set("route.materialize_ms", median(tr.ms("route.materialize")))
	rec.set("route.decompose_ms", median(tr.ms("route.decompose")))
	rec.set("route.components", float64(components))
	rec.set("pmc.construct_ms", median(pmcMS))
	rec.set("pmc.score_evals", float64(first.ScoreEvals))
	rec.set("pmc.selected_paths", float64(first.Selected))
	rec.set("pmc.verify_ms", median(tr.ms("pmc.verify")))
	rec.set("control.cycle_cold_ms", median(coldMS))
	rec.set("control.cycle_remainder_ms", median(coldMS)-enumerate-median(pmcMS))
	rec.set("control.serve_ms", median(tr.ms("control.serve_cycle")))
	rec.set("control.pinglist_fetch_ms", median(tr.ms("control.pinglist_fetch")))
	// The stages of a convergence, averaged over direction like the
	// convergence itself, so the rows add up to it.
	apply := bothWays(tr.msByOp("route.churn_apply"))
	cycle := bothWays(tr.msByOp("control.churn_cycle"))
	fetch := bothWays(tr.msByOp("control.delta_fetch"))
	down, up := byDirection(convergeMS)
	rec.set("control.churn_converge_ms", converged)
	rec.set("control.churn_down_ms", down)
	rec.set("control.churn_up_ms", up)
	rec.set("route.churn_apply_ms", apply)
	rec.set("control.churn_cycle_ms", cycle)
	rec.set("control.delta_fetch_ms", fetch)
	rec.set("control.churn_remainder_ms", converged-apply-cycle-fetch)
	return nil
}
