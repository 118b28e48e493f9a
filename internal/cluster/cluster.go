// Package cluster boots the full deTector deployment on one machine: the
// UDP switch fabric, controller, diagnoser and watchdog HTTP services, and
// pinger/responder agents on every server — the in-process equivalent of
// the paper's 20-switch testbed deployment (§6.1-6.3). Examples and
// integration tests drive it with compressed timescales.
package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/diag"
	"github.com/detector-net/detector/internal/fabric"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/responder"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
	"github.com/detector-net/detector/internal/watchdog"
)

// Options shapes a cluster boot.
type Options struct {
	// K is the Fattree radix (default 4, the paper's testbed).
	K int
	// Control overrides controller defaults; WindowMS and RatePPS are the
	// main knobs for test-speed runs. WindowMS is the one window of the
	// deployment: pingers cut their reports on it and the diagnoser closes
	// its windows on those reports.
	Control control.Config
	// Window is that window as a duration, for callers that set no Control
	// (default 30 s). Given together with Control.WindowMS the two must
	// agree: a diagnoser on a different period than its pingers closes
	// windows of partial reports.
	Window time.Duration
	// ProbeTimeout declares probe loss (default 100 ms).
	ProbeTimeout time.Duration
	// WatchdogTTL marks servers unhealthy after this heartbeat silence.
	WatchdogTTL time.Duration
	// RuleSeed fixes probabilistic-drop randomness.
	RuleSeed int64
	// Shards, when > 1, boots that many controller shards in-process: the
	// controller constructs through the shard coordinator and the
	// diagnoser localizes through the shard plane. The served pinglists,
	// matrix and alerts are identical to a single-controller boot; what
	// changes is that construction distributes and survives shard death
	// (see Controller.Coordinator for the failover hooks).
	Shards int
	// RemoteShards runs the Shards controller shards as real loopback
	// HTTP services (internal/shardrpc) instead of in-process: the
	// coordinator and diagnoser drive them over the wire — the
	// single-machine stand-in for a real multi-controller deployment,
	// with identical served output (the transport moves component slices,
	// selections and verdicts; the matrix never moves).
	RemoteShards bool
	// ShardEndpoints connects the control plane to an already-running
	// external shard fleet (detectord -shard-serve processes) instead of
	// booting anything locally. Overrides Shards and RemoteShards; every
	// service must be built for the same Fattree radix K.
	ShardEndpoints []string
	// ShardTTL marks a controller shard dead after this heartbeat
	// silence (default 4 windows, like WatchdogTTL).
	ShardTTL time.Duration
	// PLL overrides the diagnoser's localization config. Compressed-time
	// runs should raise LossRatioFloor/MinLoss: with windows of a few
	// hundred milliseconds, a single scheduler stall mimics a burst of
	// packet loss that a 30-second production window would average away.
	PLL *pll.Config
}

// Cluster is a running deployment.
type Cluster struct {
	F     *topo.Fattree
	Rules *fabric.RuleTable
	Fab   *fabric.Fabric

	Controller *control.Controller
	Diagnoser  *diag.Diagnoser
	Watchdog   *watchdog.Service

	ControllerURL string
	DiagnoserURL  string
	WatchdogURL   string

	Pingers    []*pinger.Pinger
	Responders []*responder.Responder

	// ShardURLs lists the loopback shard service endpoints when the boot
	// used RemoteShards (or echoes Options.ShardEndpoints).
	ShardURLs []string

	servers   []*http.Server
	shardSrvs []*http.Server
}

// serveHTTP starts an http.Server on an ephemeral loopback port.
func serveHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// Start boots everything and runs one controller cycle.
func Start(opts Options) (*Cluster, error) {
	if opts.K == 0 {
		opts.K = 4
	}
	if opts.Control.Alpha == 0 && opts.Control.Beta == 0 {
		opts.Control = control.DefaultConfig()
		opts.Control.WindowMS = 0
	}
	if opts.Control.WindowMS == 0 {
		if opts.Window == 0 {
			opts.Window = 30 * time.Second
		}
		opts.Control.WindowMS = int(opts.Window / time.Millisecond)
	}
	w := time.Duration(opts.Control.WindowMS) * time.Millisecond
	if opts.Window != 0 && opts.Window != w {
		return nil, fmt.Errorf("cluster: Window %v disagrees with Control.WindowMS %d: set one, or both to the same window",
			opts.Window, opts.Control.WindowMS)
	}
	opts.Window = w
	if opts.WatchdogTTL == 0 {
		opts.WatchdogTTL = 4 * opts.Window
	}
	if opts.Shards > 1 || len(opts.ShardEndpoints) > 0 {
		opts.Control.Shards = opts.Shards
		if opts.ShardTTL == 0 {
			opts.ShardTTL = 4 * opts.Window
		}
		opts.Control.ShardTTL = opts.ShardTTL
	}
	f, err := topo.NewFattree(opts.K)
	if err != nil {
		return nil, err
	}
	c := &Cluster{F: f, Rules: fabric.NewRuleTable(opts.RuleSeed)}

	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}

	// Shard fleet before the control plane: the controller and diagnoser
	// take its endpoints as config. Each loopback service owns its own
	// materialization of the candidate matrix, derived from the topology
	// exactly as the coordinator derives its own — the matrix-signature
	// handshake holds the two together.
	if opts.RemoteShards && opts.Shards <= 1 && len(opts.ShardEndpoints) == 0 {
		return fail(fmt.Errorf("cluster: RemoteShards requires Shards > 1 (got %d) — nothing to put behind the transport", opts.Shards))
	}
	switch {
	case len(opts.ShardEndpoints) > 0:
		c.ShardURLs = opts.ShardEndpoints
	case opts.Shards > 1 && opts.RemoteShards:
		ps := route.NewFattreePaths(f)
		for i := 0; i < opts.Shards; i++ {
			srv, url, err := serveHTTP(shardrpc.NewServer(ps, f.NumLinks()).Handler())
			if err != nil {
				return fail(fmt.Errorf("cluster: shard server %d: %w", i, err))
			}
			c.shardSrvs = append(c.shardSrvs, srv)
			c.ShardURLs = append(c.ShardURLs, url)
		}
	}
	if len(c.ShardURLs) > 0 {
		opts.Control.ShardEndpoints = c.ShardURLs
	}

	c.Fab, err = fabric.Start(f.Topology, c.Rules)
	if err != nil {
		return fail(err)
	}

	// Watchdog first: everything else reports into it.
	c.Watchdog = watchdog.New(opts.WatchdogTTL)
	srv, url, err := serveHTTP(c.Watchdog.Handler())
	if err != nil {
		return fail(err)
	}
	c.servers = append(c.servers, srv)
	c.WatchdogURL = url

	// Diagnoser next, so the controller can hand pingers its URL.
	pllCfg := pll.DefaultConfig()
	if opts.PLL != nil {
		pllCfg = *opts.PLL
	}
	// The fabric's drop counters are the diagnoser's SNMP side channel:
	// per-link deltas since the last read, so the verdict lattice can
	// split counted loss (lossy) from uncounted loss (silent-partial —
	// gray rules never bump a counter).
	var cntMu sync.Mutex
	lastRead := make(map[topo.LinkID]int64)
	counters := pll.LinkCounters(func(l topo.LinkID) (int64, bool) {
		cntMu.Lock()
		defer cntMu.Unlock()
		cur := c.Rules.Counter(l)
		delta := cur - lastRead[l]
		lastRead[l] = cur
		return delta, true
	})
	c.Diagnoser = diag.New(diag.Options{
		Window:         opts.Window,
		PLL:            pllCfg,
		Topo:           f.Topology,
		Shards:         opts.Shards,
		ShardEndpoints: c.ShardURLs,
		LinkCounters:   counters,
		Unhealthy:      c.Watchdog.UnhealthySet,
	})
	srv, url, err = serveHTTP(c.Diagnoser.Handler())
	if err != nil {
		return fail(err)
	}
	c.servers = append(c.servers, srv)
	c.DiagnoserURL = url

	// Controller: one PMC cycle before agents fetch pinglists.
	cfg := opts.Control
	cfg.ReportURL = c.DiagnoserURL
	c.Controller = control.New(f, cfg)
	if err := c.Controller.RunCycle(nil); err != nil {
		return fail(err)
	}
	srv, url, err = serveHTTP(c.Controller.Handler())
	if err != nil {
		return fail(err)
	}
	c.servers = append(c.servers, srv)
	c.ControllerURL = url

	// The diagnoser learns the matrix in-process, here and after every
	// Churn.
	c.Diagnoser.SetMatrix(c.Controller.ProbeMatrix(), c.Controller.Version())
	c.Diagnoser.Run()

	// Agents: pingers where the controller says so, responders elsewhere.
	isPinger := make(map[topo.NodeID]bool)
	for _, n := range c.Controller.PingerNodes() {
		isPinger[n] = true
	}
	// Only pingers heartbeat, so only they are tracked: a responder-only
	// server has no agent loop in this harness, and a tracked server that
	// never heartbeats is unhealthy one TTL later — the diagnoser would
	// discard every path that ends at it.
	for _, sv := range f.Servers() {
		if isPinger[sv] {
			p, err := pinger.Start(f.Topology, c.Rules, c.Fab.Registry, sv, c.ControllerURL, pinger.Options{
				Timeout:      opts.ProbeTimeout,
				HeartbeatURL: c.WatchdogURL,
			})
			if err != nil {
				return fail(fmt.Errorf("cluster: pinger %d: %w", sv, err))
			}
			if p != nil {
				c.Watchdog.Track(sv)
				c.Pingers = append(c.Pingers, p)
				continue
			}
		}
		r, err := responder.Start(f.Topology, c.Rules, c.Fab.Registry, sv)
		if err != nil {
			return fail(fmt.Errorf("cluster: responder %d: %w", sv, err))
		}
		c.Responders = append(c.Responders, r)
	}
	return c, nil
}

// KillShardServer closes loopback shard service i outright — connections
// refused from the next dial, the single-machine analog of a shard machine
// losing power. Only meaningful after a RemoteShards boot.
func (c *Cluster) KillShardServer(i int) { c.shardSrvs[i].Close() }

// Churn applies a topology change — links leaving and rejoining service —
// and runs one incremental controller cycle: only the candidate components
// the diff marks dirty recompute (clean selections are reused verbatim),
// the diagnoser swaps to the refreshed matrix, and every pinger converges
// on its new work order through the window-boundary delta refresh — no
// agent restart, no full fleet re-fetch.
func (c *Cluster) Churn(down, up []topo.LinkID) (route.Diff, error) {
	d, err := c.Controller.ApplyChurn(down, up)
	if err != nil {
		return d, err
	}
	if err := c.Controller.RunCycle(c.Watchdog.UnhealthySet()); err != nil {
		return d, err
	}
	c.Diagnoser.SetMatrix(c.Controller.ProbeMatrix(), c.Controller.Version())
	return d, nil
}

// InjectFailure installs a loss model on a link (the OpenFlow-rule analog).
func (c *Cluster) InjectFailure(l topo.LinkID, m sim.LossModel) { c.Rules.Install(l, m) }

// Repair removes the failure on a link.
func (c *Cluster) Repair(l topo.LinkID) { c.Rules.Remove(l) }

// WaitForAlert polls the diagnoser until an alert naming any of the links
// arrives or the deadline passes. It returns the alert or nil.
func (c *Cluster) WaitForAlert(links []topo.LinkID, deadline time.Duration) *diag.Alert {
	want := make(map[topo.LinkID]bool, len(links))
	for _, l := range links {
		want[l] = true
	}
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		for _, a := range c.Diagnoser.Alerts() {
			for _, v := range a.Bad {
				if want[v.Link] {
					alert := a
					return &alert
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// Stop tears everything down.
func (c *Cluster) Stop() {
	for _, p := range c.Pingers {
		p.Stop()
	}
	for _, r := range c.Responders {
		r.Stop()
	}
	if c.Diagnoser != nil {
		c.Diagnoser.Stop()
	}
	if c.Controller != nil {
		c.Controller.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, s := range c.shardSrvs {
		s.Close()
	}
	if c.Fab != nil {
		c.Fab.Stop()
	}
}
