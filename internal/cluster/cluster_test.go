package cluster

import (
	"testing"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// fastOptions compresses timescales so an end-to-end cycle fits in CI:
// 450 ms windows, 120 probes/sec per pinger, 200 ms probe timeout. The
// pacing is deliberately conservative — on a small CI box, scheduler stalls
// masquerade as loss bursts if the timeout is tight — and the PLL noise
// floor is raised accordingly (a production deployment uses 30 s windows
// and a 1e-3 floor).
func fastOptions() Options {
	cfg := control.DefaultConfig()
	cfg.RatePPS = 120
	cfg.WindowMS = 450
	pllCfg := pll.DefaultConfig()
	pllCfg.LossRatioFloor = 0.2
	pllCfg.MinLoss = 2
	return Options{
		K:            4,
		Control:      cfg,
		ProbeTimeout: 200 * time.Millisecond,
		WatchdogTTL:  15 * time.Second,
		RuleSeed:     1,
		PLL:          &pllCfg,
	}
}

func startCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := Start(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitEpochs blocks until the diagnoser's window clock has closed n more
// epochs: the tests step on closed windows instead of sleeping wall time.
func waitEpochs(t *testing.T, c *Cluster, n int64) {
	t.Helper()
	target := c.Diagnoser.ClosedEpochs() + n
	for deadline := time.Now().Add(10 * time.Second); c.Diagnoser.ClosedEpochs() < target; {
		if time.Now().After(deadline) {
			t.Fatalf("diagnoser closed %d epochs, waiting for %d", c.Diagnoser.ClosedEpochs(), target)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterBoots(t *testing.T) {
	c := startCluster(t)
	if len(c.Pingers) == 0 {
		t.Fatal("no pingers started")
	}
	if c.Controller.Version() != 1 {
		t.Fatalf("controller version %d, want 1", c.Controller.Version())
	}
	m := c.Controller.ProbeMatrix()
	if m == nil || m.NumPaths() == 0 {
		t.Fatal("empty probe matrix")
	}
	// Every pinger got a pinglist consistent with the matrix.
	for _, p := range c.Pingers {
		if len(p.Pinglist().Entries) == 0 {
			t.Fatalf("pinger %d has empty pinglist", p.Node)
		}
		for _, e := range p.Pinglist().Entries {
			if e.Route[0] != p.Node {
				t.Fatalf("pinger %d told to send from %d", p.Node, e.Route[0])
			}
		}
	}
}

// TestClusterEndToEndFullLoss is the flagship integration test: inject a
// full-loss failure on an aggregation-core link via the rule table, wait a
// few windows of real UDP probing, and require a diagnoser alert naming
// exactly that link.
func TestClusterEndToEndFullLoss(t *testing.T) {
	c := startCluster(t)
	// Warm up one clean window so the baseline is loss-free.
	waitEpochs(t, c, 1)

	bad := c.F.MustLink(c.F.AggID[1][0], c.F.CoreID[0])
	c.InjectFailure(bad, sim.FullLoss{})
	alert := c.WaitForAlert([]topo.LinkID{bad}, 10*time.Second)
	if alert == nil {
		t.Fatalf("no alert for link %d within deadline; alerts: %+v", bad, c.Diagnoser.Alerts())
	}
	if len(alert.Bad) != 1 {
		t.Errorf("alert names %d links, want exactly the failed one: %+v", len(alert.Bad), alert.Bad)
	}
	if alert.Bad[0].Rate < 0.5 {
		t.Errorf("estimated loss rate %.2f for a full-loss link", alert.Bad[0].Rate)
	}
	if alert.Bad[0].A == "" || alert.Bad[0].B == "" {
		t.Error("alert missing human-readable endpoints")
	}
}

// TestClusterLocalizesServerLink: intra-rack probing must localize a failed
// server-ToR link (§3.2). Every server is a pinger in this configuration,
// so the victim is the second server of the first rack: the rack's
// intra-rack pinger probes across its uplink, and so do the victim's own
// probes.
func TestClusterLocalizesServerLink(t *testing.T) {
	c := startCluster(t)
	waitEpochs(t, c, 1)

	tor := c.F.ToRs()[0]
	rack := c.F.ServersUnder(tor)
	if len(rack) < 2 {
		t.Fatalf("the first rack holds %d servers; the test needs 2", len(rack))
	}
	bad := c.F.MustLink(rack[1], tor)
	c.InjectFailure(bad, sim.FullLoss{})
	alert := c.WaitForAlert([]topo.LinkID{bad}, 10*time.Second)
	if alert == nil {
		t.Fatalf("no alert for server link %d; alerts: %+v", bad, c.Diagnoser.Alerts())
	}
}

// TestClusterBlackholeLocalization injects a deterministic partial loss —
// the failure mode that motivates PLL's hit-ratio threshold — and expects
// the fabric + agents + diagnoser stack to localize it.
func TestClusterBlackholeLocalization(t *testing.T) {
	c := startCluster(t)
	waitEpochs(t, c, 1)

	bad := c.F.MustLink(c.F.EdgeID[2][1], c.F.AggID[2][1])
	// Half of all flows blackholed: enough lossy paths to cross the 0.6
	// hit ratio with 16 rotating labels.
	c.InjectFailure(bad, sim.DeterministicLoss{Buckets: 0xFFFF0000, Seed: 7})
	alert := c.WaitForAlert([]topo.LinkID{bad}, 12*time.Second)
	if alert == nil {
		t.Fatalf("no alert for blackholed link %d; alerts: %+v", bad, c.Diagnoser.Alerts())
	}
}

// TestClusterRepairSilencesAlerts: after repairing the link, subsequent
// windows must stop alerting.
func TestClusterRepairSilencesAlerts(t *testing.T) {
	c := startCluster(t)
	bad := c.F.MustLink(c.F.AggID[0][1], c.F.CoreID[3])
	c.InjectFailure(bad, sim.FullLoss{})
	if alert := c.WaitForAlert([]topo.LinkID{bad}, 10*time.Second); alert == nil {
		t.Fatal("no alert while failed")
	}
	c.Repair(bad)
	// Drain: the epoch the repair fell in, and the one that counts the
	// probes still in flight at its boundary.
	waitEpochs(t, c, 2)
	before := len(c.Diagnoser.Alerts())
	waitEpochs(t, c, 2)
	after := c.Diagnoser.Alerts()
	for _, a := range after[before:] {
		for _, v := range a.Bad {
			if v.Link == bad {
				t.Fatalf("repaired link still alerted: %+v", a)
			}
		}
	}
}

func TestClusterReportsFlow(t *testing.T) {
	c := startCluster(t)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.Diagnoser.Reports() > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no pinger reports reached the diagnoser")
}

// TestClusterLatencySpikeLocalizedAsLoss: the paper treats an RTT above
// the probe timeout as a packet loss (§1). A 600 ms injected delay — far
// above the 250 ms test timeout — must produce a loss alert naming the
// slow link, end to end over real sockets.
func TestClusterLatencySpikeLocalizedAsLoss(t *testing.T) {
	c := startCluster(t)
	waitEpochs(t, c, 1)

	bad := c.F.MustLink(c.F.AggID[3][0], c.F.CoreID[1])
	c.Rules.InstallDelay(bad, 600*time.Millisecond)
	alert := c.WaitForAlert([]topo.LinkID{bad}, 12*time.Second)
	if alert == nil {
		t.Fatalf("no alert for latency spike on link %d; alerts: %+v", bad, c.Diagnoser.Alerts())
	}
}

// TestClusterWindowMismatch: the diagnoser's window and the pinglists'
// WindowMS are one quantity; two different values are a configuration
// error, not a deployment that closes windows of partial reports.
func TestClusterWindowMismatch(t *testing.T) {
	opts := fastOptions()
	opts.Window = 300 * time.Millisecond
	if c, err := Start(opts); err == nil {
		c.Stop()
		t.Fatalf("Start accepted Window %v beside Control.WindowMS %d", opts.Window, opts.Control.WindowMS)
	}
	opts.Window = time.Duration(opts.Control.WindowMS) * time.Millisecond
	c, err := Start(opts)
	if err != nil {
		t.Fatalf("Start rejected two spellings of the same window: %v", err)
	}
	c.Stop()
}

// waitCloseReason polls the diagnoser's /statusz until the window clock's last
// close has the wanted reason.
func waitCloseReason(t *testing.T, c *Cluster, want string) {
	t.Helper()
	var got any
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var sz obs.Statusz
		getJSON(t, c.DiagnoserURL+"/statusz", &sz)
		detail, _ := sz.Detail.(map[string]any)
		last, _ := detail["last_close"].(map[string]any)
		if got = last["reason"]; got == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("window clock's last close is %v, never %q", got, want)
}

// TestClusterSilentPingerGraceThenComplete: windows close on evidence while
// the whole fleet reports; a pinger that dies makes every close wait out the
// grace, until the watchdog's TTL flags it and the clock stops expecting it.
func TestClusterSilentPingerGraceThenComplete(t *testing.T) {
	opts := fastOptions()
	opts.WatchdogTTL = 1200 * time.Millisecond // pingers heartbeat every 450 ms window
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	waitCloseReason(t, c, "complete")

	dead := c.Pingers[0]
	c.Pingers = c.Pingers[1:]
	dead.Stop()
	waitCloseReason(t, c, "grace")
	if c.Watchdog.UnhealthySet()[dead.Node] {
		t.Fatalf("pinger %d flagged before its TTL: the grace closes were not for a healthy silent pinger", dead.Node)
	}
	waitCloseReason(t, c, "complete")
	if !c.Watchdog.UnhealthySet()[dead.Node] {
		t.Fatalf("closes are complete again but the watchdog never flagged pinger %d", dead.Node)
	}
	closes := scrapeProm(t, c.DiagnoserURL+"/metrics")
	if closes[`diag_epoch_closes{reason="grace"}`] < 1 || closes[`diag_epoch_closes{reason="complete"}`] < 2 {
		t.Fatalf("diag_epoch_closes does not show the grace closes between the complete ones: %v / %v",
			closes[`diag_epoch_closes{reason="grace"}`], closes[`diag_epoch_closes{reason="complete"}`])
	}
}
