package cluster

import (
	"reflect"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/metrics"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// TestRemoteShardServingIdentical boots the cluster with the controller
// shards behind real loopback HTTP services and checks the transport
// changes nothing observable: the controller drives every shard over v2
// binary frames that no service rejects, the served matrix is
// byte-identical to an unsharded boot, and the coordinator reports the
// shard services' URLs.
func TestRemoteShardServingIdentical(t *testing.T) {
	ref, err := Start(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Stop)

	opts := fastOptions()
	opts.Shards = 2
	opts.RemoteShards = true
	opts.ShardTTL = 300 * time.Millisecond
	served, rejected := metrics.Counters()["shardrpc_server_requests"], metrics.Counters()["shardrpc_server_rejected"]
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if metrics.Counters()["shardrpc_server_requests"] == served {
		t.Fatal("the remote boot sent the shard services nothing")
	}
	if got := metrics.Counters()["shardrpc_server_rejected"] - rejected; got != 0 {
		t.Fatalf("shard services rejected %d requests of the boot cycle", got)
	}

	if len(c.ShardURLs) != 2 {
		t.Fatalf("remote boot exposed %d shard URLs, want 2", len(c.ShardURLs))
	}
	coord := c.Controller.Coordinator()
	if coord == nil {
		t.Fatal("remote sharded boot produced no coordinator")
	}
	for _, si := range coord.Status().Shards {
		if si.Addr != c.ShardURLs[si.ID] {
			t.Errorf("shard %d addr %q, want its service URL %q", si.ID, si.Addr, c.ShardURLs[si.ID])
		}
	}
	if !reflect.DeepEqual(c.Controller.ProbeMatrix().PathLinks, ref.Controller.ProbeMatrix().PathLinks) {
		t.Fatal("served matrix differs between remote-sharded and unsharded boots")
	}
}

// TestRemoteShardFailoverRecoversCoverage is the acceptance drill for the
// transport: kill a remote shard service mid-window — connections refused,
// the shard watchdog has not yet noticed — and require that the very next
// RunCycle completes by failing the dead shard's components over to the
// survivor, serving a full-α matrix bit-identical to the pre-failure one.
func TestRemoteShardFailoverRecoversCoverage(t *testing.T) {
	opts := fastOptions()
	opts.Shards = 2
	opts.RemoteShards = true
	opts.ShardTTL = 300 * time.Millisecond
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	coord := c.Controller.Coordinator()
	if coord == nil {
		t.Fatal("remote sharded boot produced no coordinator")
	}
	if coord.Components() != 2 {
		t.Fatalf("Fattree(4) should decompose into 2 components, got %d", coord.Components())
	}
	alpha := opts.Control.Alpha
	origMatrix := c.Controller.ProbeMatrix().PathLinks
	v := pmc.Verify(c.Controller.ProbeMatrix(), c.F.SwitchLinks(), false)
	if v.MinCoverage < alpha {
		t.Fatalf("pre-failure coverage %d below alpha %d", v.MinCoverage, alpha)
	}

	victim := int(coord.Assignment()[0])
	victimComps := 0
	for _, s := range coord.Assignment() {
		if int(s) == victim {
			victimComps++
		}
	}
	if victimComps == 0 {
		t.Fatal("victim shard owned no components; test is vacuous")
	}
	c.KillShardServer(victim)

	// No watchdog wait: the recompute must discover the death through the
	// failed dispatch and still finish this cycle.
	version := c.Controller.Version()
	if err := c.Controller.RunCycle(nil); err != nil {
		t.Fatalf("post-kill recompute: %v", err)
	}
	if c.Controller.Version() != version+1 {
		t.Fatal("recompute did not advance the version")
	}
	for ci, s := range coord.Assignment() {
		if int(s) == victim {
			t.Errorf("component %d still assigned to dead shard service %d", ci, victim)
		}
	}
	v = pmc.Verify(c.Controller.ProbeMatrix(), c.F.SwitchLinks(), false)
	if v.MinCoverage < alpha {
		t.Errorf("post-failover coverage %d below alpha %d — reassignment did not re-cover the dead shard's components",
			v.MinCoverage, alpha)
	}
	if !v.Identifiable1 {
		t.Errorf("post-failover matrix lost 1-identifiability: %v", v.Collisions)
	}
	if !reflect.DeepEqual(c.Controller.ProbeMatrix().PathLinks, origMatrix) {
		t.Error("served matrix changed across remote shard failover — merge guarantee broken")
	}
}

// TestRemoteShardEndToEndAlert proves the whole detection loop runs over
// the transport: probes flow, the diagnoser routes each window's
// observations to the remote shard services for localization, and a full
// link failure still produces a correctly scoped alert.
func TestRemoteShardEndToEndAlert(t *testing.T) {
	opts := fastOptions()
	opts.Shards = 2
	opts.RemoteShards = true
	opts.ShardTTL = 10 * time.Second
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	// Warm up one clean window so the baseline is loss-free.
	waitEpochs(t, c, 1)

	bad := c.F.MustLink(c.F.AggID[1][0], c.F.CoreID[0])
	c.InjectFailure(bad, sim.FullLoss{})
	alert := c.WaitForAlert([]topo.LinkID{bad}, 10*time.Second)
	if alert == nil {
		t.Fatalf("no alert for link %d within deadline over remote shards; alerts: %+v",
			bad, c.Diagnoser.Alerts())
	}
	if len(alert.Bad) != 1 {
		t.Errorf("alert names %d links, want exactly the failed one: %+v", len(alert.Bad), alert.Bad)
	}
	if alert.Bad[0].Rate < 0.5 {
		t.Errorf("estimated loss rate %.2f for a full-loss link", alert.Bad[0].Rate)
	}
}
