package shard

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// countingClient wraps an in-process shard and counts/fails dispatches —
// the minimal transport fault injector.
type countingClient struct {
	*Shard
	constructs    atomic.Int64
	comps         atomic.Int64 // components over every construct request
	failConstruct atomic.Bool
}

func (c *countingClient) Construct(req ConstructRequest) (*pmc.Result, error) {
	c.constructs.Add(1)
	c.comps.Add(int64(len(req.Comps)))
	if c.failConstruct.Load() {
		return nil, fmt.Errorf("injected construct fault on shard %d", c.ID())
	}
	return c.Shard.Construct(req)
}

// TestRetryReusesSurvivorsResults pins the failover-cost property: when a
// shard fails mid-cycle, survivors whose component slice is unchanged by
// the reassignment are not re-dispatched — their completed constructions
// carry into the retry round. (Fattree(8), 4 components, 3→2 shards: the
// capacity cap stays 2, so rendezvous moves only the victim's components.)
func TestRetryReusesSurvivorsResults(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1, Ablate: pmc.NoSymmetry}
	ref, err := pmc.Construct(ps, f.NumLinks(), opt)
	if err != nil {
		t.Fatal(err)
	}

	clients := make([]ShardClient, 3)
	counters := make([]*countingClient, 3)
	for i := range clients {
		counters[i] = &countingClient{Shard: NewInProcess(i, ps, f.NumLinks())}
		clients[i] = counters[i]
	}
	c, err := New(ps, f.NumLinks(), Options{Clients: clients, PMC: opt, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	victim := int(c.Assignment()[0])
	counters[victim].failConstruct.Store(true)

	res, err := c.Construct()
	if err != nil {
		t.Fatalf("construct with faulty shard: %v", err)
	}
	if res.Retries < 1 {
		t.Fatal("fault was not exercised")
	}
	if !reflect.DeepEqual(res.Selected, ref.Selected) {
		t.Error("degraded merge differs from single controller")
	}
	if got := counters[victim].constructs.Load(); got != 1 {
		t.Errorf("victim dispatched %d times, want 1", got)
	}
	for i, cc := range counters {
		if i == victim {
			continue
		}
		// Each survivor runs once for its original slice; whichever
		// survivor inherited the victim's components runs once more for
		// the changed slice. Nobody recomputes an unchanged slice.
		if got := cc.constructs.Load(); got < 1 || got > 2 {
			t.Errorf("survivor %d dispatched %d times, want 1 or 2", i, got)
		}
	}
	total := int64(0)
	for _, cc := range counters {
		total += cc.constructs.Load()
	}
	// 3 first-round dispatches + only the slices the reassignment changed.
	if total > 5 {
		t.Errorf("cycle cost %d dispatches — retry recomputed unchanged survivor slices", total)
	}
}

// TestRetryDispatchesOnlyWhatTheStoreLacks: the survivors' answers from a
// failed round are stored, so the retry sends exactly the failed shard's
// components, once — over the cycle the shards receive every component
// once plus the victim's again.
func TestRetryDispatchesOnlyWhatTheStoreLacks(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	opt := pmc.Options{Alpha: 2, Beta: 1}
	counters := make([]*countingClient, 3)
	clients := make([]ShardClient, len(counters))
	for i := range counters {
		counters[i] = &countingClient{Shard: NewInProcess(i, ps, f.NumLinks())}
		clients[i] = counters[i]
	}
	c, err := New(ps, f.NumLinks(), Options{Clients: clients, PMC: opt, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	victim, victimComps := int(c.Assignment()[0]), 0
	for _, s := range c.Assignment() {
		if int(s) == victim {
			victimComps++
		}
	}
	counters[victim].failConstruct.Store(true)
	res, err := c.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("%d retries, want 1", res.Retries)
	}
	sent := int64(0)
	for _, cc := range counters {
		sent += cc.comps.Load()
	}
	if want := int64(c.Components() + victimComps); sent != want {
		t.Fatalf("the cycle sent %d components, want %d: each once and the victim's %d again", sent, want, victimComps)
	}
}
