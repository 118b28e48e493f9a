package expt

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// TestServerLevelSweepSmoke holds the acceptance floors of the
// approximate-partition plane on the matrix shape it exists for: the
// Fattree(16) server-level matrix collapses to one part under the exact
// policy, spreads under the approximate policy, and the merged verdicts
// stay within the gray-failure acceptance band (>=96% accuracy, zero
// false positives) at 1-10 concurrent solid-loss faults.
func TestServerLevelSweepSmoke(t *testing.T) {
	var buf bytes.Buffer
	p := DefaultParams()
	p.Trials = 3
	p.ProbesPerPath = 200
	res, err := ServerLevel(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())

	if res.Exact.Partitions != 1 || res.Exact.Parts != 1 {
		t.Errorf("exact partition = %d parts on %d shards, want the server-level collapse to 1",
			res.Exact.Parts, res.Exact.Partitions)
	}
	if res.Exact.CutLinks != 0 {
		t.Errorf("exact policy cut %d links, want 0", res.Exact.CutLinks)
	}
	if res.Approx.Partitions < 2 {
		t.Errorf("approx partitions = %d, want >= 2 (the policy's whole point)", res.Approx.Partitions)
	}
	if res.Approx.Parts <= res.Exact.Parts {
		t.Errorf("approx parts = %d, want > exact's %d", res.Approx.Parts, res.Exact.Parts)
	}
	if res.Approx.CutLinks == 0 {
		t.Error("approx policy cut no links on a server-level matrix; the partition is vacuous")
	}
	if len(res.Rows) != len(ScenarioCounts) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(ScenarioCounts))
	}
	for _, r := range res.Rows {
		if r.Accuracy < 0.96 {
			t.Errorf("x%d faults: accuracy %.4f < 0.96", r.Failed, r.Accuracy)
		}
		if r.FalsePositive != 0 {
			t.Errorf("x%d faults: false-positive ratio %.4f, want 0", r.Failed, r.FalsePositive)
		}
		if r.Disagreements > res.DisagreementBound*p.Trials {
			t.Errorf("x%d faults: %d pooled disagreements exceed bound %d x %d trials",
				r.Failed, r.Disagreements, res.DisagreementBound, p.Trials)
		}
	}
}

// BenchmarkServerLevelLocalize compares one localization window on the
// Fattree(16) server-level matrix: unsharded global PLL, the component
// plane (one partition — sharding is structurally a no-op) and the interior
// plane (spread across four slots, reconciliation merge included).
func BenchmarkServerLevelLocalize(b *testing.B) {
	f, probes, err := serverLevelMatrix(16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var covered []topo.LinkID
	for l := 0; l < probes.NumLinks; l++ {
		if len(probes.PathsThrough(topo.LinkID(l))) > 0 {
			covered = append(covered, topo.LinkID(l))
		}
	}
	scen := solidLossScenario(covered, 5, rng)
	net := sim.NewNetwork(f.Topology, scen)
	obs := sim.SimulateWindow(net, probes, sim.ProbeWindowConfig{ProbesPerPath: 200}, rng)
	cfg := pll.DefaultConfig()
	alive := []int{0, 1, 2, 3}

	b.Run("unsharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pll.Localize(probes, obs, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, plane := range []struct {
		name string
		pl   *shard.Plane
	}{
		{"component", shard.NewPlane(probes, alive)},
		{"interior", shard.NewPlaneFrom(probes, alive, route.InteriorPartition(probes))},
	} {
		pl := plane.pl
		b.Run(plane.name, func(b *testing.B) {
			b.ReportMetric(float64(pl.Stats().Partitions), "partitions")
			for i := 0; i < b.N; i++ {
				if _, err := pl.Localize(obs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
