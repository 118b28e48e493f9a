package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

func TestFlowKeyReverseIsInvolution(t *testing.T) {
	f := func(src, dst int32, sp, dp uint16, dscp uint8) bool {
		k := FlowKey{Src: topo.NodeID(src), Dst: topo.NodeID(dst), SrcPort: sp, DstPort: dp, Proto: UDPProto, DSCP: dscp}
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowKeyHashSpreads(t *testing.T) {
	seen := make(map[uint64]bool)
	for p := 0; p < 1000; p++ {
		k := FlowKey{Src: 1, Dst: 2, SrcPort: uint16(p), DstPort: 7, Proto: UDPProto}
		seen[k.Hash()] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("hash collisions: %d distinct of 1000", len(seen))
	}
}

func TestLossModels(t *testing.T) {
	f := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 7}
	if (FullLoss{}).DropProb(f) != 1 || (FullLoss{}).MeanRate() != 1 {
		t.Error("FullLoss wrong")
	}
	r := RandomLoss{P: 0.25}
	if r.DropProb(f) != 0.25 || r.MeanRate() != 0.25 {
		t.Error("RandomLoss wrong")
	}
	d := DeterministicLoss{Buckets: 0x0000FFFF, Seed: 42}
	if d.MeanRate() != 0.5 {
		t.Errorf("DeterministicLoss mean rate %v, want 0.5", d.MeanRate())
	}
	// Deterministic: same flow always same fate.
	if d.DropProb(f) != d.DropProb(f) {
		t.Error("deterministic loss not deterministic")
	}
	// Across many flows, the drop fraction approaches the mask fraction.
	dropped := 0
	const n = 4000
	for p := 0; p < n; p++ {
		k := FlowKey{Src: 3, Dst: 9, SrcPort: uint16(p), DstPort: 7}
		if d.DropProb(k) == 1 {
			dropped++
		}
	}
	frac := float64(dropped) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("blackhole hit fraction %.3f, want ~0.5", frac)
	}
	if (FullLoss{Gray: true}).Silent() != true || (FullLoss{}).Silent() != false {
		t.Error("Silent flag wrong")
	}
	for _, k := range []LossKind{FullLossKind, DeterministicKind, RandomKind} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

func TestGenerateScenario(t *testing.T) {
	f := topo.MustFattree(4)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 5} {
		cfg := DefaultFailureConfig()
		cfg.Failures = n
		s, err := Generate(f.Topology, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := countFaults(s); got != n {
			t.Fatalf("scenario has %d fault events, want %d", got, n)
		}
		if len(s.BadLinks()) == 0 {
			t.Fatal("no bad links")
		}
		for _, l := range s.BadLinks() {
			if _, ok := s.Model(l); !ok {
				t.Fatalf("BadLinks lists %d but Model misses it", l)
			}
		}
	}
}

func TestGenerateScenarioValidation(t *testing.T) {
	f := topo.MustFattree(4)
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(f.Topology, FailureConfig{Failures: 0}, rng); err == nil {
		t.Error("zero failures accepted")
	}
}

func TestGenerateSwitchFailureFailsAllLinks(t *testing.T) {
	f := topo.MustFattree(4)
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultFailureConfig()
	cfg.Failures = 1
	cfg.SwitchFrac = 1 // force switch faults
	s, err := Generate(f.Topology, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	sw := s.Failures[0].FromSwitch
	if sw < 0 {
		t.Fatal("expected a switch fault")
	}
	if len(s.Failures) != f.Degree(sw) {
		t.Fatalf("switch fault failed %d links, switch degree is %d", len(s.Failures), f.Degree(sw))
	}
}

func TestProbeOnceFullLoss(t *testing.T) {
	f := topo.MustFattree(4)
	links := f.PathLinks(f.ToRAt(0, 0), f.ToRAt(1, 0), 0, nil)
	n := NewNetwork(f.Topology, NewScenario(Failure{Link: links[1], Model: FullLoss{}, FromSwitch: -1}))
	rng := rand.New(rand.NewSource(1))
	fk := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 7, Proto: UDPProto}
	if n.ProbeOnce(links, fk, rng) {
		t.Fatal("probe survived a full-loss link")
	}
	// A disjoint path is unaffected.
	other := f.PathLinks(f.ToRAt(2, 0), f.ToRAt(3, 0), 3, nil)
	if !n.ProbeOnce(other, fk, rng) {
		t.Fatal("probe lost on a healthy path")
	}
}

func TestProbePathRandomLossRate(t *testing.T) {
	f := topo.MustFattree(4)
	links := f.PathLinks(f.ToRAt(0, 0), f.ToRAt(1, 0), 0, nil)
	n := NewNetwork(f.Topology, NewScenario(Failure{Link: links[0], Model: RandomLoss{P: 0.2}, FromSwitch: -1}))
	rng := rand.New(rand.NewSource(7))
	fk := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 7, Proto: UDPProto}
	lost := n.ProbePath(links, fk, 20000, 16, rng)
	// Probe + echo both cross the bad link: loss ~ 1-(0.8)^2 = 0.36.
	got := float64(lost) / 20000
	if got < 0.32 || got > 0.40 {
		t.Errorf("loss fraction %.3f, want ~0.36", got)
	}
}

func TestProbePathBlackholePartial(t *testing.T) {
	f := topo.MustFattree(4)
	links := f.PathLinks(f.ToRAt(0, 0), f.ToRAt(1, 0), 0, nil)
	n := NewNetwork(f.Topology, NewScenario(Failure{
		Link: links[1], Model: DeterministicLoss{Buckets: 0x000000FF, Seed: 99}, FromSwitch: -1,
	}))
	rng := rand.New(rand.NewSource(7))
	fk := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 7, Proto: UDPProto}
	lost := n.ProbePath(links, fk, 1600, 16, rng)
	// 8/32 buckets blackholed; port rotation gives 16 flows forward and 16
	// reverse; expect a partial, non-zero, non-total loss.
	if lost == 0 || lost == 1600 {
		t.Fatalf("blackhole lost %d of 1600, want partial", lost)
	}
}

func TestCountersSkipGrayFailures(t *testing.T) {
	f := topo.MustFattree(4)
	links := f.PathLinks(f.ToRAt(0, 0), f.ToRAt(1, 0), 0, nil)
	rng := rand.New(rand.NewSource(1))
	fk := FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 7, Proto: UDPProto}

	loud := NewNetwork(f.Topology, NewScenario(Failure{Link: links[0], Model: FullLoss{}, FromSwitch: -1}))
	loud.ProbePath(links, fk, 100, 16, rng)
	if loud.Counters[links[0]] == 0 {
		t.Fatal("loud failure left no counter trace")
	}

	gray := NewNetwork(f.Topology, NewScenario(Failure{Link: links[0], Model: FullLoss{Gray: true}, FromSwitch: -1}))
	gray.ProbePath(links, fk, 100, 16, rng)
	if gray.Counters[links[0]] != 0 {
		t.Fatal("gray failure incremented counters — SNMP would see it")
	}
}

// TestEndToEndLocalization is the integration test of the whole detection
// pipeline at simulator level: PMC builds a (3,1) matrix on Fattree(4),
// a failure is injected, a window is simulated, PLL localizes it.
func TestEndToEndLocalization(t *testing.T) {
	f := topo.MustFattree(4)
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 3, Beta: 1, Ablate: pmc.NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	probes := route.NewProbes(ps, res.Selected, f.NumLinks())

	rng := rand.New(rand.NewSource(11))
	hits, trials := 0, 30
	for i := 0; i < trials; i++ {
		bad := f.SwitchLinks()[rng.Intn(len(f.SwitchLinks()))]
		scen := NewScenario(Failure{Link: bad, Model: FullLoss{}, FromSwitch: -1})
		n := NewNetwork(f.Topology, scen)
		obs := SimulateWindow(n, probes, ProbeWindowConfig{ProbesPerPath: 100}, rng)
		lr, err := pll.Localize(probes, obs, pll.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := lr.BadLinks()
		if len(got) == 1 && got[0] == bad {
			hits++
		}
	}
	if hits < trials*9/10 {
		t.Fatalf("full-loss localization hit %d of %d, want >= 90%%", hits, trials)
	}
}

func TestGenerateLoadAndLatency(t *testing.T) {
	f := topo.MustFattree(4)
	rng := rand.New(rand.NewSource(5))
	load, err := GenerateLoad(f, DefaultWorkloadConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(load.BytesPerSec) == 0 {
		t.Fatal("empty load")
	}
	if _, err := GenerateLoad(f, WorkloadConfig{}, rng); err == nil {
		t.Error("zero config accepted")
	}

	m := DefaultLatencyModel()
	src, dst := f.ServerID[0][0][0], f.ServerID[1][0][0]
	links, _ := route.FattreeServerPath(f, src, dst, 0)
	rtts := m.RTTSamples(links, load, 200, rng)
	mean := time.Duration(0)
	for _, r := range rtts {
		mean += r
	}
	mean /= time.Duration(len(rtts))
	// 6 links x 2 directions x >=20us base each.
	if mean < 240*time.Microsecond {
		t.Errorf("mean RTT %v below the base-delay floor", mean)
	}
	if mean > 10*time.Millisecond {
		t.Errorf("mean RTT %v absurdly high for an idle-ish fabric", mean)
	}
	if j := Jitter(rtts); j <= 0 {
		t.Errorf("jitter %v, want positive under queueing noise", j)
	}
	if Jitter(rtts[:1]) != 0 {
		t.Error("jitter of a single sample should be 0")
	}
}

// TestLatencyGrowsWithLoad: queueing delay must increase with utilization.
func TestLatencyGrowsWithLoad(t *testing.T) {
	f := topo.MustFattree(4)
	m := DefaultLatencyModel()
	rng := rand.New(rand.NewSource(9))
	src, dst := f.ServerID[0][0][0], f.ServerID[1][0][0]
	links, _ := route.FattreeServerPath(f, src, dst, 0)

	idle := NewLoad()
	busy := NewLoad()
	busy.Add(links, 100e6) // 800 Mbps on every hop

	meanOf := func(ld *Load) float64 {
		s := 0.0
		for i := 0; i < 400; i++ {
			s += float64(m.RTT(links, ld, rng))
		}
		return s / 400
	}
	if meanOf(busy) <= meanOf(idle)*1.05 {
		t.Error("80% utilization did not raise RTT")
	}
}

func TestLogUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		v := logUniform(1e-4, 1, rng)
		if v < 1e-4 || v > 1 {
			t.Fatalf("logUniform out of bounds: %v", v)
		}
	}
	if logUniform(0, 1, rng) != 0 {
		t.Error("degenerate lo should return lo")
	}
	// Log-uniform median of [1e-4, 1] is 1e-2.
	below := 0
	for i := 0; i < 2000; i++ {
		if logUniform(1e-4, 1, rng) < 1e-2 {
			below++
		}
	}
	if math.Abs(float64(below)/2000-0.5) > 0.05 {
		t.Errorf("log-uniform median off: %d of 2000 below 1e-2", below)
	}
}
