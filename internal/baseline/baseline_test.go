package baseline

import (
	"math/rand"
	"testing"

	"github.com/detector-net/detector/internal/eval"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

func buildDetector(t testing.TB, f *topo.Fattree) *Detector {
	t.Helper()
	ps := route.NewFattreePaths(f)
	res, err := pmc.Construct(ps, f.NumLinks(), pmc.Options{Alpha: 3, Beta: 1, Ablate: pmc.NoSymmetry})
	if err != nil {
		t.Fatal(err)
	}
	return NewDetector(f, route.NewProbes(ps, res.Selected, f.NumLinks()))
}

func fullLossOn(f *topo.Fattree, l topo.LinkID) *sim.Network {
	return sim.NewNetwork(f.Topology, sim.NewScenario(sim.Failure{Link: l, Model: sim.FullLoss{}, FromSwitch: -1}))
}

func TestPingmeshPlanShape(t *testing.T) {
	f := topo.MustFattree(4)
	p := NewPingmesh(f)
	// 8 ToRs x C(2,2)=1 intra pair + C(8,2)=28 inter pairs.
	if p.NumPairs() != 8+28 {
		t.Fatalf("pingmesh pairs = %d, want 36", p.NumPairs())
	}
}

func TestNetNORADPlanShape(t *testing.T) {
	f := topo.MustFattree(4)
	nn := NewNetNORAD(f)
	// Pingers: 4 racks in pods 0-1; targets: 8 racks. Pinger and target of
	// the same rack are different servers, so all 32 pairs stand.
	if nn.NumPairs() != 32 {
		t.Fatalf("netnorad pairs = %d, want 32", nn.NumPairs())
	}
}

func TestDetectorLocalizesFullLoss(t *testing.T) {
	f := topo.MustFattree(4)
	d := buildDetector(t, f)
	rng := rand.New(rand.NewSource(1))
	links := f.SwitchLinks()
	hits := 0
	for i := 0; i < 10; i++ {
		bad := links[rng.Intn(len(links))]
		got, sent, err := d.Round(fullLossOn(f, bad), 6000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sent <= 0 {
			t.Fatal("no probes sent")
		}
		c := eval.Compare(got, []topo.LinkID{bad})
		if c.Accuracy() == 1 && c.FalsePositiveRatio() == 0 {
			hits++
		}
	}
	if hits < 9 {
		t.Fatalf("deTector perfect rounds: %d of 10", hits)
	}
}

func TestPingmeshDetectsAndNetbouncerLocalizes(t *testing.T) {
	f := topo.MustFattree(4)
	p := NewPingmesh(f)
	rng := rand.New(rand.NewSource(2))
	links := f.SwitchLinks()
	bad := links[7]
	n := fullLossOn(f, bad)
	suspects, sent := p.Detect(n, 7200, rng)
	if len(suspects) == 0 {
		t.Fatal("pingmesh missed a full-loss link")
	}
	if sent < len(suspects) {
		t.Fatal("probe accounting broken")
	}
	got, extra := p.Netbouncer(n, suspects, -1, rng)
	if extra == 0 {
		t.Fatal("netbouncer sent no probes")
	}
	c := eval.Compare(got, []topo.LinkID{bad})
	if c.TP != 1 {
		t.Fatalf("netbouncer missed the bad link: got %v, truth %d", got, bad)
	}
}

// TestPingmeshMissesTransientFailure is the Table 1 "transient failures"
// row: detection fires during the failure, but the Netbouncer replay a
// window later sees a healthy network and localizes nothing. deTector
// localizes from the detection window itself.
func TestPingmeshMissesTransientFailure(t *testing.T) {
	f := topo.MustFattree(4)
	p := NewPingmesh(f)
	d := buildDetector(t, f)
	rng := rand.New(rand.NewSource(3))
	bad := f.SwitchLinks()[5]
	failed := fullLossOn(f, bad)
	healthy := sim.NewNetwork(f.Topology, nil)

	got, _ := p.Round(failed, healthy, 7200, rng)
	if len(got) != 0 {
		t.Fatalf("pingmesh localized %v from a transient failure it can no longer replay", got)
	}

	dGot, _, err := d.Round(failed, 7200, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := eval.Compare(dGot, []topo.LinkID{bad})
	if c.TP != 1 {
		t.Fatalf("deTector should localize the transient failure in-window, got %v", dGot)
	}
}

func TestNetNORADRoundLocalizes(t *testing.T) {
	f := topo.MustFattree(4)
	nn := NewNetNORAD(f)
	rng := rand.New(rand.NewSource(4))
	bad := f.SwitchLinks()[3]
	n := fullLossOn(f, bad)
	got, sent := nn.Round(n, n, 7200, rng)
	if sent == 0 {
		t.Fatal("no probes sent")
	}
	c := eval.Compare(got, []topo.LinkID{bad})
	if c.TP != 1 {
		t.Fatalf("fbtracert missed the bad link: got %v, truth %d", got, bad)
	}
}

// TestLowRateLossAdvantage is Table 1's "low rate loss" row at small scale:
// with equal budgets, deTector's pinned paths sample the bad link with
// every probe on covering paths, while Pingmesh's ECMP spreads probes over
// parallel paths and often misses a 1.5% loss.
func TestLowRateLossAdvantage(t *testing.T) {
	f := topo.MustFattree(4)
	d := buildDetector(t, f)
	p := NewPingmesh(f)
	rng := rand.New(rand.NewSource(5))
	links := f.SwitchLinks()

	trials := 20
	budget := 3600
	dHit, pHit := 0, 0
	for i := 0; i < trials; i++ {
		bad := links[rng.Intn(len(links))]
		scen := sim.NewScenario(sim.Failure{Link: bad, Model: sim.RandomLoss{P: 0.015}, FromSwitch: -1})
		dn := sim.NewNetwork(f.Topology, scen)
		got, _, err := d.Round(dn, budget, rng)
		if err != nil {
			t.Fatal(err)
		}
		if eval.Compare(got, []topo.LinkID{bad}).TP == 1 {
			dHit++
		}
		pn := sim.NewNetwork(f.Topology, scen)
		pGot, _ := p.Round(pn, pn, budget, rng)
		if eval.Compare(pGot, []topo.LinkID{bad}).TP == 1 {
			pHit++
		}
	}
	if dHit <= pHit {
		t.Fatalf("low-rate loss: deTector hit %d, Pingmesh hit %d — expected deTector ahead", dHit, pHit)
	}
	if dHit < trials*6/10 {
		t.Fatalf("deTector low-rate hit rate too low: %d of %d", dHit, trials)
	}
}

func TestSNMPSeesLoudMissesGray(t *testing.T) {
	f := topo.MustFattree(4)
	s := NewSNMP(f)
	rng := rand.New(rand.NewSource(6))
	bad := f.SwitchLinks()[9]

	loud := fullLossOn(f, bad)
	got := s.Poll(loud, rng)
	found := false
	for _, l := range got {
		if l == bad {
			found = true
		}
	}
	if !found {
		t.Fatalf("SNMP missed a loud full-loss link; got %v", got)
	}

	gray := sim.NewNetwork(f.Topology, sim.NewScenario(sim.Failure{Link: bad, Model: sim.FullLoss{Gray: true}, FromSwitch: -1}))
	if got := s.Poll(gray, rng); len(got) != 0 {
		t.Fatalf("SNMP reported %v for a gray failure", got)
	}
}

func TestParallelServerPaths(t *testing.T) {
	f := topo.MustFattree(4)
	sameEdge := parallelServerPaths(f, f.ServerID[0][0][0], f.ServerID[0][0][1])
	if len(sameEdge) != 1 {
		t.Fatalf("same-edge pair: %d paths, want 1", len(sameEdge))
	}
	interPod := parallelServerPaths(f, f.ServerID[0][0][0], f.ServerID[2][1][0])
	if len(interPod) != f.NumCores() {
		t.Fatalf("inter-pod pair: %d paths, want %d", len(interPod), f.NumCores())
	}
}
