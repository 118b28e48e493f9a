package pll

import (
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// tinyMatrix builds the paper Fig. 3 matrix as probes: p1={0,1}, p2={0,2},
// p3={2} over 3 links.
func tinyMatrix() *route.Probes {
	return route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1},
		{0, 2},
		{2},
	}, 3)
}

func obs(path, sent, lost int) Observation { return Observation{Path: path, Sent: sent, Lost: lost} }

func TestLocalizeSingleFullLoss(t *testing.T) {
	p := tinyMatrix()
	// Link 0 fails fully: p1 and p2 lose everything, p3 clean.
	res, err := Localize(p, []Observation{obs(0, 100, 100), obs(1, 100, 100), obs(2, 100, 0)}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := res.BadLinks()
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("localized %v, want [0]", bad)
	}
	if res.Bad[0].Rate < 0.99 {
		t.Errorf("estimated rate %.3f, want ~1.0", res.Bad[0].Rate)
	}
	if res.UnexplainedPaths != 0 {
		t.Errorf("%d unexplained paths", res.UnexplainedPaths)
	}
}

func TestLocalizeDistinguishesLinks(t *testing.T) {
	p := tinyMatrix()
	// Only p1 lossy -> link 1 (the only link unique to p1).
	res, err := Localize(p, []Observation{obs(0, 100, 40), obs(1, 100, 0), obs(2, 100, 0)}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := res.BadLinks()
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("localized %v, want [1]", bad)
	}
}

// TestHitRatioHandlesPartialLoss is the §5.2 scenario: a blackhole on link 0
// drops only p1's flows; p2 (also over link 0) stays clean. Tomo exonerates
// link 0 because of p2 and blames link 1; PLL's 0.6 threshold... with 1 of 2
// paths lossy the hit ratio is 0.5 < 0.6, so PLL also falls back to link 1
// here — the threshold matters when most paths through the link see loss.
// Use a matrix where 2 of 3 paths through the blackholed link are lossy.
func TestHitRatioHandlesPartialLoss(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1}, // lossy
		{0, 2}, // lossy
		{0, 3}, // clean: blackhole misses this path's flows
		{3},    // clean
	}, 4)
	observations := []Observation{
		obs(0, 100, 50), obs(1, 100, 50), obs(2, 100, 0), obs(3, 100, 0),
	}
	res, err := Localize(p, observations, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := res.BadLinks()
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("PLL localized %v, want [0] (hit ratio 2/3 >= 0.6)", bad)
	}

	// Tomo on the same input exonerates link 0 (clean path 2 crosses it)
	// and must blame links 1 and 2 instead — the partial-loss failure mode
	// the paper designs PLL around.
	tomoBad, err := NewTomo().Localize(p, observations)
	if err != nil {
		t.Fatal(err)
	}
	if len(tomoBad) != 2 || tomoBad[0] != 1 || tomoBad[1] != 2 {
		t.Fatalf("Tomo localized %v, want [1 2] (exonerating the blackholed link)", tomoBad)
	}
}

func TestLocalizeNoiseFiltered(t *testing.T) {
	p := tinyMatrix()
	// Sub-floor loss ratios (1/10000 < 1e-3) are ambient noise, not failures.
	res, err := Localize(p, []Observation{obs(0, 10000, 1), obs(1, 10000, 1), obs(2, 10000, 0)}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bad) != 0 {
		t.Fatalf("localized %v from ambient noise", res.BadLinks())
	}
}

func TestLocalizeUnhealthyPingerDropped(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {2}}, 3)
	p.Src[0], p.Dst[0] = 100, 101
	p.Src[1], p.Dst[1] = 102, 103
	cfg := DefaultConfig()
	cfg.Unhealthy = map[topo.NodeID]bool{100: true}
	// Path 0's "losses" come from a rebooting pinger; they must be ignored.
	res, err := Localize(p, []Observation{obs(0, 100, 100), obs(1, 100, 0)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bad) != 0 {
		t.Fatalf("localized %v from an unhealthy pinger's reports", res.BadLinks())
	}
}

func TestLocalizeMultipleFailuresAcrossComponents(t *testing.T) {
	// Two disjoint components: links {0,1} and {10,11}.
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1}, {0}, // component A
		{10, 11}, {11}, // component B
	}, 12)
	res, err := Localize(p, []Observation{
		obs(0, 100, 80), obs(1, 100, 80), // link 0 bad
		obs(2, 100, 60), obs(3, 100, 0), // link 10 bad
	}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := res.BadLinks()
	if len(bad) != 2 || bad[0] != 0 || bad[1] != 10 {
		t.Fatalf("localized %v, want [0 10]", bad)
	}
}

func TestLocalizeInvalidConfig(t *testing.T) {
	p := tinyMatrix()
	if _, err := Localize(p, nil, Config{HitRatio: 0}); err == nil {
		t.Error("zero hit ratio accepted")
	}
	if _, err := Localize(p, nil, Config{HitRatio: 1.5}); err == nil {
		t.Error("hit ratio > 1 accepted")
	}
}

func TestLocalizeEmptyAndCleanWindows(t *testing.T) {
	p := tinyMatrix()
	res, err := Localize(p, nil, DefaultConfig())
	if err != nil || len(res.Bad) != 0 {
		t.Fatalf("empty window: %v %v", res.BadLinks(), err)
	}
	res, err = Localize(p, []Observation{obs(0, 50, 0), obs(1, 50, 0), obs(2, 50, 0)}, DefaultConfig())
	if err != nil || len(res.Bad) != 0 {
		t.Fatalf("clean window: %v %v", res.BadLinks(), err)
	}
}

// TestLocalizeSkipsLinklessRow: a lossy observation on a row that crosses
// no link is dropped in preprocessing, like an out-of-range one, instead of
// reaching the component split.
func TestLocalizeSkipsLinklessRow(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{{0, 1}, {}, {1, 2}}, 3)
	res, err := Localize(p, []Observation{obs(0, 100, 30), obs(1, 100, 30), obs(2, 100, 30)}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.LossyPaths != 2 || len(res.Bad) != 1 || res.Bad[0].Link != 1 {
		t.Fatalf("lossy=%d bad=%v, want 2 lossy rows explained by link 1", res.LossyPaths, res.BadLinks())
	}
}

func TestSCORELocalizesByHitRatio(t *testing.T) {
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1}, {0, 2}, {1}, {2},
	}, 3)
	// Link 0: 2/2 paths lossy. Links 1,2: 1/2 lossy each.
	bad, err := NewSCORE().Localize(p, []Observation{
		obs(0, 100, 30), obs(1, 100, 30), obs(2, 100, 0), obs(3, 100, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("SCORE localized %v, want [0]", bad)
	}
}

func TestOMPLocalizesSingleLink(t *testing.T) {
	p := tinyMatrix()
	bad, err := NewOMP().Localize(p, []Observation{
		obs(0, 1000, 200), obs(1, 1000, 210), obs(2, 1000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 0 {
		t.Fatalf("OMP localized %v, want [0]", bad)
	}
}

func TestOMPCleanWindow(t *testing.T) {
	p := tinyMatrix()
	bad, err := NewOMP().Localize(p, []Observation{obs(0, 100, 0), obs(1, 100, 0)})
	if err != nil || len(bad) != 0 {
		t.Fatalf("OMP on clean window: %v %v", bad, err)
	}
}

func TestOMPTwoLinks(t *testing.T) {
	// y is separable: links 1 and 2 both lossy, link 0 clean.
	p := route.NewProbesFromLinks([][]topo.LinkID{
		{0, 1}, {0, 2}, {1}, {2}, {0},
	}, 3)
	bad, err := NewOMP().Localize(p, []Observation{
		obs(0, 1000, 300), obs(1, 1000, 150), obs(2, 1000, 300), obs(3, 1000, 150), obs(4, 1000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 2 {
		t.Fatalf("OMP localized %v, want [1 2]", bad)
	}
}

func TestLocalizerNames(t *testing.T) {
	for _, l := range []Localizer{NewPLL(), NewTomo(), NewSCORE(), NewOMP()} {
		if l.Name() == "" {
			t.Errorf("%T has empty name", l)
		}
	}
}
