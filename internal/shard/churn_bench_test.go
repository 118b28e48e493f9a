package shard

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// benchChurnSingleLink measures the incremental recompute path: one full
// construction up front, then per iteration a single-link down-churn, the
// reconstruction (the measured cycle), and a restore. The measured cycle
// dispatches nothing: the coordinator repairs the dirty component from its
// stored pristine selection. A different link of one component churns
// each iteration, so no iteration repeats an earlier one's mask. A
// component's first flap also counts its links' active rows; every
// component takes one before the timer starts, so the timed flaps are
// warm. Five metrics come out:
//
//   - full-critical-path-ms: the cold full cycle's critical path;
//   - first-touch-ms: the mean of those first touches;
//   - churn-apply-ms: the topology diff that precedes the cycle, mean of
//     the last iteration's down and up ApplyChurn;
//   - churn-repair-ms: the single-link cycle's repair in the coordinator
//     (clean components cost nothing);
//   - churn-vs-full-ratio: (apply + repair) / full — the target is ≤ 0.1
//     on Fattree(24), where a single link dirties 1 of 12 components.
func benchChurnSingleLink(b *testing.B, k, shards int) {
	f := topo.MustFattree(k)
	ps := route.NewFattreePaths(f)
	c, err := New(ps, f.NumLinks(), Options{
		Shards:     shards,
		Sequential: true,
		PMC:        pmc.Options{Alpha: 2, Beta: 1, Workers: 1},
		TTL:        time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	full, err := c.Construct()
	if err != nil {
		b.Fatal(err)
	}
	fullCrit := full.CriticalPath
	var first time.Duration
	for _, comp := range slices.Clone(c.comps) {
		l := []topo.LinkID{comp.Links[0]}
		diff, err := c.ApplyChurn(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.ApplyChurn(nil, l); err != nil {
			b.Fatal(err)
		}
		first += diff.IndexTime
	}
	if _, err := c.Construct(); err != nil {
		b.Fatal(err)
	}
	links := slices.Clone(c.comps[0].Links)
	b.ResetTimer()
	var repair, apply time.Duration
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		downStart := time.Now()
		if _, err := c.ApplyChurn([]topo.LinkID{l}, nil); err != nil {
			b.Fatal(err)
		}
		apply = time.Since(downStart)
		res, err := c.Construct()
		if err != nil {
			b.Fatal(err)
		}
		repair = res.Repair
		upStart := time.Now()
		if _, err := c.ApplyChurn(nil, []topo.LinkID{l}); err != nil {
			b.Fatal(err)
		}
		apply = (apply + time.Since(upStart)) / 2
		if _, err := c.Construct(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fullCrit.Microseconds())/1000.0, "full-critical-path-ms")
	b.ReportMetric(float64(first.Microseconds())/1000.0/float64(len(c.comps)), "first-touch-ms")
	b.ReportMetric(float64(apply.Microseconds())/1000.0, "churn-apply-ms")
	b.ReportMetric(float64(repair.Microseconds())/1000.0, "churn-repair-ms")
	if fullCrit > 0 {
		b.ReportMetric(float64(apply+repair)/float64(fullCrit), "churn-vs-full-ratio")
	}
}

// BenchmarkChurnSingleLinkFattree16 is the CI churn smoke: single-link
// churn against a full recompute on Fattree(16). A re-solve of the one
// dirty component of 8 put the ratio near 1/8, and once the full cycle
// solved one class instead of 8, near 1/3; a repair brings it down.
func BenchmarkChurnSingleLinkFattree16(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchChurnSingleLink(b, 16, n) })
	}
}

// BenchmarkChurnSingleLinkFattree24 is the scale target: a
// single-link change on Fattree(24) (11.9M candidates, 12 components) must
// complete in ≤ 1/10 of the full-cycle critical path. Not part of the CI
// smoke; run with -benchtime=1x like the Fattree(24) construction bench.
func BenchmarkChurnSingleLinkFattree24(b *testing.B) {
	benchChurnSingleLink(b, 24, 1)
}
