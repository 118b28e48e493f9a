package route_test

import (
	"fmt"
	"testing"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestColdCycleBuildsNothingItDoesNotServe: a controller's first cycle with
// nothing down reads neither the churn index nor the matrix fingerprint —
// its in-process shards share the coordinator's matrix — so it builds
// neither, and of a Fattree(8)'s four components, one class, it stores no
// rows: the class leader's solve and the followers' checks read generated
// rows. The placement view still reads the fingerprint, on demand, from
// generated rows. A flap in the class leader's component or a follower's,
// and the repaired cycle after it, build no index: the rows through the
// link are generated too.
func TestColdCycleBuildsNothingItDoesNotServe(t *testing.T) {
	f := topo.MustFattree(8)
	comps := route.NewFattreePaths(f).PristineComponents()
	for _, ci := range []int{0, 1} {
		t.Run(fmt.Sprintf("flap-in-component-%d", ci), func(t *testing.T) {
			index0, sig0, dec0 := route.Built()
			ctl := control.New(f, control.DefaultConfig())
			defer ctl.Close()
			if err := ctl.RunCycle(nil); err != nil {
				t.Fatal(err)
			}
			if index, sig, dec := route.Built(); index != index0 || sig != sig0 || dec != dec0 {
				t.Fatalf("a cold cycle built %d component indexes, %d signatures and %d kernel decompositions, want none",
					index-index0, sig-sig0, dec-dec0)
			}
			if st := ctl.PMCStats(); st.Components != 4 || st.Classes != 1 {
				t.Fatalf("a cold cycle answered %d components in %d classes, want 4 in 1", st.Components, st.Classes)
			}
			if ctl.Coordinator().MatrixSig() == 0 {
				t.Fatal("zero matrix signature")
			}
			if _, sig, _ := route.Built(); sig != sig0+1 {
				t.Fatalf("the placement view computed %d signatures, want 1", sig-sig0)
			}

			if _, err := ctl.ApplyChurn([]topo.LinkID{comps[ci].Links[0]}, nil); err != nil {
				t.Fatal(err)
			}
			if err := ctl.RunCycle(nil); err != nil {
				t.Fatal(err)
			}
			if index, _, _ := route.Built(); index != index0 {
				t.Fatalf("a flap in component %d built %d component indexes, want none", ci, index-index0)
			}
		})
	}
}

// TestColdStartKernelPasses: a Fattree states its pristine decomposition, so
// a cold differ over it runs no kernel pass; VL2 and BCube state none and
// run exactly one.
func TestColdStartKernelPasses(t *testing.T) {
	f, v, b := topo.MustFattree(8), topo.MustVL2(8, 4, 2), topo.MustBCube(4, 1)
	for _, tc := range []struct {
		name     string
		ps       route.PathSet
		numLinks int
		want     int64
	}{
		{"Fattree(8)", route.NewFattreePaths(f), f.NumLinks(), 0},
		{"VL2(8,4,2)", route.NewVL2Paths(v), v.NumLinks(), 1},
		{"BCube(4,1)", route.NewBCubePaths(b), b.NumLinks(), 1},
	} {
		csr := route.MaterializeCSR(tc.ps)
		_, _, dec0 := route.Built()
		if _, err := route.NewIncremental(csr, tc.numLinks, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, dec := route.Built(); dec-dec0 != tc.want {
			t.Errorf("%s: a cold start ran %d kernel decompositions, want %d", tc.name, dec-dec0, tc.want)
		}
	}
}
