package route_test

import (
	"testing"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// TestColdCycleBuildsNothingItDoesNotServe: a controller's first cycle with
// nothing down reads neither the churn index nor the matrix fingerprint —
// its in-process shards share the coordinator's matrix — so it builds
// neither. The placement view still reads the fingerprint, on demand.
func TestColdCycleBuildsNothingItDoesNotServe(t *testing.T) {
	index0, sig0 := route.Built()
	ctl := control.New(topo.MustFattree(8), control.DefaultConfig())
	defer ctl.Close()
	if err := ctl.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	if index, sig := route.Built(); index != index0 || sig != sig0 {
		t.Fatalf("a cold cycle built %d component indexes and %d signatures, want none", index-index0, sig-sig0)
	}
	if ctl.Coordinator().MatrixSig() == 0 {
		t.Fatal("zero matrix signature")
	}
	if _, sig := route.Built(); sig != sig0+1 {
		t.Fatalf("the placement view computed %d signatures, want 1", sig-sig0)
	}
}
