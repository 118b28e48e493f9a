package shardrpc

import (
	"reflect"
	"testing"

	"github.com/detector-net/detector/internal/topo"
)

func samplePinglistDelta() *PinglistDelta {
	return &PinglistDelta{
		Node:        42,
		FromVersion: 3,
		Version:     4,
		RatePPS:     10,
		WindowMS:    30000,
		ReportURL:   "http://diag:8080/report",
		Removed:     []uint32{2, 7, 19},
		Added: []PingEntry{
			{PathID: 5, Route: []topo.NodeID{42, 128, 200, 130, 47}, FlowLabels: []uint32{33434, 33435}, DSCP: 46},
			{PathID: 19, Route: []topo.NodeID{42, 128, 57}, FlowLabels: []uint32{33434}},
			{PathID: 33, Route: []topo.NodeID{42, 128, 201, 131, 88}, DSCP: 8},
		},
	}
}

// TestPinglistDeltaRoundTrip pins the kind-7 frame: encode → decode must be
// the identity, for both an incremental delta and a full snapshot.
func TestPinglistDeltaRoundTrip(t *testing.T) {
	for name, d := range map[string]*PinglistDelta{
		"delta": samplePinglistDelta(),
		"snapshot": {
			Node: 7, Version: 1, RatePPS: 10, WindowMS: 1000,
			ReportURL: "http://diag/report",
			Added: []PingEntry{
				{PathID: 0, Route: []topo.NodeID{7, 3, 9}, FlowLabels: []uint32{1, 2, 3}},
				{PathID: 1, Route: []topo.NodeID{7, 3, 10}},
			},
		},
		"removed-only": {Node: 1, FromVersion: 5, Version: 6, Removed: []uint32{0, 1, 2}},
	} {
		frame := d.EncodeBinary()
		if kind := frame[3]; kind != kindPinglistDelta {
			t.Fatalf("%s: frame kind %d, want %d", name, kind, kindPinglistDelta)
		}
		got, err := DecodePinglistDeltaBinary(frame, 1<<20)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// Decode normalizes empty sequences to nil-or-empty; compare through
		// a re-encode as well as field equality on the populated parts.
		if got.Node != d.Node || got.FromVersion != d.FromVersion || got.Version != d.Version ||
			got.RatePPS != d.RatePPS || got.WindowMS != d.WindowMS || got.ReportURL != d.ReportURL {
			t.Fatalf("%s: header mismatch: %+v vs %+v", name, got, d)
		}
		if len(got.Removed) != len(d.Removed) || (len(d.Removed) > 0 && !reflect.DeepEqual(got.Removed, d.Removed)) {
			t.Fatalf("%s: removed mismatch: %v vs %v", name, got.Removed, d.Removed)
		}
		if !reflect.DeepEqual(got.Added, d.Added) {
			t.Fatalf("%s: added mismatch: %+v vs %+v", name, got.Added, d.Added)
		}
		if re := got.EncodeBinary(); !reflect.DeepEqual(re, frame) {
			t.Fatalf("%s: re-encode is not byte-identical (%d vs %d bytes)", name, len(re), len(frame))
		}
	}
}

// TestPinglistDeltaRejects pins the decoder's structural validation.
func TestPinglistDeltaRejects(t *testing.T) {
	good := samplePinglistDelta().EncodeBinary()

	// Truncations at every byte boundary must error, never panic.
	for i := 0; i < len(good); i++ {
		var d PinglistDelta
		if err := d.DecodeBinary(good[:i], 1<<20); err == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly", i)
		}
	}

	// Trailing garbage.
	var d PinglistDelta
	bad := append(append([]byte(nil), good...), 0x00)
	// Fix up the frame length so the payload includes the extra byte.
	bad2 := (&PinglistDelta{}).appendTrailing(good)
	if bad2 != nil {
		if err := d.DecodeBinary(bad2, 1<<20); err == nil {
			t.Fatal("trailing payload byte decoded cleanly")
		}
	}
	_ = bad

	// Version not past base.
	stale := samplePinglistDelta()
	stale.Version = stale.FromVersion
	if err := d.DecodeBinary(stale.EncodeBinary(), 1<<20); err == nil {
		t.Fatal("version == base decoded cleanly")
	}

	// Oversized payload budget.
	if err := d.DecodeBinary(good, 8); err == nil {
		t.Fatal("payload over budget decoded cleanly")
	}

	// Wrong kind.
	rep := Report{Node: 1, Version: 1}
	if err := d.DecodeBinary(rep.EncodeBinary(), 1<<20); err == nil {
		t.Fatal("report frame decoded as pinglist delta")
	}
}

// appendTrailing rebuilds a frame with one extra payload byte (helper for
// the trailing-bytes rejection case).
func (*PinglistDelta) appendTrailing(frame []byte) []byte {
	payload, err := openFrame(frame, kindPinglistDelta, 1<<20)
	if err != nil {
		return nil
	}
	grown := append(append([]byte(nil), payload...), 0x00)
	return sealFrame(kindPinglistDelta, grown)
}

// FuzzPinglistDeltaDecode drives arbitrary bytes through the decoder: it
// must reject or round-trip, never panic, and anything it accepts must
// re-encode to a decodable frame with the same content.
func FuzzPinglistDeltaDecode(f *testing.F) {
	f.Add(samplePinglistDelta().EncodeBinary())
	f.Add((&PinglistDelta{Node: 1, Version: 2, FromVersion: 1}).EncodeBinary())
	f.Add([]byte{0xD7, 0xC2, 2, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d PinglistDelta
		if err := d.DecodeBinary(data, 1<<20); err != nil {
			return
		}
		re := d.EncodeBinary()
		var d2 PinglistDelta
		if err := d2.DecodeBinary(re, 1<<20); err != nil {
			t.Fatalf("re-encode of accepted frame rejected: %v", err)
		}
		if !reflect.DeepEqual(d.Removed, d2.Removed) || !reflect.DeepEqual(d.Added, d2.Added) ||
			d.Node != d2.Node || d.Version != d2.Version {
			t.Fatalf("re-encode changed content: %+v vs %+v", d, d2)
		}
	})
}
