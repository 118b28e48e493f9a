package shardrpc

import (
	"errors"
	"math/rand"
	"testing"
)

// reportsEqual compares field by field, treating nil and empty Results as
// equal (the reuse decoder keeps capacity, so it yields an empty slice
// where a fresh decode yields nil).
func reportsEqual(a, b Report) bool {
	if a.Node != b.Node || a.Version != b.Version || a.EndNS != b.EndNS ||
		len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// TestReportRoundTrip: decode(encode(x)) == x for randomized kind-5
// reports, and the reuse decode — the diagnoser's ingest path decodes
// every POST into one Report — leaves no stale results behind when the
// struct previously held a larger frame.
func TestReportRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var reused Report
	for i := 0; i < 200; i++ {
		want := randReport(r)
		enc := want.EncodeBinary()
		got, err := DecodeReportBinary(enc, 0)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reportsEqual(*got, want) {
			t.Fatalf("case %d: decode mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		if err := reused.DecodeBinary(enc, 0); err != nil {
			t.Fatalf("case %d: reuse decode: %v", i, err)
		}
		if !reportsEqual(reused, want) {
			t.Fatalf("case %d: reuse decode mismatch:\n got %+v\nwant %+v", i, reused, want)
		}
	}
}

// TestReportFrameRejected pins the structural guards of the report frame:
// every malformed header or length answers an error, a declared payload
// past the budget is errFrameTooLarge (the diagnoser maps it to 413), and
// a failed decode never panics on the reused struct.
func TestReportFrameRejected(t *testing.T) {
	rep := Report{Node: 7, Version: 3, EndNS: 1 << 40, Results: []ReportResult{
		{PathID: 2, Sent: 60, Lost: 1, MeanRTTNS: 40_000, JitterNS: 900, ECNFrac: 0.25},
		{PathID: 9, Sent: 60},
	}}
	valid := rep.EncodeBinary()
	relabel := func(i int, b byte) []byte {
		frame := append([]byte(nil), valid...)
		frame[i] = b
		return frame
	}
	for _, tc := range []struct {
		name   string
		frame  []byte
		budget int64
	}{
		{"shortHeader", valid[:3], 0},
		{"garbageMagic", relabel(0, 0xFF), 0},
		{"wrongVersion", relabel(2, BinaryVersion+1), 0},
		{"constructKind", relabel(3, kindConstructReq), 0},
		{"retiredSummaryKind", relabel(3, 6), 0},
		{"truncated", valid[:len(valid)-1], 0},
		{"trailingGarbage", append(append([]byte(nil), valid...), 0), 0},
		{"overBudget", valid, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused := rep
			reused.Results = append([]ReportResult(nil), rep.Results...)
			err := reused.DecodeBinary(tc.frame, tc.budget)
			if err == nil {
				t.Fatalf("decoded %+v", reused)
			}
			if tc.budget > 0 && !errors.Is(err, errFrameTooLarge) {
				t.Fatalf("over-budget frame: %v, want errFrameTooLarge", err)
			}
		})
	}
	got, err := DecodeReportBinary(valid, int64(len(valid)))
	if err != nil || !reportsEqual(*got, rep) {
		t.Fatalf("valid frame under an exact budget: %+v, %v", got, err)
	}
}
