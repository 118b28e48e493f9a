package shardrpc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/topo"
)

// randAscending draws n distinct ascending values in [0, max).
func randAscending(r *rand.Rand, n, max int) []int64 {
	if n > max {
		n = max
	}
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		v := int64(r.Intn(max))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	// Insertion sort is fine at test sizes.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func randConstructRequest(r *rand.Rand) ConstructRequest {
	req := ConstructRequest{
		V:         SchemaVersion,
		MatrixSig: r.Uint64(),
		NumLinks:  1 + r.Intn(1000),
		Opt: PMCOptions{
			Alpha: r.Intn(4), Beta: r.Intn(3),
			CELF: r.Intn(2) == 0, Orbits: r.Intn(2) == 0, NoEvenness: r.Intn(2) == 0,
			Workers: r.Intn(8), MaxElements: r.Intn(1 << 20),
		},
	}
	for c := r.Intn(4); c > 0; c-- {
		links := randAscending(r, 1+r.Intn(20), math.MaxInt32)
		paths := randAscending(r, 1+r.Intn(50), math.MaxInt32)
		comp := Component{Links: int64ToLinks(links)}
		comp.Paths = make([]int32, len(paths))
		for i, p := range paths {
			comp.Paths[i] = int32(p)
		}
		req.Comps = append(req.Comps, comp)
	}
	return req
}

func randConstructResponse(r *rand.Rand) ConstructResponse {
	resp := ConstructResponse{
		V: SchemaVersion,
		Stats: Stats{
			Components: r.Intn(100), Candidates: r.Intn(1 << 20),
			ScoreEvals: int64(r.Uint64() >> 1), Reseeds: r.Intn(100),
			Selected: r.Intn(1 << 16), ElapsedNS: int64(r.Uint64() >> 1),
			CoverageMet: r.Intn(2) == 0, IdentMet: r.Intn(2) == 0,
		},
	}
	if sel := randAscending(r, r.Intn(100), math.MaxInt32); len(sel) > 0 {
		resp.Selected = make([]int, len(sel))
		for i, s := range sel {
			resp.Selected[i] = int(s)
		}
	}
	return resp
}

func randLocalizeRequest(r *rand.Rand) LocalizeRequest {
	req := LocalizeRequest{
		V:        SchemaVersion,
		Sig:      r.Uint64(),
		HitRatio: r.Float64(),
	}
	for _, row := range randAscending(r, r.Intn(6), math.MaxInt32) {
		req.Absent = append(req.Absent, int32(row))
	}
	for _, row := range randAscending(r, r.Intn(12), math.MaxInt32) {
		sent := r.Intn(1000)
		req.Lossy = append(req.Lossy, LossyRow{Row: int(row), Sent: sent, Lost: r.Intn(sent + 1)})
	}
	if r.Intn(2) == 0 {
		req.Matrix = &Matrix{NumLinks: 1 + r.Intn(1<<20)}
		for p := r.Intn(8); p > 0; p-- {
			// Route-ordered links: no ordering guarantee on the wire.
			links := make([]topo.LinkID, 1+r.Intn(8))
			for i := range links {
				links[i] = topo.LinkID(r.Intn(math.MaxInt32))
			}
			req.Matrix.Paths = append(req.Matrix.Paths, links)
		}
	}
	return req
}

func randLocalizeResponse(r *rand.Rand) LocalizeResponse {
	resp := LocalizeResponse{
		V:                SchemaVersion,
		LossyPaths:       r.Intn(1 << 20),
		UnexplainedPaths: r.Intn(1 << 10),
		ElapsedNS:        int64(r.Uint64() >> 1),
	}
	for _, l := range randAscending(r, r.Intn(6), math.MaxInt32) {
		resp.Bad = append(resp.Bad, Verdict{
			Link: topo.LinkID(l), Rate: r.Float64(), Explained: r.Intn(1 << 16),
		})
	}
	return resp
}

func randReport(r *rand.Rand) Report {
	rep := Report{
		Node:    topo.NodeID(r.Intn(math.MaxInt32)),
		Version: r.Intn(1 << 20),
		EndNS:   int64(r.Uint64() >> 1),
	}
	var pathID uint32
	for n := r.Intn(12); n > 0; n-- {
		// Nearly ascending path IDs with occasional jumps, as pinglists
		// produce.
		pathID += uint32(r.Intn(100))
		sent := r.Intn(1000)
		res := ReportResult{PathID: pathID, Sent: sent, Lost: r.Intn(sent + 1)}
		if r.Intn(4) > 0 {
			res.MeanRTTNS = int64(r.Intn(1 << 30))
			res.JitterNS = int64(r.Intn(1 << 20))
			res.ECNFrac = r.Float64()
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// TestBinaryMatchesJSONRoundTrip is the codec differential: for every
// payload kind, decode(encodeBinary(x)) must equal decode(encodeJSON(x))
// field for field — the binary codec may never perturb a value the JSON
// wire would have carried exactly, floats included.
func TestBinaryMatchesJSONRoundTrip(t *testing.T) {
	const rounds = 300
	r := rand.New(rand.NewSource(42))
	jsonRT := func(in, out any) {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("json encode: %v", err)
		}
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("json decode: %v", err)
		}
	}
	for i := 0; i < rounds; i++ {
		cr := randConstructRequest(r)
		var viaJSON ConstructRequest
		jsonRT(&cr, &viaJSON)
		viaBin, err := decodeConstructBinary(cr.encodeBinary(), 0)
		if err != nil {
			t.Fatalf("round %d: construct request binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(*viaBin, viaJSON) {
			t.Fatalf("round %d: construct request diverges:\nbinary: %+v\njson:   %+v", i, *viaBin, viaJSON)
		}

		resp := randConstructResponse(r)
		var respJSON ConstructResponse
		jsonRT(&resp, &respJSON)
		respBin, err := decodeConstructRespBinary(resp.encodeBinary(), 0)
		if err != nil {
			t.Fatalf("round %d: construct response binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(*respBin, respJSON) {
			t.Fatalf("round %d: construct response diverges:\nbinary: %+v\njson:   %+v", i, *respBin, respJSON)
		}

		lr := randLocalizeRequest(r)
		var lrJSON LocalizeRequest
		jsonRT(&lr, &lrJSON)
		lrBin, err := decodeLocalizeBinary(lr.encodeBinary(), 0)
		if err != nil {
			t.Fatalf("round %d: localize request binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(*lrBin, lrJSON) {
			t.Fatalf("round %d: localize request diverges:\nbinary: %+v\njson:   %+v", i, *lrBin, lrJSON)
		}

		lresp := randLocalizeResponse(r)
		var lrespJSON LocalizeResponse
		jsonRT(&lresp, &lrespJSON)
		lrespBin, err := decodeLocalizeRespBinary(lresp.encodeBinary(), 0)
		if err != nil {
			t.Fatalf("round %d: localize response binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(*lrespBin, lrespJSON) {
			t.Fatalf("round %d: localize response diverges:\nbinary: %+v\njson:   %+v", i, *lrespBin, lrespJSON)
		}

		rep := randReport(r)
		var repJSON Report
		jsonRT(&rep, &repJSON)
		repBin, err := DecodeReportBinary(rep.EncodeBinary(), 0)
		if err != nil {
			t.Fatalf("round %d: report binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(*repBin, repJSON) {
			t.Fatalf("round %d: report diverges:\nbinary: %+v\njson:   %+v", i, *repBin, repJSON)
		}
	}
}

// TestBinaryGoldenEdgeCases pins the awkward corners: empty payloads,
// int32 extremes, exact float bit patterns.
func TestBinaryGoldenEdgeCases(t *testing.T) {
	empty := ConstructRequest{V: SchemaVersion}
	got, err := decodeConstructBinary(empty.encodeBinary(), 0)
	if err != nil {
		t.Fatalf("empty construct: %v", err)
	}
	if !reflect.DeepEqual(*got, empty) {
		t.Fatalf("empty construct round trip: %+v", *got)
	}

	extreme := ConstructRequest{
		V: SchemaVersion, MatrixSig: math.MaxUint64, NumLinks: math.MaxInt32,
		Opt: PMCOptions{Alpha: math.MaxInt32, Beta: math.MaxInt32, Workers: math.MaxInt32, MaxElements: math.MaxInt32},
		Comps: []Component{{
			Links: []topo.LinkID{0, 1, math.MaxInt32 - 1},
			Paths: []int32{0, math.MaxInt32 - 1},
		}},
	}
	got, err = decodeConstructBinary(extreme.encodeBinary(), 0)
	if err != nil {
		t.Fatalf("extreme construct: %v", err)
	}
	if !reflect.DeepEqual(*got, extreme) {
		t.Fatalf("extreme construct round trip: %+v", *got)
	}

	// The float that famously does not survive a decimal detour at low
	// precision; the codec carries raw bits, so equality is exact. The
	// empty window, with and without an (empty) matrix section, round
	// trips as itself.
	for _, lr := range []LocalizeRequest{
		{V: SchemaVersion, Sig: math.MaxUint64, HitRatio: 0.1 + 0.2},
		{V: SchemaVersion, HitRatio: math.SmallestNonzeroFloat64, Matrix: &Matrix{NumLinks: math.MaxInt32}},
		{V: SchemaVersion, HitRatio: math.Copysign(0, -1),
			Absent: []int32{0, math.MaxInt32 - 1},
			Lossy:  []LossyRow{{Row: math.MaxInt32, Sent: math.MaxInt32, Lost: math.MaxInt32}}},
	} {
		gotLR, err := decodeLocalizeBinary(lr.encodeBinary(), 0)
		if err != nil {
			t.Fatalf("localize %+v: %v", lr, err)
		}
		if math.Float64bits(gotLR.HitRatio) != math.Float64bits(lr.HitRatio) {
			t.Fatalf("float bits perturbed: %v vs %v", gotLR.HitRatio, lr.HitRatio)
		}
		if !reflect.DeepEqual(*gotLR, lr) {
			t.Fatalf("localize round trip:\ngot:  %+v\nwant: %+v", *gotLR, lr)
		}
	}

	// Report extremes: signed latency fields at the int64 edges (malformed
	// on the wire is the validator's problem, not the codec's), awkward
	// ECN float bit patterns, empty results.
	rep := Report{Node: math.MaxInt32, Version: math.MaxInt32, EndNS: math.MinInt64,
		Results: []ReportResult{
			{PathID: math.MaxUint32 >> 1, Sent: math.MaxInt32, Lost: math.MaxInt32,
				MeanRTTNS: math.MinInt64, JitterNS: math.MaxInt64, ECNFrac: math.Copysign(0, -1)},
			{PathID: 0, ECNFrac: math.SmallestNonzeroFloat64},
		}}
	gotRep, err := DecodeReportBinary(rep.EncodeBinary(), 0)
	if err != nil {
		t.Fatalf("extreme report: %v", err)
	}
	if !reflect.DeepEqual(*gotRep, rep) {
		t.Fatalf("extreme report round trip:\ngot:  %+v\nwant: %+v", *gotRep, rep)
	}
	if math.Float64bits(gotRep.Results[0].ECNFrac) != math.Float64bits(rep.Results[0].ECNFrac) {
		t.Fatal("negative-zero ECN fraction bits perturbed")
	}
	emptyRep := Report{}
	if gotRep, err = DecodeReportBinary(emptyRep.EncodeBinary(), 0); err != nil || !reflect.DeepEqual(*gotRep, emptyRep) {
		t.Fatalf("empty report round trip: %+v, %v", *gotRep, err)
	}
}

// TestBinaryConstructCompression pins the codec's reason to exist: on a
// real decomposition the binary construct payload must be a small
// fraction of the JSON one (varint deltas versus decimal digits).
func TestBinaryConstructCompression(t *testing.T) {
	f := topo.MustFattree(8)
	ps := route.NewFattreePaths(f)
	csr := route.MaterializeCSR(ps)
	comps := route.DecomposeCSR(csr, f.NumLinks())
	req := ConstructRequest{
		V: SchemaVersion, MatrixSig: route.MatrixSignature(csr, f.NumLinks()),
		NumLinks: f.NumLinks(), Opt: PMCOptions{Alpha: 2, Beta: 1, CELF: true},
	}
	for _, c := range comps {
		req.Comps = append(req.Comps, Component{Links: c.Links, Paths: c.Paths.Append(nil)})
	}
	jsonBytes, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	binBytes := req.encodeBinary()
	t.Logf("Fattree(8) construct request: JSON %d bytes, binary %d bytes (%.1fx)",
		len(jsonBytes), len(binBytes), float64(len(jsonBytes))/float64(len(binBytes)))
	if len(binBytes)*3 > len(jsonBytes) {
		t.Fatalf("binary construct payload %d bytes is not at least 3x smaller than JSON %d bytes",
			len(binBytes), len(jsonBytes))
	}
	got, err := decodeConstructBinary(binBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, req) {
		t.Fatal("real decomposition does not round-trip")
	}
}

// postBody POSTs a body under the given content type.
func postBody(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestBinaryFramesRejected sweeps the binary ingest guards: truncated,
// garbage, wrong-kind and length-lying frames answer 400; a declared
// length past the body limit answers 413 like an oversized body; an
// unknown content type answers 415 — and a valid frame still works,
// answering in kind.
func TestBinaryFramesRejected(t *testing.T) {
	srv, ts := testServer(t, DefaultLimits())
	valid := ConstructRequest{
		V: SchemaVersion, MatrixSig: srv.MatrixSig(), NumLinks: srv.numLinks,
		Opt: PMCOptions{Alpha: 1, Beta: 1, CELF: true},
	}
	for _, c := range route.DecomposeCSR(srv.csr, srv.numLinks) {
		valid.Comps = append(valid.Comps, Component{Links: c.Links, Paths: c.Paths.Append(nil)})
	}
	frame := valid.encodeBinary()

	t.Run("valid", func(t *testing.T) {
		resp := postBody(t, ts.URL+"/v1/construct", ContentTypeBinary, frame)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("valid binary frame: status %d, want 200 (%s)", resp.StatusCode, errorBody(t, resp))
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
			t.Fatalf("binary request answered with %q, want %q", ct, ContentTypeBinary)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		resp := postBody(t, ts.URL+"/v1/construct", ContentTypeBinary, frame[:len(frame)/2])
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("truncated frame: status %d, want 400", resp.StatusCode)
		}
		if eb := errorBody(t, resp); !strings.Contains(eb, "undecodable") {
			t.Fatalf("truncated frame error %q lacks decode diagnosis", eb)
		}
	})
	t.Run("garbageMagic", func(t *testing.T) {
		bad := append([]byte{0xFF, 0xFE}, frame[2:]...)
		resp := postBody(t, ts.URL+"/v1/construct", ContentTypeBinary, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage magic: status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("wrongKind", func(t *testing.T) {
		lr := LocalizeRequest{V: SchemaVersion, HitRatio: 0.6}
		resp := postBody(t, ts.URL+"/v1/construct", ContentTypeBinary, lr.encodeBinary())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("localize frame at construct endpoint: status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("declaredLengthOverLimit", func(t *testing.T) {
		// A tiny body whose header claims a payload past MaxBodyBytes:
		// the decoder must refuse on the declared length, 413.
		lim := DefaultLimits()
		lim.MaxBodyBytes = 1 << 10
		_, smallTS := testServer(t, lim)
		lying := []byte{frameMagic[0], frameMagic[1], BinaryVersion, kindConstructReq,
			0x80, 0x80, 0x80, 0x10} // uvarint ~32 MB declared
		resp := postBody(t, smallTS.URL+"/v1/construct", ContentTypeBinary, lying)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("length-lying frame: status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("oversizedBody", func(t *testing.T) {
		lim := DefaultLimits()
		lim.MaxBodyBytes = 1 << 10
		_, smallTS := testServer(t, lim)
		resp := postBody(t, smallTS.URL+"/v1/construct", ContentTypeBinary, make([]byte, 1<<12))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized binary body: status %d, want 413", resp.StatusCode)
		}
	})
	t.Run("unknownContentType", func(t *testing.T) {
		resp := postBody(t, ts.URL+"/v1/construct", "application/x-protobuf", frame)
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("unknown content type: status %d, want 415", resp.StatusCode)
		}
	})
}

// FuzzBinaryFrame throws arbitrary bytes at every binary decoder: no
// panic, no unbounded allocation, and anything that does decode must
// re-encode to a frame that decodes to the identical value (canonical
// form is a fixed point).
func FuzzBinaryFrame(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	cr := randConstructRequest(r)
	f.Add(cr.encodeBinary())
	resp := randConstructResponse(r)
	f.Add(resp.encodeBinary())
	lr := randLocalizeRequest(r)
	f.Add(lr.encodeBinary())
	lresp := randLocalizeResponse(r)
	f.Add(lresp.encodeBinary())
	rep := randReport(r)
	f.Add(rep.EncodeBinary())
	// Kind 6, the retired batched-report summary, must be rejected by
	// every decoder: a kind-5 frame relabelled as kind 6.
	retired := rep.EncodeBinary()
	retired[3] = 6
	f.Add(retired)
	f.Add([]byte{frameMagic[0], frameMagic[1], BinaryVersion, kindConstructReq, 0})
	f.Add([]byte{frameMagic[0], frameMagic[1], BinaryVersion, kindReport, 0})
	f.Add([]byte{frameMagic[0], frameMagic[1], BinaryVersion, 6, 0})
	f.Add([]byte{0xD7})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The fixed-point check compares canonical re-encodings, not
		// structs: DeepEqual would falsely reject NaN float bits, which
		// the codec (unlike JSON) carries faithfully.
		const maxPayload = 1 << 20
		if req, err := decodeConstructBinary(data, maxPayload); err == nil {
			enc := req.encodeBinary()
			again, err := decodeConstructBinary(enc, 0)
			if err != nil || !bytes.Equal(enc, again.encodeBinary()) {
				t.Fatalf("construct request re-encode not a fixed point: %v", err)
			}
		}
		if resp, err := decodeConstructRespBinary(data, maxPayload); err == nil {
			enc := resp.encodeBinary()
			again, err := decodeConstructRespBinary(enc, 0)
			if err != nil || !bytes.Equal(enc, again.encodeBinary()) {
				t.Fatalf("construct response re-encode not a fixed point: %v", err)
			}
		}
		if req, err := decodeLocalizeBinary(data, maxPayload); err == nil {
			enc := req.encodeBinary()
			again, err := decodeLocalizeBinary(enc, 0)
			if err != nil || !bytes.Equal(enc, again.encodeBinary()) {
				t.Fatalf("localize request re-encode not a fixed point: %v", err)
			}
		}
		if resp, err := decodeLocalizeRespBinary(data, maxPayload); err == nil {
			enc := resp.encodeBinary()
			again, err := decodeLocalizeRespBinary(enc, 0)
			if err != nil || !bytes.Equal(enc, again.encodeBinary()) {
				t.Fatalf("localize response re-encode not a fixed point: %v", err)
			}
		}
		if rep, err := DecodeReportBinary(data, maxPayload); err == nil {
			enc := rep.EncodeBinary()
			again, err := DecodeReportBinary(enc, 0)
			if err != nil || !bytes.Equal(enc, again.EncodeBinary()) {
				t.Fatalf("report re-encode not a fixed point: %v", err)
			}
		}
		if len(data) > 3 && data[3] == 6 {
			if _, err := DecodeReportBinary(data, maxPayload); err == nil {
				t.Fatal("a kind-6 frame decoded as a report")
			}
			if _, err := DecodePinglistDeltaBinary(data, maxPayload); err == nil {
				t.Fatal("a kind-6 frame decoded as a pinglist delta")
			}
		}
	})
}
