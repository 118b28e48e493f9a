package shardrpc

// The pinger→diagnoser report, as the fifth kind of the v2 binary frame.
// Every pinger POSTs one such frame to the diagnoser's /report per window
// epoch; it is the chattiest edge of the control plane and the first
// payload whose floats (per-path RTT, jitter, ECN fraction) matter, so it
// shares the frame format, the varint-delta integer packing and the
// raw-bits float path of the shard codec.
//
// The types are declared here, once: internal/pinger aliases them as
// pinger.Report and pinger.PathReport, and the diagnoser ingests them
// directly. The JSON tags serve the codec's differential tests and any
// operator dumping a report; no report travels as JSON.

import (
	"encoding/binary"
	"fmt"

	"github.com/detector-net/detector/internal/topo"
)

// kindReport extends the payload-kind space (construct/localize × req/resp
// are 1..4).
const kindReport byte = 5

// ReportResult is one path's counters and signals for one window.
type ReportResult struct {
	PathID uint32 `json:"path_id"`
	Sent   int    `json:"sent"`
	Lost   int    `json:"lost"`
	// MeanRTTNS is the mean round-trip time of the delivered probes; zero
	// when nothing was delivered.
	MeanRTTNS int64 `json:"mean_rtt_ns"`
	// JitterNS is the RFC 3550 interarrival jitter of the delivered
	// probes' RTTs: the smoothed mean of |RTT(i)−RTT(i−1)|.
	JitterNS int64 `json:"jitter_ns,omitempty"`
	// ECNFrac is the fraction of delivered probes whose echo carried the
	// congestion-experienced mark (a switch set wire.FlagECN en route).
	ECNFrac float64 `json:"ecn_frac,omitempty"`
}

// Report is one pinger's window aggregate. EndNS is the window epoch
// boundary it answers for: the diagnoser's window clock closes an epoch
// once every pinger it expects has reported past it.
type Report struct {
	Node    topo.NodeID    `json:"node"`
	Version int            `json:"version"`
	EndNS   int64          `json:"end_ns"`
	Results []ReportResult `json:"results"`
}

// EncodeBinary packs the report into a v2 frame. Path IDs ride the zigzag
// delta cursor (pingers report paths in pinglist order, nearly ascending),
// counters are uvarints, RTT and jitter signed varints, the ECN fraction
// raw IEEE 754 bits.
func (r *Report) EncodeBinary() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(r.Node))
	b = binary.AppendUvarint(b, uint64(r.Version))
	b = binary.AppendVarint(b, r.EndNS)
	b = binary.AppendUvarint(b, uint64(len(r.Results)))
	var pathEnc zigzagEnc
	for _, pr := range r.Results {
		b = pathEnc.append(b, int64(pr.PathID))
		b = binary.AppendUvarint(b, uint64(pr.Sent))
		b = binary.AppendUvarint(b, uint64(pr.Lost))
		b = binary.AppendVarint(b, pr.MeanRTTNS)
		b = binary.AppendVarint(b, pr.JitterNS)
		b = appendF64(b, pr.ECNFrac)
	}
	return sealFrame(kindReport, b)
}

// DecodeBinary unpacks a v2 report frame into rep, reusing the Results
// slice's capacity. Field-level validation (counter sanity, float ranges)
// is the consumer's job; the decode only enforces structure.
func (rep *Report) DecodeBinary(data []byte, maxPayload int64) error {
	payload, err := openFrame(data, kindReport, maxPayload)
	if err != nil {
		return err
	}
	r := &breader{buf: payload}
	node, err := r.uint31()
	if err != nil {
		return err
	}
	rep.Node = topo.NodeID(node)
	if rep.Version, err = r.uint31(); err != nil {
		return err
	}
	if rep.EndNS, err = r.varint(); err != nil {
		return err
	}
	n, err := r.seqLen()
	if err != nil {
		return err
	}
	rep.Results = rep.Results[:0]
	var pathDec zigzagDec
	for i := 0; i < n; i++ {
		var res ReportResult
		p, err := pathDec.next(r)
		if err != nil {
			return fmt.Errorf("result %d path: %w", i, err)
		}
		res.PathID = uint32(p)
		if res.Sent, err = r.uint31(); err != nil {
			return err
		}
		if res.Lost, err = r.uint31(); err != nil {
			return err
		}
		if res.MeanRTTNS, err = r.varint(); err != nil {
			return err
		}
		if res.JitterNS, err = r.varint(); err != nil {
			return err
		}
		if res.ECNFrac, err = r.f64(); err != nil {
			return err
		}
		rep.Results = append(rep.Results, res)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing payload bytes", r.remaining())
	}
	return nil
}

// DecodeReportBinary unpacks a v2 report frame under the payload budget
// into a fresh Report.
func DecodeReportBinary(data []byte, maxPayload int64) (*Report, error) {
	var rep Report
	if err := rep.DecodeBinary(data, maxPayload); err != nil {
		return nil, err
	}
	return &rep, nil
}
