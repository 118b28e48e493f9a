package shardrpc

// The pinglist delta, as the seventh kind of the v2 binary frame. When the
// topology churns, only the dirty components' selections change, so most of
// a pinger's work order survives from one version to the next. Instead of
// re-shipping the full pinglist to every pinger each cycle, the controller
// serves the difference between the version a pinger already holds and the
// current one: path IDs to stop probing plus full entries to start probing.
// The wire types live here rather than in internal/control so that both the
// controller (encoder) and the pinger (decoder) can speak them without an
// import cycle — control already depends on shardrpc for its shard clients.
//
// A delta with FromVersion 0 is a full snapshot: Removed is empty and Added
// carries the complete entry list. That makes one frame shape serve both
// the bootstrap fetch and the incremental refresh, and gives the controller
// a natural fallback when a pinger's base version has aged out of the
// delta history.

import (
	"encoding/binary"
	"fmt"

	"github.com/detector-net/detector/internal/topo"
)

// kindPinglistDelta extends the payload-kind space: a version-to-version
// pinglist difference. Kind 6 is unassigned; every decoder rejects it.
const kindPinglistDelta byte = 7

// PingEntry is one probe route a pinger must start (or keep) probing —
// the wire twin of control.Entry.
type PingEntry struct {
	// PathID identifies the route matrix-wide; reports aggregate on it.
	PathID uint32 `json:"path_id"`
	// Route is the full node sequence, pinger server to responder server.
	Route []topo.NodeID `json:"route"`
	// FlowLabels to rotate through (packet entropy).
	FlowLabels []uint32 `json:"flow_labels,omitempty"`
	DSCP       uint8    `json:"dscp,omitempty"`
}

// PinglistDelta carries one pinger's work-order difference from
// FromVersion to Version. Removed lists path IDs to stop probing, Added
// lists entries to start probing; an entry present in both (a route whose
// definition changed) is an upsert — Removed is applied first. Both
// sequences are strictly ascending by path ID on the wire.
type PinglistDelta struct {
	Node topo.NodeID `json:"node"`
	// FromVersion is the base the delta applies to; 0 means this is a
	// full snapshot (Removed empty, Added complete).
	FromVersion int         `json:"from_version"`
	Version     int         `json:"version"`
	RatePPS     int         `json:"rate_pps"`
	WindowMS    int         `json:"window_ms"`
	ReportURL   string      `json:"report_url"`
	Removed     []uint32    `json:"removed,omitempty"`
	Added       []PingEntry `json:"added,omitempty"`
}

// Full reports whether the delta is a from-scratch snapshot rather than an
// incremental difference.
func (d *PinglistDelta) Full() bool { return d.FromVersion == 0 }

// EncodeBinary packs the delta into a v2 frame. Removed and Added are both
// strictly ascending by path ID, so the IDs encode as first value plus
// uvarint(delta−1); route hops and flow labels are unordered and ride the
// zigzag-delta form.
func (d *PinglistDelta) EncodeBinary() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(d.Node))
	b = binary.AppendUvarint(b, uint64(d.FromVersion))
	b = binary.AppendUvarint(b, uint64(d.Version))
	b = binary.AppendUvarint(b, uint64(d.RatePPS))
	b = binary.AppendUvarint(b, uint64(d.WindowMS))
	b = binary.AppendUvarint(b, uint64(len(d.ReportURL)))
	b = append(b, d.ReportURL...)
	rem := make([]int64, len(d.Removed))
	for i, p := range d.Removed {
		rem[i] = int64(p)
	}
	b = appendAscDelta(b, rem)
	b = binary.AppendUvarint(b, uint64(len(d.Added)))
	prev := int64(-1)
	for _, e := range d.Added {
		b = binary.AppendUvarint(b, uint64(int64(e.PathID)-prev-1))
		prev = int64(e.PathID)
		b = binary.AppendUvarint(b, uint64(len(e.Route)))
		var enc zigzagEnc
		for _, n := range e.Route {
			b = enc.append(b, int64(n))
		}
		b = binary.AppendUvarint(b, uint64(len(e.FlowLabels)))
		enc = zigzagEnc{}
		for _, fl := range e.FlowLabels {
			b = enc.append(b, int64(fl))
		}
		b = append(b, e.DSCP)
	}
	return sealFrame(kindPinglistDelta, b)
}

// DecodeBinary unpacks a v2 pinglist-delta frame into d. The decode
// enforces structure: strictly ascending path IDs in both sections, int32
// bounds on every ID, and no trailing payload bytes.
func (d *PinglistDelta) DecodeBinary(data []byte, maxPayload int64) error {
	payload, err := openFrame(data, kindPinglistDelta, maxPayload)
	if err != nil {
		return err
	}
	r := &breader{buf: payload}
	node, err := r.uint31()
	if err != nil {
		return err
	}
	d.Node = topo.NodeID(node)
	if d.FromVersion, err = r.uint31(); err != nil {
		return err
	}
	if d.Version, err = r.uint31(); err != nil {
		return err
	}
	if d.Version <= d.FromVersion {
		return fmt.Errorf("delta version %d not past base %d", d.Version, d.FromVersion)
	}
	if d.RatePPS, err = r.uint31(); err != nil {
		return err
	}
	if d.WindowMS, err = r.uint31(); err != nil {
		return err
	}
	ulen, err := r.seqLen()
	if err != nil {
		return err
	}
	d.ReportURL = string(r.buf[r.off : r.off+ulen])
	r.off += ulen
	rem, err := r.ascDelta()
	if err != nil {
		return fmt.Errorf("removed: %w", err)
	}
	d.Removed = d.Removed[:0]
	for _, p := range rem {
		d.Removed = append(d.Removed, uint32(p))
	}
	nAdd, err := r.seqLen()
	if err != nil {
		return err
	}
	d.Added = d.Added[:0]
	prev := int64(-1)
	for i := 0; i < nAdd; i++ {
		var e PingEntry
		dv, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("added %d path: %w", i, err)
		}
		p := prev + 1 + int64(dv)
		if p > maxPathID {
			return fmt.Errorf("added %d path %d exceeds uint32 range", i, p)
		}
		prev = p
		e.PathID = uint32(p)
		nHops, err := r.seqLen()
		if err != nil {
			return err
		}
		var dec zigzagDec
		e.Route = make([]topo.NodeID, nHops)
		for j := range e.Route {
			v, err := dec.next(r)
			if err != nil {
				return fmt.Errorf("added %d hop %d: %w", i, j, err)
			}
			e.Route[j] = topo.NodeID(v)
		}
		nFL, err := r.seqLen()
		if err != nil {
			return err
		}
		if nFL > 0 {
			dec = zigzagDec{}
			e.FlowLabels = make([]uint32, nFL)
			for j := range e.FlowLabels {
				v, err := dec.next(r)
				if err != nil {
					return fmt.Errorf("added %d flow label %d: %w", i, j, err)
				}
				e.FlowLabels[j] = uint32(v)
			}
		}
		if r.remaining() < 1 {
			return fmt.Errorf("added %d: truncated dscp", i)
		}
		e.DSCP = r.buf[r.off]
		r.off++
		d.Added = append(d.Added, e)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing payload bytes", r.remaining())
	}
	return nil
}

// DecodePinglistDeltaBinary unpacks a v2 pinglist-delta frame (fresh
// allocation; a refresh loop can reuse a struct via DecodeBinary).
func DecodePinglistDeltaBinary(data []byte, maxPayload int64) (*PinglistDelta, error) {
	var d PinglistDelta
	if err := d.DecodeBinary(data, maxPayload); err != nil {
		return nil, err
	}
	return &d, nil
}
