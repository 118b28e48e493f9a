package shardrpc

// The v2 binary codec: a length-prefixed frame around a varint-packed
// payload, negotiated at ping time (the server advertises its codecs, the
// client picks) and selected per request via Content-Type, so a mixed
// fleet of v1 (JSON-only) and v2 services keeps working mid-rollout.
//
// Frame layout (all multi-byte integers varint unless noted):
//
//	magic     2 bytes  0xD7 0xC2
//	version   1 byte   BinaryVersion (2)
//	kind      1 byte   payload kind (construct/localize × request/response)
//	length    uvarint  payload byte count — must match the remainder exactly
//	payload   length bytes
//
// Inside a payload, the sequences that dominate the construct wire —
// component link IDs, candidate-path indices, selections — are strictly
// ascending by protocol, so they encode as a first absolute value plus
// per-element uvarint(delta−1): on Fattree(16) the typical delta is a
// handful, one byte instead of the six-plus digits JSON spends per index.
// Sequences with no ordering guarantee (a probe path's route-ordered
// links, verdict link IDs) use zigzag varint deltas, which cost the same
// as absolutes in the worst case and one byte in the common
// nearly-sorted case. Floats travel as fixed 8-byte IEEE 754 bits —
// bit-exact, no shortest-round-trip detour through decimal.
//
// Every decode is bounded: list lengths are checked against the bytes
// actually remaining before any allocation, truncated or trailing input
// is an error, and the declared frame length is capped by the caller's
// limit — so a garbage frame costs O(frame) work and a structured 400,
// never a panic or an OOM.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/detector-net/detector/internal/topo"
)

// BinaryVersion is the frame-format version of the v2 binary codec.
const BinaryVersion = 2

// Codec names, as advertised in PingResponse.Codecs and reported at
// GET /shards.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// Content types selecting the request codec. JSON is the v1 default;
// the binary type is only sent after negotiation (or when forced).
const (
	contentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-detector-shardrpc-v2"
)

// Payload kinds.
const (
	kindConstructReq byte = iota + 1
	kindConstructResp
	kindLocalizeReq
	kindLocalizeResp
)

var frameMagic = [2]byte{0xD7, 0xC2}

// errFrameTooLarge marks a frame whose declared payload length exceeds
// the decoder's budget; the server maps it to 413 like an oversized body.
var errFrameTooLarge = errors.New("declared payload length exceeds limit")

// ---------------------------------------------------------------------------
// Encoding primitives.

// sealFrame wraps a packed payload in the v2 frame header.
func sealFrame(kind byte, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+2+1+1+binary.MaxVarintLen64)
	out = append(out, frameMagic[0], frameMagic[1], BinaryVersion, kind)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// appendAscDelta encodes a strictly ascending non-negative sequence as
// count, first value, then uvarint(v[i]−v[i−1]−1) per element.
func appendAscDelta(b []byte, vals []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for i, v := range vals {
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(v))
			continue
		}
		b = binary.AppendUvarint(b, uint64(v-vals[i-1]-1))
	}
	return b
}

// zigzagEnc encodes a non-negative sequence with no ordering guarantee —
// absolute uvarint for the first value, zigzag varint deltas after — as a
// stateful cursor, so sequences whose elements interleave with other
// fields (observation rows, verdicts) share the exact encoding of the
// contiguous appendZigzagDelta form.
type zigzagEnc struct {
	prev    int64
	started bool
}

func (e *zigzagEnc) append(b []byte, v int64) []byte {
	if !e.started {
		e.started = true
		e.prev = v
		return binary.AppendUvarint(b, uint64(v))
	}
	d := v - e.prev
	e.prev = v
	return binary.AppendVarint(b, d)
}

// zigzagDec is zigzagEnc's decode mirror, with the int32 range check in
// one place.
type zigzagDec struct {
	prev    int64
	started bool
}

func (d *zigzagDec) next(r *breader) (int64, error) {
	if !d.started {
		d.started = true
		u, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if u > math.MaxInt32 {
			return 0, fmt.Errorf("sequence value %d exceeds int32 range", u)
		}
		d.prev = int64(u)
		return d.prev, nil
	}
	delta, err := r.varint()
	if err != nil {
		return 0, err
	}
	v := d.prev + delta
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("sequence value %d outside int32 range", v)
	}
	d.prev = v
	return v, nil
}

// appendZigzagDelta encodes a non-negative sequence with no ordering
// guarantee as count, first value, then zigzag varint deltas.
func appendZigzagDelta(b []byte, vals []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	var enc zigzagEnc
	for _, v := range vals {
		b = enc.append(b, v)
	}
	return b
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// ---------------------------------------------------------------------------
// Decoding primitives: a cursor over the payload with hard bounds.

type breader struct {
	buf []byte
	off int
}

func (r *breader) remaining() int { return len(r.buf) - r.off }

func (r *breader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errors.New("truncated varint")
	}
	r.off += n
	return v, nil
}

func (r *breader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, errors.New("truncated varint")
	}
	r.off += n
	return v, nil
}

// uint31 reads a uvarint destined for an int32-or-int count/ID field.
func (r *breader) uint31() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("value %d exceeds int32 range", v)
	}
	return int(v), nil
}

// int63 reads a uvarint destined for an int64 field.
func (r *breader) int63() (int64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("value %d exceeds int64 range", v)
	}
	return int64(v), nil
}

func (r *breader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, errors.New("truncated float64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

func (r *breader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, errors.New("truncated uint64")
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// seqLen validates a decoded element count against the bytes remaining
// (every element costs at least one byte), so a hostile count cannot
// drive allocation past the frame's own size.
func (r *breader) seqLen() (int, error) {
	n, err := r.uint31()
	if err != nil {
		return 0, err
	}
	if n > r.remaining() {
		return 0, fmt.Errorf("sequence of %d elements cannot fit in %d remaining bytes", n, r.remaining())
	}
	return n, nil
}

// ascDelta decodes an appendAscDelta sequence; nil when empty, matching
// the JSON decoder's treatment of an absent field.
func (r *breader) ascDelta() ([]int64, error) {
	n, err := r.seqLen()
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]int64, n)
	prev := int64(-1)
	for i := range out {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		v := prev + 1 + int64(d)
		if v < prev || v > math.MaxInt32 {
			return nil, fmt.Errorf("ascending sequence overflows at index %d", i)
		}
		out[i], prev = v, v
	}
	return out, nil
}

// zigzagDelta decodes an appendZigzagDelta sequence.
func (r *breader) zigzagDelta() ([]int64, error) {
	n, err := r.seqLen()
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]int64, n)
	var dec zigzagDec
	for i := range out {
		if out[i], err = dec.next(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func linksToInt64(links []topo.LinkID) []int64 {
	out := make([]int64, len(links))
	for i, l := range links {
		out[i] = int64(l)
	}
	return out
}

func int64ToLinks(vals []int64) []topo.LinkID {
	if vals == nil {
		return nil
	}
	out := make([]topo.LinkID, len(vals))
	for i, v := range vals {
		out[i] = topo.LinkID(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// Frame open.

// openFrame validates magic, version, kind and the declared length
// against maxPayload, returning the payload bytes.
func openFrame(data []byte, wantKind byte, maxPayload int64) ([]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("frame shorter than header")
	}
	if data[0] != frameMagic[0] || data[1] != frameMagic[1] {
		return nil, fmt.Errorf("bad frame magic %#02x%02x", data[0], data[1])
	}
	if data[2] != BinaryVersion {
		return nil, fmt.Errorf("unsupported binary codec version %d (want %d)", data[2], BinaryVersion)
	}
	if data[3] != wantKind {
		return nil, fmt.Errorf("frame kind %d, want %d", data[3], wantKind)
	}
	plen, n := binary.Uvarint(data[4:])
	if n <= 0 {
		return nil, errors.New("truncated frame length")
	}
	if maxPayload > 0 && plen > uint64(maxPayload) {
		return nil, fmt.Errorf("%w: %d > %d", errFrameTooLarge, plen, maxPayload)
	}
	payload := data[4+n:]
	if uint64(len(payload)) < plen {
		return nil, fmt.Errorf("truncated frame: %d payload bytes declared, %d present", plen, len(payload))
	}
	if uint64(len(payload)) > plen {
		return nil, fmt.Errorf("trailing garbage: %d payload bytes declared, %d present", plen, len(payload))
	}
	return payload, nil
}

// ---------------------------------------------------------------------------
// ConstructRequest.

func (r *ConstructRequest) encodeBinary() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(r.V))
	b = binary.LittleEndian.AppendUint64(b, r.MatrixSig)
	b = binary.AppendUvarint(b, uint64(r.NumLinks))
	b = binary.AppendUvarint(b, uint64(r.Opt.Alpha))
	b = binary.AppendUvarint(b, uint64(r.Opt.Beta))
	var flags byte
	if r.Opt.CELF {
		flags |= 1
	}
	if r.Opt.Orbits {
		flags |= 2
	}
	if r.Opt.NoEvenness {
		flags |= 4
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(r.Opt.Workers))
	b = binary.AppendUvarint(b, uint64(r.Opt.MaxElements))
	b = binary.AppendUvarint(b, uint64(len(r.Comps)))
	var tmp []int64
	for _, c := range r.Comps {
		b = appendAscDelta(b, linksToInt64(c.Links))
		tmp = tmp[:0]
		for _, p := range c.Paths {
			tmp = append(tmp, int64(p))
		}
		b = appendAscDelta(b, tmp)
	}
	return sealFrame(kindConstructReq, b)
}

func decodeConstructBinary(data []byte, maxPayload int64) (*ConstructRequest, error) {
	payload, err := openFrame(data, kindConstructReq, maxPayload)
	if err != nil {
		return nil, err
	}
	r := &breader{buf: payload}
	var req ConstructRequest
	if req.V, err = r.uint31(); err != nil {
		return nil, err
	}
	if req.MatrixSig, err = r.u64(); err != nil {
		return nil, err
	}
	if req.NumLinks, err = r.uint31(); err != nil {
		return nil, err
	}
	if req.Opt.Alpha, err = r.uint31(); err != nil {
		return nil, err
	}
	if req.Opt.Beta, err = r.uint31(); err != nil {
		return nil, err
	}
	if r.remaining() < 1 {
		return nil, errors.New("truncated option flags")
	}
	flags := r.buf[r.off]
	r.off++
	req.Opt.CELF = flags&1 != 0
	req.Opt.Orbits = flags&2 != 0
	req.Opt.NoEvenness = flags&4 != 0
	if req.Opt.Workers, err = r.uint31(); err != nil {
		return nil, err
	}
	if req.Opt.MaxElements, err = r.uint31(); err != nil {
		return nil, err
	}
	ncomps, err := r.seqLen()
	if err != nil {
		return nil, err
	}
	if ncomps > 0 {
		req.Comps = make([]Component, ncomps)
		for i := range req.Comps {
			links, err := r.ascDelta()
			if err != nil {
				return nil, fmt.Errorf("component %d links: %w", i, err)
			}
			paths, err := r.ascDelta()
			if err != nil {
				return nil, fmt.Errorf("component %d paths: %w", i, err)
			}
			req.Comps[i].Links = int64ToLinks(links)
			if paths != nil {
				req.Comps[i].Paths = make([]int32, len(paths))
				for j, p := range paths {
					req.Comps[i].Paths[j] = int32(p)
				}
			}
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", r.remaining())
	}
	return &req, nil
}

// ---------------------------------------------------------------------------
// ConstructResponse.

func (r *ConstructResponse) encodeBinary() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(r.V))
	sel := make([]int64, len(r.Selected))
	for i, s := range r.Selected {
		sel[i] = int64(s)
	}
	b = appendAscDelta(b, sel)
	b = binary.AppendUvarint(b, uint64(r.Stats.Components))
	b = binary.AppendUvarint(b, uint64(r.Stats.Candidates))
	b = binary.AppendUvarint(b, uint64(r.Stats.ScoreEvals))
	b = binary.AppendUvarint(b, uint64(r.Stats.Reseeds))
	b = binary.AppendUvarint(b, uint64(r.Stats.Selected))
	b = binary.AppendUvarint(b, uint64(r.Stats.ElapsedNS))
	var flags byte
	if r.Stats.CoverageMet {
		flags |= 1
	}
	if r.Stats.IdentMet {
		flags |= 2
	}
	b = append(b, flags)
	return sealFrame(kindConstructResp, b)
}

func decodeConstructRespBinary(data []byte, maxPayload int64) (*ConstructResponse, error) {
	payload, err := openFrame(data, kindConstructResp, maxPayload)
	if err != nil {
		return nil, err
	}
	r := &breader{buf: payload}
	var resp ConstructResponse
	if resp.V, err = r.uint31(); err != nil {
		return nil, err
	}
	sel, err := r.ascDelta()
	if err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}
	if sel != nil {
		resp.Selected = make([]int, len(sel))
		for i, s := range sel {
			resp.Selected[i] = int(s)
		}
	}
	if resp.Stats.Components, err = r.uint31(); err != nil {
		return nil, err
	}
	if resp.Stats.Candidates, err = r.uint31(); err != nil {
		return nil, err
	}
	if resp.Stats.ScoreEvals, err = r.int63(); err != nil {
		return nil, err
	}
	if resp.Stats.Reseeds, err = r.uint31(); err != nil {
		return nil, err
	}
	if resp.Stats.Selected, err = r.uint31(); err != nil {
		return nil, err
	}
	if resp.Stats.ElapsedNS, err = r.int63(); err != nil {
		return nil, err
	}
	if r.remaining() < 1 {
		return nil, errors.New("truncated stats flags")
	}
	flags := r.buf[r.off]
	r.off++
	resp.Stats.CoverageMet = flags&1 != 0
	resp.Stats.IdentMet = flags&2 != 0
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", r.remaining())
	}
	return &resp, nil
}

// ---------------------------------------------------------------------------
// LocalizeRequest.

// Payload: version, signature (fixed 8 bytes), hit ratio, the absent rows
// (ascending deltas), the lossy rows (row deltas interleaved with their
// counters), then a presence byte and, when set, the matrix: link-ID
// space, path count, each path's route-ordered links as zigzag deltas.

func (r *LocalizeRequest) encodeBinary() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(r.V))
	b = binary.LittleEndian.AppendUint64(b, r.Sig)
	b = appendF64(b, r.HitRatio)
	absent := make([]int64, len(r.Absent))
	for i, row := range r.Absent {
		absent[i] = int64(row)
	}
	b = appendAscDelta(b, absent)
	b = binary.AppendUvarint(b, uint64(len(r.Lossy)))
	var rowEnc zigzagEnc
	for _, o := range r.Lossy {
		b = rowEnc.append(b, int64(o.Row))
		b = binary.AppendUvarint(b, uint64(o.Sent))
		b = binary.AppendUvarint(b, uint64(o.Lost))
	}
	if r.Matrix == nil {
		return sealFrame(kindLocalizeReq, append(b, 0))
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(r.Matrix.NumLinks))
	b = binary.AppendUvarint(b, uint64(len(r.Matrix.Paths)))
	for _, links := range r.Matrix.Paths {
		b = appendZigzagDelta(b, linksToInt64(links))
	}
	return sealFrame(kindLocalizeReq, b)
}

func decodeLocalizeBinary(data []byte, maxPayload int64) (*LocalizeRequest, error) {
	payload, err := openFrame(data, kindLocalizeReq, maxPayload)
	if err != nil {
		return nil, err
	}
	r := &breader{buf: payload}
	var req LocalizeRequest
	if req.V, err = r.uint31(); err != nil {
		return nil, err
	}
	if req.Sig, err = r.u64(); err != nil {
		return nil, err
	}
	if req.HitRatio, err = r.f64(); err != nil {
		return nil, err
	}
	absent, err := r.ascDelta()
	if err != nil {
		return nil, fmt.Errorf("absent rows: %w", err)
	}
	if absent != nil {
		req.Absent = make([]int32, len(absent))
		for i, row := range absent {
			req.Absent[i] = int32(row)
		}
	}
	nlossy, err := r.seqLen()
	if err != nil {
		return nil, err
	}
	if nlossy > 0 {
		req.Lossy = make([]LossyRow, nlossy)
		var rowDec zigzagDec
		for i := range req.Lossy {
			row, err := rowDec.next(r)
			if err != nil {
				return nil, fmt.Errorf("lossy row %d: %w", i, err)
			}
			req.Lossy[i].Row = int(row)
			if req.Lossy[i].Sent, err = r.uint31(); err != nil {
				return nil, err
			}
			if req.Lossy[i].Lost, err = r.uint31(); err != nil {
				return nil, err
			}
		}
	}
	if r.remaining() < 1 {
		return nil, errors.New("truncated matrix presence byte")
	}
	present := r.buf[r.off]
	r.off++
	switch present {
	case 0:
	case 1:
		m := &Matrix{}
		if m.NumLinks, err = r.uint31(); err != nil {
			return nil, err
		}
		npaths, err := r.seqLen()
		if err != nil {
			return nil, err
		}
		if npaths > 0 {
			m.Paths = make([][]topo.LinkID, npaths)
		}
		for i := range m.Paths {
			links, err := r.zigzagDelta()
			if err != nil {
				return nil, fmt.Errorf("matrix path %d links: %w", i, err)
			}
			m.Paths[i] = int64ToLinks(links)
		}
		req.Matrix = m
	default:
		return nil, fmt.Errorf("matrix presence byte %d, want 0 or 1", present)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", r.remaining())
	}
	return &req, nil
}

// ---------------------------------------------------------------------------
// LocalizeResponse.

func (r *LocalizeResponse) encodeBinary() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(r.V))
	b = binary.AppendUvarint(b, uint64(len(r.Bad)))
	// Verdicts are sorted by link ID; zigzag deltas keep the unsorted
	// case correct anyway.
	var linkEnc zigzagEnc
	for _, v := range r.Bad {
		b = linkEnc.append(b, int64(v.Link))
		b = appendF64(b, v.Rate)
		b = binary.AppendUvarint(b, uint64(v.Explained))
	}
	b = binary.AppendUvarint(b, uint64(r.LossyPaths))
	b = binary.AppendUvarint(b, uint64(r.UnexplainedPaths))
	b = binary.AppendUvarint(b, uint64(r.ElapsedNS))
	return sealFrame(kindLocalizeResp, b)
}

func decodeLocalizeRespBinary(data []byte, maxPayload int64) (*LocalizeResponse, error) {
	payload, err := openFrame(data, kindLocalizeResp, maxPayload)
	if err != nil {
		return nil, err
	}
	r := &breader{buf: payload}
	var resp LocalizeResponse
	if resp.V, err = r.uint31(); err != nil {
		return nil, err
	}
	nbad, err := r.seqLen()
	if err != nil {
		return nil, err
	}
	if nbad > 0 {
		resp.Bad = make([]Verdict, nbad)
		var linkDec zigzagDec
		for i := range resp.Bad {
			l, err := linkDec.next(r)
			if err != nil {
				return nil, fmt.Errorf("verdict %d link: %w", i, err)
			}
			resp.Bad[i].Link = topo.LinkID(l)
			if resp.Bad[i].Rate, err = r.f64(); err != nil {
				return nil, err
			}
			if resp.Bad[i].Explained, err = r.uint31(); err != nil {
				return nil, err
			}
		}
	}
	if resp.LossyPaths, err = r.uint31(); err != nil {
		return nil, err
	}
	if resp.UnexplainedPaths, err = r.uint31(); err != nil {
		return nil, err
	}
	if resp.ElapsedNS, err = r.int63(); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", r.remaining())
	}
	return &resp, nil
}
