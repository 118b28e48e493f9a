// Package shardrpc runs a controller shard as a standalone network
// service: an HTTP transport behind the shard.ShardClient interface, so
// the same coordinator that drives in-process shards drives shards on
// other machines with no code change above the interface. Every body
// between machines is a v2 length-prefixed varint-delta binary frame
// (binary.go): shard RPC requests and responses, and the pinger reports
// and pinglist deltas that share the frame format. The schemas below keep
// JSON tags because the liveness ping and error bodies are JSON (an
// operator reads them with curl) and the codec's tests use encoding/json
// as an independent oracle.
//
// The paper's component decomposition (§4.3, Observation 1) is what makes
// this wire-cheap: component slices out, selections and verdicts back are
// the only traffic — the candidate matrix itself never moves. Both ends
// derive it independently from the topology and agree via
// route.MatrixSignature, which every construction request carries.
// Localization is content-addressed the same way: a request names its
// plane part's sub-matrix by route.RowsSignature and carries only the
// window's exceptions (the rows that did not report, the rows that lost);
// the rows themselves ship once per matrix, when the service answers that
// it does not hold them.
//
// Wire schemas are versioned (SchemaVersion) and every decoded payload is
// bounded and validated (Limits): a truncated, oversized or out-of-range
// payload gets a structured 4xx and a metrics bump, never a panic or a
// silently wrong answer.
package shardrpc

import (
	"fmt"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/topo"
)

// SchemaVersion is the wire-schema version stamped on every request and
// response. A server answers a mismatched version with 400 rather than
// guessing at field semantics.
const SchemaVersion = 2

// Limits bounds every payload a server will decode. The zero value is
// unusable; use DefaultLimits.
type Limits struct {
	// MaxBodyBytes caps the request body (enforced before decode).
	MaxBodyBytes int64
	// MaxComponents caps components per construction request.
	MaxComponents int
	// MaxPaths caps the probe paths of a matrix installed by a
	// localization request.
	MaxPaths int
	// MaxLinksPerPath caps the link set of one probe path.
	MaxLinksPerPath int
	// MaxObservations caps the rows (absent plus lossy) one localization
	// request may name.
	MaxObservations int
	// MaxNumLinks caps an installed matrix's link-ID space: the engine
	// allocates O(num_links) index memory, so the field cannot be left to
	// the sender.
	MaxNumLinks int
	// MaxEngines and MaxEngineBytes bound the localization engines a
	// server keeps, by count and by estimated resident bytes; the least
	// recently used are evicted past either. A single matrix estimated
	// above MaxEngineBytes is refused with 413.
	MaxEngines     int
	MaxEngineBytes int64
	// MaxPMCElements caps the MaxElements a construct request may carry:
	// that option sizes the shard's refinement universe, so an unbounded
	// value would let a sick coordinator disable the engine's own memory
	// guard and OOM the shard.
	MaxPMCElements int
}

// DefaultLimits is sized for the paper's largest reproduced topologies
// (Fattree(24): ~12M candidate paths across 12 components) with headroom,
// while still rejecting a runaway or hostile payload long before it can
// exhaust memory.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes:    256 << 20,
		MaxComponents:   1 << 20,
		MaxPaths:        1 << 24,
		MaxLinksPerPath: 64,
		MaxObservations: 1 << 24,
		MaxNumLinks:     1 << 24,
		MaxEngines:      16,
		MaxEngineBytes:  256 << 20,
		MaxPMCElements:  pmc.DefaultMaxElements,
	}
}

// PingResponse is the liveness probe's body: enough for a coordinator (or
// an operator's curl) to check that the shard's engine matches its own.
type PingResponse struct {
	V         int    `json:"v"`
	MatrixSig uint64 `json:"matrix_sig,string"`
	NumLinks  int    `json:"num_links"`
	Paths     int    `json:"paths"`
}

// Component is one independent subproblem on the wire: global link IDs and
// candidate-path indices, both ascending (the canonical form of
// route.DecomposeCSR and CSR.Pristine; servers reject anything else). The
// paths are always listed: a span (a pristine Fattree component's
// route.Paths) is expanded on encode, and a server decodes a list, which
// route.Pristine.Is still recognizes as the pristine component.
type Component struct {
	Links []topo.LinkID `json:"links"`
	Paths []int32       `json:"paths"`
}

// PMCOptions is pmc.Options on the wire. CELF and Orbits say that
// Observations 2 and 3 of §4.3 are on: every served request sets both, and
// only a Table 2 ablation clears one.
type PMCOptions struct {
	Alpha       int  `json:"alpha"`
	Beta        int  `json:"beta"`
	CELF        bool `json:"lazy,omitempty"`
	Orbits      bool `json:"symmetry,omitempty"`
	NoEvenness  bool `json:"no_evenness,omitempty"`
	Workers     int  `json:"workers,omitempty"`
	MaxElements int  `json:"max_elements,omitempty"`
}

// ConstructRequest is one shard's work order for a construction cycle.
type ConstructRequest struct {
	V         int         `json:"v"`
	MatrixSig uint64      `json:"matrix_sig,string"`
	NumLinks  int         `json:"num_links"`
	Opt       PMCOptions  `json:"opt"`
	Comps     []Component `json:"comps"`
}

// Stats is pmc.Stats on the wire.
type Stats struct {
	Components  int   `json:"components"`
	Candidates  int   `json:"candidates"`
	ScoreEvals  int64 `json:"score_evals"`
	Reseeds     int   `json:"reseeds"`
	Selected    int   `json:"selected"`
	ElapsedNS   int64 `json:"elapsed_ns"`
	CoverageMet bool  `json:"coverage_met"`
	IdentMet    bool  `json:"ident_met"`
}

// ConstructResponse carries the shard's selection back: candidate-path
// indices, sorted, exactly as pmc.ConstructComponents returns them.
type ConstructResponse struct {
	V        int   `json:"v"`
	Selected []int `json:"selected"`
	Stats    Stats `json:"stats"`
}

// LossyRow is one lossy row of a localize window: the row of the part's
// sub-matrix and its window counters.
type LossyRow struct {
	Row  int `json:"row"`
	Sent int `json:"sent"`
	Lost int `json:"lost"`
}

// Matrix is the install section of a localize request: the rows of the
// part's sub-matrix as global link IDs. It is what route.RowsSignature
// covers, so the server can check it against the signature it was sent
// under.
type Matrix struct {
	NumLinks int             `json:"num_links"`
	Paths    [][]topo.LinkID `json:"paths"`
}

// LocalizeRequest is one plane part's window as its exceptions against the
// all-clean baseline (see pll.Window): the rows that did not report and
// the rows that classified lossy, both strictly ascending. Sig names the
// sub-matrix the rows index. Matrix is present only on the repeat of a
// request the server answered with CodeUnknownMatrix.
type LocalizeRequest struct {
	V        int        `json:"v"`
	Sig      uint64     `json:"sig,string"`
	HitRatio float64    `json:"hit_ratio"`
	Absent   []int32    `json:"absent,omitempty"`
	Lossy    []LossyRow `json:"lossy,omitempty"`
	Matrix   *Matrix    `json:"matrix,omitempty"`
}

// CodeUnknownMatrix is the error code of the 409 a server answers when a
// localize request names a signature it holds no engine for — a restarted
// or evicting server, or a new matrix version. It is not a fault: the
// client repeats the request with the matrix attached.
const CodeUnknownMatrix = "unknown_matrix"

// Verdict is one localized link on the wire.
type Verdict struct {
	Link      topo.LinkID `json:"link"`
	Rate      float64     `json:"rate"`
	Explained int         `json:"explained"`
}

// LocalizeResponse carries the shard's verdicts back.
type LocalizeResponse struct {
	V                int       `json:"v"`
	Bad              []Verdict `json:"bad"`
	LossyPaths       int       `json:"lossy_paths"`
	UnexplainedPaths int       `json:"unexplained_paths"`
	ElapsedNS        int64     `json:"elapsed_ns"`
}

// encodeConstruct translates the coordinator's work order to the wire,
// listing every component's paths.
func encodeConstruct(req shard.ConstructRequest) ConstructRequest {
	out := ConstructRequest{
		V:         SchemaVersion,
		MatrixSig: req.MatrixSig,
		NumLinks:  req.NumLinks,
		Opt: PMCOptions{
			Alpha: req.Opt.Alpha, Beta: req.Opt.Beta,
			CELF:       req.Opt.Ablate&pmc.NoLazy == 0,
			Orbits:     req.Opt.Ablate&pmc.NoSymmetry == 0,
			NoEvenness: req.Opt.NoEvenness,
			Workers:    req.Opt.Workers, MaxElements: req.Opt.MaxElements,
		},
		Comps: make([]Component, len(req.Comps)),
	}
	for i, c := range req.Comps {
		out.Comps[i] = Component{Links: c.Links, Paths: c.Paths.Append(nil)}
	}
	return out
}

// decode translates wire options back to pmc.Options (the coordinator
// already chose the partition, so there is no decomposition bit).
func (o PMCOptions) decode() pmc.Options {
	opt := pmc.Options{
		Alpha: o.Alpha, Beta: o.Beta, NoEvenness: o.NoEvenness,
		Workers: o.Workers, MaxElements: o.MaxElements,
	}
	if !o.CELF {
		opt.Ablate |= pmc.NoLazy
	}
	if !o.Orbits {
		opt.Ablate |= pmc.NoSymmetry
	}
	return opt
}

// validate checks a construction request against the server's engine. The
// signature check is separate (it maps to 409, not 400).
func (r *ConstructRequest) validate(lim Limits, numLinks, numPaths int) error {
	if r.V != SchemaVersion {
		return fmt.Errorf("unsupported schema version %d (want %d)", r.V, SchemaVersion)
	}
	if r.NumLinks != numLinks {
		return fmt.Errorf("num_links %d does not match engine %d", r.NumLinks, numLinks)
	}
	if len(r.Comps) > lim.MaxComponents {
		return fmt.Errorf("%d components exceed limit %d", len(r.Comps), lim.MaxComponents)
	}
	if r.Opt.MaxElements < 0 || r.Opt.MaxElements > lim.MaxPMCElements {
		return fmt.Errorf("opt.max_elements %d outside [0,%d] — the shard's refinement memory guard is not negotiable",
			r.Opt.MaxElements, lim.MaxPMCElements)
	}
	if r.Opt.Workers < 0 {
		return fmt.Errorf("opt.workers %d must be non-negative", r.Opt.Workers)
	}
	for ci, c := range r.Comps {
		if len(c.Links) == 0 || len(c.Paths) == 0 {
			return fmt.Errorf("component %d is empty", ci)
		}
		for i, l := range c.Links {
			if l < 0 || int(l) >= numLinks {
				return fmt.Errorf("component %d: link %d out of range [0,%d)", ci, l, numLinks)
			}
			if i > 0 && c.Links[i-1] >= l {
				return fmt.Errorf("component %d: links not strictly ascending at index %d", ci, i)
			}
		}
		for i, p := range c.Paths {
			if p < 0 || int(p) >= numPaths {
				return fmt.Errorf("component %d: path %d out of range [0,%d)", ci, p, numPaths)
			}
			if i > 0 && c.Paths[i-1] >= p {
				return fmt.Errorf("component %d: paths not strictly ascending at index %d", ci, i)
			}
		}
	}
	return nil
}

// validate bounds a localization request. The window's rows are checked
// against the engine they index (pll.ErrBadWindow), once it is known.
func (r *LocalizeRequest) validate(lim Limits) error {
	if r.V != SchemaVersion {
		return fmt.Errorf("unsupported schema version %d (want %d)", r.V, SchemaVersion)
	}
	if !(r.HitRatio > 0 && r.HitRatio <= 1) {
		return fmt.Errorf("hit_ratio %v outside (0,1]", r.HitRatio)
	}
	if n := len(r.Absent) + len(r.Lossy); n > lim.MaxObservations {
		return fmt.Errorf("%d window rows exceed limit %d", n, lim.MaxObservations)
	}
	m := r.Matrix
	if m == nil {
		return nil
	}
	if m.NumLinks <= 0 || m.NumLinks > lim.MaxNumLinks {
		return fmt.Errorf("matrix: num_links %d outside [1,%d]", m.NumLinks, lim.MaxNumLinks)
	}
	if len(m.Paths) > lim.MaxPaths {
		return fmt.Errorf("matrix: %d paths exceed limit %d", len(m.Paths), lim.MaxPaths)
	}
	for i, links := range m.Paths {
		if len(links) > lim.MaxLinksPerPath {
			return fmt.Errorf("matrix: path %d: %d links exceed limit %d", i, len(links), lim.MaxLinksPerPath)
		}
		for _, l := range links {
			if l < 0 || int(l) >= m.NumLinks {
				return fmt.Errorf("matrix: path %d: link %d out of range [0,%d)", i, l, m.NumLinks)
			}
		}
	}
	return nil
}

// engineBytes estimates what an engine over m keeps resident: the rows,
// the probe matrix's inverted index over them, and the per-link counts.
func (m *Matrix) engineBytes() int64 {
	const linkID, sliceHeader, endpoints = 4, 24, 8
	total := int64(m.NumLinks) * (4 + sliceHeader)
	for _, links := range m.Paths {
		total += int64(len(links))*2*linkID + sliceHeader + endpoints
	}
	return total
}

// encodeLocalize translates one part's window to the wire, without the
// matrix.
func encodeLocalize(sig uint64, w pll.Window, cfg pll.Config) LocalizeRequest {
	req := LocalizeRequest{
		V: SchemaVersion, Sig: sig, HitRatio: cfg.HitRatio,
		Absent: w.Absent,
	}
	if len(w.Lossy) > 0 {
		req.Lossy = make([]LossyRow, len(w.Lossy))
		for i, o := range w.Lossy {
			req.Lossy[i] = LossyRow{Row: o.Path, Sent: o.Sent, Lost: o.Lost}
		}
	}
	return req
}

// window rebuilds the engine's inputs from the wire.
func (r *LocalizeRequest) window() (pll.Window, pll.Config) {
	w := pll.Window{Absent: r.Absent}
	if len(r.Lossy) > 0 {
		w.Lossy = make([]pll.Observation, len(r.Lossy))
		for i, o := range r.Lossy {
			w.Lossy[i] = pll.Observation{Path: o.Row, Sent: o.Sent, Lost: o.Lost}
		}
	}
	return w, pll.Config{HitRatio: r.HitRatio}
}
