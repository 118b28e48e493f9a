// Package shard implements deTector's sharded controller plane: the probe
// matrix decomposes into independent path components (paper §4.3,
// Observation 1), so construction and diagnosis distribute naturally — a
// thin coordinator assigns components to N controller shards by rendezvous
// hashing, each shard runs one PMC construction and one PLL diagnoser over
// its component slice, and the coordinator merges per-shard selections and
// localization verdicts into one cluster-wide result.
//
// The coordinator talks to shards only through the ShardClient transport
// interface. Two implementations exist: the in-process Shard below (a
// direct call into the local engines) and internal/shardrpc's HTTP client,
// which drives a shard running as a standalone service on another
// machine. The coordinator cannot tell them apart — liveness, dispatch and
// failover all run through the same interface.
//
// The merge carries a hard guarantee, pinned by test: for any shard count,
// any assignment and either transport, the merged selection and the merged
// localization are bit-identical to the single-controller engine. This
// holds because components are independent subproblems (no candidate path
// and no probe path crosses two components), PMC solves each component in
// isolation and sorts the merged selection, and PLL's hit ratios and
// greedy cover only ever read paths within one component.
//
// The guarantee is scoped to construction and to the diagnosis plane's
// component partition (NewPlane). Server-level probe matrices entangle
// every component through shared pinger uplinks, collapsing that
// partition to one shard; for those, a plane over
// route.InteriorPartition (NewPlaneFrom) deliberately cuts the
// server-edge links and merges with a reconciliation pass — verdicts stay
// empirically equivalent (differential-tested bound) rather than
// bit-identical, and the cut-link replication counts quantify exactly
// what was traded.
//
// Shard liveness runs through a dedicated watchdog fed by transport pings:
// the coordinator probes every shard each heartbeat period, and when a
// shard's pings fail for the TTL the coordinator reassigns its components
// to the surviving shards at the next recompute cycle. A shard that still
// answers pings but fails a dispatched construction is quarantined and its
// components re-dispatched within the same cycle — the coordinator never
// serves a partial merge. Rendezvous hashing keys on route.Component.Key
// (the component's smallest link ID, stable across recomputes), so a death
// moves exactly the dead shard's components and nothing else.
package shard

import (
	"fmt"
	"sync"

	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
)

// Shard is the in-process ShardClient: one emulated controller process
// holding its own handle on the candidate matrix. Construction and
// diagnosis run as direct calls into the local engines; Kill simulates a
// crash (pings and dispatches fail until Revive), which the coordinator
// observes through ping failures exactly as it would a remote shard's
// dead TCP endpoint.
type Shard struct {
	id       int
	ps       route.PathSet
	csr      *route.CSR
	numLinks int
	// own is set on a shard over its own materialization (NewInProcess):
	// a request must name its matrix by fingerprint. The coordinator's
	// default shards share its CSR, so no request can name another matrix.
	own bool

	mu     sync.Mutex
	killed bool
}

// NewInProcess builds a standalone in-process shard over its own
// materialization of ps. The coordinator shares one materialization across
// its default shards instead; this entry point is for tests and embedders
// that assemble a mixed client set by hand.
func NewInProcess(id int, ps route.PathSet, numLinks int) *Shard {
	return &Shard{id: id, ps: ps, csr: route.MaterializeCSR(ps), numLinks: numLinks, own: true}
}

// ID returns the shard's coordinator slot.
func (s *Shard) ID() int { return s.id }

// Addr names the transport: in-process shards have no endpoint.
func (s *Shard) Addr() string { return "in-process" }

// Ping reports liveness; a killed shard fails like a closed socket.
func (s *Shard) Ping() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return fmt.Errorf("shard %d: killed", s.id)
	}
	return nil
}

// Construct runs PMC over the assigned component slice.
func (s *Shard) Construct(req ConstructRequest) (*pmc.Result, error) {
	if err := s.Ping(); err != nil {
		return nil, err
	}
	if s.own {
		if sig := s.csr.Signature(s.numLinks); req.MatrixSig != sig {
			return nil, fmt.Errorf("shard %d: matrix signature %#016x does not match engine %#016x",
				s.id, req.MatrixSig, sig)
		}
	}
	if req.NumLinks != s.numLinks {
		return nil, fmt.Errorf("shard %d: numLinks %d does not match engine %d",
			s.id, req.NumLinks, s.numLinks)
	}
	return pmc.ConstructComponents(s.ps, s.csr, req.Comps, s.numLinks, req.Opt)
}

// Localize runs the part's engine over the window. The cycle ID is unused
// in-process: the caller's own span already covers this call.
func (s *Shard) Localize(_ uint64, part *Part, w pll.Window, cfg pll.Config) (*pll.Result, error) {
	if err := s.Ping(); err != nil {
		return nil, err
	}
	return part.Engine.Localize(w, cfg)
}

// Kill simulates a crash: every subsequent Ping, Construct and Localize
// fails until Revive. The coordinator notices once the watchdog TTL
// expires (or immediately, if a dispatch hits the dead shard first) and
// reassigns the shard's components. Idempotent.
func (s *Shard) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.killed = true
}

// Revive recovers a killed shard, modeling a restarted controller process
// rejoining the plane.
func (s *Shard) Revive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.killed = false
}

// Close permanently stops the shard (teardown); same observable effect as
// Kill.
func (s *Shard) Close() error {
	s.Kill()
	return nil
}
