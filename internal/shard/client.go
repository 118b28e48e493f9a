package shard

import (
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
)

// ShardClient is the transport boundary of the sharded controller plane:
// everything the coordinator ever says to a shard, whether the shard is a
// goroutine in the same process or an HTTP service on another machine
// (internal/shardrpc). The coordinator holds only this interface — the
// merge guarantee (bit-identical output to the single-controller engines)
// is therefore a property of the protocol, not of shared memory.
//
// Implementations must be safe for concurrent use: the coordinator's
// heartbeat prober calls Ping while Construct or Localize is in flight.
type ShardClient interface {
	// ID is the shard's slot in the coordinator, 0..N-1.
	ID() int
	// Addr names the transport endpoint for operators ("in-process" for
	// local shards, the base URL for RPC shards).
	Addr() string
	// Ping checks liveness. The coordinator's watchdog heartbeats are
	// driven by this call: a nil return is one heartbeat, an error is a
	// lapse. It must be cheap and must not block behind Construct.
	Ping() error
	// Construct runs one PMC construction over the component slice in
	// req. The selection must be exactly what pmc.ConstructComponents
	// returns for the same slice on the same matrix — the coordinator
	// verifies intent via req.MatrixSig and merges by sorted union.
	Construct(req ConstructRequest) (*pmc.Result, error)
	// Localize runs one PLL pass over a plane part and one window of its
	// exceptions; the verdicts must be exactly part.Engine.Localize(w, cfg)
	// (link IDs stay in the global space, so they need no translation).
	// Transport clients name the part's matrix by part.Sig and ship it only
	// when the shard service does not hold it. cycle is the caller's
	// observability cycle ID (0 when untraced); transport clients
	// propagate it to the shard service in the X-Detector-Cycle header so
	// server-side spans file under the caller's timeline.
	Localize(cycle uint64, part *Part, w pll.Window, cfg pll.Config) (*pll.Result, error)
	// Close releases transport resources. The coordinator owns its
	// clients and closes them on Stop.
	Close() error
}

// ConstructRequest is the coordinator's work order for one shard in one
// construction cycle.
type ConstructRequest struct {
	// MatrixSig is route.MatrixSignature of the coordinator's candidate
	// matrix. A shard built over a different matrix must refuse the
	// request rather than return a plausible-but-wrong selection. It is 0
	// to the coordinator's default in-process shards, which share its
	// matrix and check nothing.
	MatrixSig uint64
	// NumLinks is the topology's link-ID space size.
	NumLinks int
	// Comps is the component slice assigned to the shard this cycle.
	Comps []route.Component
	// Opt configures the per-shard PMC run.
	Opt pmc.Options
	// Cycle is the coordinator's observability cycle ID (0 when
	// untraced). It travels to remote shards as the X-Detector-Cycle
	// header, never in the payload, so the wire schemas are untouched.
	Cycle uint64
}

// MatrixChecker is implemented by transport clients that can verify the
// shard's engine fingerprint during liveness probes. The coordinator pins
// its own (matrix signature, link count) on every such client at startup;
// from then on a Ping against a shard built for a different matrix — a
// mismatched radix or topology family — fails like a dead endpoint, so
// the misconfigured shard is declared dead instead of flapping through
// admit-dispatch-fail cycles while reporting healthy.
type MatrixChecker interface {
	ExpectMatrix(sig uint64, numLinks int)
}

// CodecReporter is implemented by transport clients that know which wire
// codec their requests travel in ("json", "binary" — negotiated at ping
// time by internal/shardrpc). The coordinator surfaces it per shard in
// Status, so a fleet stuck on the fallback codec after an upgrade is
// visible at GET /shards instead of only in payload-size graphs.
type CodecReporter interface{ Codec() string }

// Killer is implemented by shard clients that can simulate a crash for
// tests and drills (the in-process shard). Remote shards die for real:
// kill the server process instead.
type Killer interface{ Kill() }

// Reviver is implemented by shard clients that can recover from Kill.
type Reviver interface{ Revive() }
