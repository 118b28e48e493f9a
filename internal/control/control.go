// Package control implements the deTector controller (paper §3.1, §6.1):
// it recomputes the probe matrix with PMC every cycle, selects pingers in
// each rack, expands ToR-level probe paths into server-level routes, and
// serves pinglists plus the route-level probe matrix over HTTP.
package control

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/metrics"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shard"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// badRequests counts malformed controller API requests (bad node ids,
// wrong methods) so that a misconfigured agent fleet is visible without
// log scraping.
var badRequests = metrics.NewCounter("control_bad_requests")

// pinglistNotModified counts GET /pinglist requests answered 304: the
// pinger's If-None-Match matched the current version, so nothing shipped.
// In steady state (no churn, no unhealthy-set change) this should be
// nearly every pinglist poll.
var pinglistNotModified = metrics.NewCounter("control_pinglist_not_modified")

// pinglistsChanged counts, per cycle, the nodes whose work order changed:
// a new, changed or withdrawn pinglist. Each is a pinger that must fetch a
// delta (or stop), so after a topology flap it is how many agents the flap
// reprograms.
var pinglistsChanged = metrics.NewCounter("control_pinglists_changed")

// stageServe times the serve phase of a cycle: pinger selection, route
// expansion and matrix assembly, after construction has returned.
var stageServe = obs.Stages.With("serve")

// Config tunes the controller.
type Config struct {
	// Alpha and Beta are the PMC targets. The testbed default is (3,1):
	// 2-identifiability is impossible on a 4-ary Fattree (§6.3).
	Alpha, Beta int
	// PingersPerRack is how many servers per rack send probes (paper: 2-4).
	PingersPerRack int
	// Redundancy is how many pingers probe each ToR-level path (paper: >=2
	// for pinger fault tolerance).
	Redundancy int
	// FlowLabels is the per-path flow diversity (the port-range analog).
	FlowLabels int
	// RatePPS is the per-pinger probe rate (paper default: 10).
	RatePPS int
	// WindowMS is the report aggregation window.
	WindowMS int
	// ReportURL is where pingers POST results (the diagnoser).
	ReportURL string
	// DSCP marks probe QoS class.
	DSCP uint8
	// Shards, when > 1, runs probe matrix construction on the sharded
	// controller plane: the coordinator decomposes the candidate matrix,
	// assigns components to Shards controller shards, and merges the
	// per-shard selections — bit-identical to the single-controller
	// result, but with the construction critical path divided across
	// shards (and surviving shard death via ShardTTL).
	Shards int
	// ShardTTL marks a shard dead after this heartbeat silence
	// (default 10 s).
	ShardTTL time.Duration
	// ShardEndpoints lists remote shard service URLs (detectord
	// -shard-serve processes speaking internal/shardrpc). When set, the
	// coordinator drives those services over the transport instead of
	// booting in-process shards; Shards is implied (= len(ShardEndpoints)).
	// Every service must be built for the same topology — the matrix
	// signature handshake rejects a mismatched fleet.
	ShardEndpoints []string
	// Partition selects the diagnosis plane's ownership derivation:
	// "exact" (default — connected components over every link) or
	// "approx" (components over interior links only, cutting server-edge
	// links so server-level matrices split into per-subtree partitions;
	// cut links carry a measured accuracy bound instead of forcing one
	// global partition). Parsed by shard.ParsePartitionPolicy; an unknown
	// value fails the first construction cycle loudly.
	Partition string
	// DownLinks marks links failed at boot: candidate paths traversing
	// them are masked out of construction from the first cycle. Further
	// topology churn arrives at runtime via ApplyChurn / POST /churn.
	DownLinks []topo.LinkID
}

// DefaultConfig mirrors the paper's operating point, with the aggregation
// window left to the caller (30 s in production, milliseconds in tests).
func DefaultConfig() Config {
	return Config{
		Alpha: 3, Beta: 1,
		PingersPerRack: 2,
		Redundancy:     2,
		FlowLabels:     16,
		RatePPS:        10,
		WindowMS:       30000,
	}
}

// Entry is one probe route in a pinglist.
type Entry struct {
	// PathID identifies the route matrix-wide; reports aggregate on it.
	PathID uint32 `json:"path_id"`
	// Route is the full node sequence, pinger server to responder server.
	Route []topo.NodeID `json:"route"`
	// FlowLabels to rotate through (packet entropy).
	FlowLabels []uint32 `json:"flow_labels"`
	DSCP       uint8    `json:"dscp"`
}

// Pinglist is the per-pinger work order.
type Pinglist struct {
	Version   int         `json:"version"`
	Node      topo.NodeID `json:"node"`
	RatePPS   int         `json:"rate_pps"`
	WindowMS  int         `json:"window_ms"`
	ReportURL string      `json:"report_url"`
	Entries   []Entry     `json:"entries"`
}

// MatrixPath is one row of the route-level probe matrix as served to the
// diagnoser: the link set of a PathID.
type MatrixPath struct {
	PathID uint32        `json:"path_id"`
	Links  []topo.LinkID `json:"links"`
	Src    topo.NodeID   `json:"src"`
	Dst    topo.NodeID   `json:"dst"`
}

// Matrix is the serialized route-level probe matrix.
type Matrix struct {
	Version  int          `json:"version"`
	NumLinks int          `json:"num_links"`
	Paths    []MatrixPath `json:"paths"`
}

// Controller owns matrix computation and pinglist assembly.
type Controller struct {
	F   *topo.Fattree
	Cfg Config

	tr *obs.Tracer

	mu        sync.RWMutex
	version   int
	pinglists map[topo.NodeID]*Pinglist
	// history keeps, per node, the last deltaHistory distinct published
	// pinglists (newest last) — the bases the delta endpoint can diff
	// against. A since= version that has aged out falls back to a full
	// snapshot.
	history  map[topo.NodeID][]*Pinglist
	matrix   *Matrix
	pmcStats pmc.Stats
	coord    *shard.Coordinator
}

// deltaHistory bounds the per-node pinglist history ring.
const deltaHistory = 8

// New creates a controller; call RunCycle before serving.
func New(f *topo.Fattree, cfg Config) *Controller {
	return &Controller{
		F: f, Cfg: cfg,
		pinglists: make(map[topo.NodeID]*Pinglist),
		history:   make(map[topo.NodeID][]*Pinglist),
		tr:        obs.NewTracer("control", 16),
	}
}

// Tracer exposes the controller's cycle tracer (the /statusz source).
func (c *Controller) Tracer() *obs.Tracer { return c.tr }

// Coordinator returns the sharded-plane coordinator, or nil when running
// single-controller (Cfg.Shards <= 1) or before the first cycle.
func (c *Controller) Coordinator() *shard.Coordinator {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.coord
}

// Close stops the shard heartbeat loops (no-op when unsharded).
func (c *Controller) Close() {
	c.mu.Lock()
	coord := c.coord
	c.coord = nil
	c.mu.Unlock()
	if coord != nil {
		coord.Stop()
	}
}

// coordinator returns the construction coordinator, creating it on first
// use. Construction always runs through the coordinator — one in-process
// shard when unsharded, Cfg.Shards in-process shards, or the remote fleet
// of Cfg.ShardEndpoints — with selection reuse on: a cycle recomputes only
// components the topology diff dirtied since the last one, so an
// unhealthy-set change (which only affects the serve phase) costs no
// construction at all. The merge guarantee means the selection is
// bit-identical in every configuration.
func (c *Controller) coordinator(ps route.PathSet) (*shard.Coordinator, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord != nil {
		return c.coord, nil
	}
	if ps == nil {
		ps = route.NewFattreePaths(c.F)
	}
	partition, err := shard.ParsePartitionPolicy(c.Cfg.Partition)
	if err != nil {
		return nil, err
	}
	opt := shard.Options{
		Shards:          c.Cfg.Shards,
		TTL:             c.Cfg.ShardTTL,
		PMC:             pmc.Options{Alpha: c.Cfg.Alpha, Beta: c.Cfg.Beta},
		DownLinks:       c.Cfg.DownLinks,
		ReuseSelections: true,
		Partition:       partition,
	}
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	if len(c.Cfg.ShardEndpoints) > 0 {
		opt.Shards = 0
		for i, ep := range c.Cfg.ShardEndpoints {
			opt.Clients = append(opt.Clients, shardrpc.Dial(i, ep, shardrpc.ClientOptions{}))
		}
	}
	coord, err := shard.New(ps, c.F.NumLinks(), opt)
	if err != nil {
		return nil, err
	}
	c.coord = coord
	return coord, nil
}

// construct runs one PMC cycle through the coordinator.
func (c *Controller) construct(ps *route.FattreePaths, cy *obs.Cycle) (*pmc.Result, error) {
	coord, err := c.coordinator(ps)
	if err != nil {
		return nil, err
	}
	res, err := coord.ConstructCycle(cy)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

// ApplyChurn feeds a topology change (links going down, links coming back)
// into the construction plane. The diff is computed incrementally: only
// components touching a changed link are marked dirty, and the next
// RunCycle constructs exactly those — every clean component's selection is
// reused verbatim. A dirty component the mask cut into is repaired from its
// pristine class selection, so a flap reprograms only the pingers whose
// paths it actually touched; one coming back up takes the pristine class
// selection again. Safe before the first cycle (the coordinator is created
// on demand).
func (c *Controller) ApplyChurn(down, up []topo.LinkID) (route.Diff, error) {
	coord, err := c.coordinator(nil)
	if err != nil {
		return route.Diff{}, err
	}
	return coord.ApplyChurn(down, up)
}

// DownLinks returns the links currently masked out of construction.
func (c *Controller) DownLinks() []topo.LinkID {
	c.mu.RLock()
	coord := c.coord
	c.mu.RUnlock()
	if coord == nil {
		return append([]topo.LinkID(nil), c.Cfg.DownLinks...)
	}
	return coord.DownLinks()
}

// RunCycle recomputes the probe matrix and pinglists (paper: every 10
// minutes). unhealthy servers are skipped when selecting pingers and
// responders.
func (c *Controller) RunCycle(unhealthy map[topo.NodeID]bool) error {
	cy := c.tr.StartCycle("construct")
	defer cy.End()
	sp := cy.Span("paths")
	ps := route.NewFattreePaths(c.F)
	sp.End()
	sp = cy.Span("construct")
	res, err := c.construct(ps, cy)
	sp.EndErr(err)
	if err != nil {
		return fmt.Errorf("control: PMC: %w", err)
	}
	serveStart := time.Now()
	serveSpan := cy.Span("serve")
	defer func() {
		serveSpan.End()
		stageServe.Observe(time.Since(serveStart))
	}()

	// Healthy servers per flat ToR index, computed once a cycle: every
	// selected path reads two of these lists.
	torList := c.F.ToRList()
	healthy := make([][]topo.NodeID, len(torList))
	for i, tor := range torList {
		for _, s := range c.F.ServersUnder(tor) {
			if !unhealthy[s] {
				healthy[i] = append(healthy[i], s)
			}
		}
	}

	version := 0
	c.mu.RLock()
	version = c.version + 1
	c.mu.RUnlock()

	lists := make(map[topo.NodeID]*Pinglist)
	getList := func(n topo.NodeID) *Pinglist {
		if pl, ok := lists[n]; ok {
			return pl
		}
		pl := &Pinglist{
			Version: version, Node: n,
			RatePPS: c.Cfg.RatePPS, WindowMS: c.Cfg.WindowMS,
			ReportURL: c.Cfg.ReportURL,
		}
		lists[n] = pl
		return pl
	}
	labels := make([]uint32, c.Cfg.FlowLabels)
	for i := range labels {
		labels[i] = uint32(33434 + i)
	}

	matrix := &Matrix{Version: version, NumLinks: c.F.NumLinks()}

	addRoute := func(id uint32, pinger topo.NodeID, hops []topo.NodeID, links []topo.LinkID, dst topo.NodeID) {
		mp := MatrixPath{PathID: id, Links: links, Src: pinger, Dst: dst}
		matrix.Paths = append(matrix.Paths, mp)
		getList(pinger).Entries = append(getList(pinger).Entries, Entry{
			PathID: id, Route: hops, FlowLabels: labels, DSCP: c.Cfg.DSCP,
		})
	}

	// Path IDs are stable across cycles, not dense row indices: a ToR-level
	// route's ID is derived from its candidate index and replica slot, an
	// intra-rack route's from its rack and destination server slot. A route
	// that survives churn keeps its ID, which is what makes pinglist deltas
	// (and the pinger's cross-cycle counters) possible. The diagnoser maps
	// IDs to matrix rows through route.Probes.RowOf.
	stride := c.Cfg.Redundancy
	if stride < 1 {
		stride = 1
	}
	intraBase := uint32(ps.Len() * stride)

	// ToR-level matrix paths expanded to server routes: each selected path
	// is probed by Redundancy pingers under its source ToR, each toward a
	// responder under the destination ToR.
	var hopBuf []topo.NodeID
	for _, idx := range res.Selected {
		s, d, core := ps.Decode(idx)
		srcToR, dstToR := torList[s], torList[d]
		pingers, responders := healthy[s], healthy[d]
		if len(pingers) == 0 || len(responders) == 0 {
			continue
		}
		np := c.Cfg.PingersPerRack
		if np > len(pingers) {
			np = len(pingers)
		}
		red := c.Cfg.Redundancy
		if red > np {
			red = np
		}
		for r := 0; r < red; r++ {
			pinger := pingers[(idx+r)%np]
			responder := responders[(idx+r)%len(responders)]
			hopBuf = hopBuf[:0]
			hopBuf = append(hopBuf, pinger)
			hopBuf = c.F.PathHops(srcToR, dstToR, core, hopBuf)
			hopBuf = append(hopBuf, responder)
			links := make([]topo.LinkID, 0, 8)
			links = append(links, c.F.MustLink(pinger, srcToR))
			links = c.F.PathLinks(srcToR, dstToR, core, links)
			links = append(links, c.F.MustLink(dstToR, responder))
			addRoute(uint32(idx*stride+r), pinger, append([]topo.NodeID(nil), hopBuf...), links, responder)
		}
	}

	// Intra-rack probing covers server-ToR links (§3.1): each rack's first
	// healthy pinger probes every other healthy server under the same ToR.
	// The ID slot is the destination's position in the rack's full server
	// list, so a server going unhealthy does not renumber its rackmates.
	spr := c.F.Half()
	for torIdx, tor := range c.F.ToRs() {
		servers := healthy[c.F.ToRIndex(tor)]
		if len(servers) < 2 {
			continue
		}
		all := c.F.ServersUnder(tor)
		slot := make(map[topo.NodeID]int, len(all))
		for i, sv := range all {
			slot[sv] = i
		}
		pinger := servers[0]
		for _, dst := range servers[1:] {
			hops := []topo.NodeID{pinger, tor, dst}
			links := []topo.LinkID{c.F.MustLink(pinger, tor), c.F.MustLink(tor, dst)}
			addRoute(intraBase+uint32(torIdx*spr+slot[dst]), pinger, hops, links, dst)
		}
	}

	c.mu.Lock()
	// A node whose work order did not change keeps its published pinglist
	// (same Version pointer): its ETag stays valid, so steady-state polls
	// answer 304 and deltas stay empty even as the cycle counter advances.
	// Changed pinglists enter the node's delta history ring.
	changed := 0
	for n, pl := range lists {
		if prev := c.pinglists[n]; prev != nil && pinglistEqual(prev, pl) {
			lists[n] = prev
			continue
		}
		changed++
		h := append(c.history[n], pl)
		if len(h) > deltaHistory {
			h = h[len(h)-deltaHistory:]
		}
		c.history[n] = h
	}
	for n := range c.pinglists {
		if lists[n] == nil {
			changed++
		}
	}
	pinglistsChanged.Add(int64(changed))
	c.version = version
	c.pinglists = lists
	c.matrix = matrix
	c.pmcStats = res.Stats
	c.mu.Unlock()
	return nil
}

// pinglistEqual reports whether two pinglists describe the same work order
// (everything but the version).
func pinglistEqual(a, b *Pinglist) bool {
	if a.Node != b.Node || a.RatePPS != b.RatePPS || a.WindowMS != b.WindowMS ||
		a.ReportURL != b.ReportURL || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if !entryEqual(&a.Entries[i], &b.Entries[i]) {
			return false
		}
	}
	return true
}

func entryEqual(a, b *Entry) bool {
	if a.PathID != b.PathID || a.DSCP != b.DSCP ||
		len(a.Route) != len(b.Route) || len(a.FlowLabels) != len(b.FlowLabels) {
		return false
	}
	for i := range a.Route {
		if a.Route[i] != b.Route[i] {
			return false
		}
	}
	for i := range a.FlowLabels {
		if a.FlowLabels[i] != b.FlowLabels[i] {
			return false
		}
	}
	return true
}

// Version returns the current cycle version (0 before the first cycle).
func (c *Controller) Version() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// PMCStats returns the last cycle's construction statistics.
func (c *Controller) PMCStats() pmc.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pmcStats
}

// PinglistFor returns the pinglist of a node (nil when the node is not a
// pinger this cycle).
func (c *Controller) PinglistFor(n topo.NodeID) *Pinglist {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pinglists[n]
}

// PingerNodes lists the nodes with non-empty pinglists this cycle.
func (c *Controller) PingerNodes() []topo.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]topo.NodeID, 0, len(c.pinglists))
	for n := range c.pinglists {
		out = append(out, n)
	}
	return out
}

// ProbeMatrix materializes the served matrix as route.Probes for in-process
// consumers (the diagnoser fetches the same data over HTTP).
func (c *Controller) ProbeMatrix() *route.Probes {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return matrixToProbes(c.matrix)
}

func matrixToProbes(m *Matrix) *route.Probes {
	if m == nil {
		return nil
	}
	links := make([][]topo.LinkID, len(m.Paths))
	ids := make([]uint32, len(m.Paths))
	for i, mp := range m.Paths {
		links[i] = mp.Links
		ids[i] = mp.PathID
	}
	p := route.NewProbesFromLinks(links, m.NumLinks)
	for i, mp := range m.Paths {
		p.Src[i], p.Dst[i] = mp.Src, mp.Dst
	}
	// Path IDs are sparse and stable across churn; consumers translate
	// them to rows through RowOf.
	p.SetIDs(ids)
	return p
}

// Handler serves GET /pinglist?node=ID, GET /matrix and GET /version.
// Malformed requests get structured JSON errors with accurate status codes
// and bump the control_bad_requests counter.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/pinglist", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			badRequests.Inc()
			return
		}
		node := r.URL.Query().Get("node")
		id, err := strconv.Atoi(node)
		if err != nil {
			badRequests.Inc()
			httpx.Error(w, http.StatusBadRequest, "bad node id %q: %v", node, err)
			return
		}
		pl := c.PinglistFor(topo.NodeID(id))
		if pl == nil {
			httpx.Error(w, http.StatusNotFound, "node %d is not a pinger this cycle", id)
			return
		}
		// The ETag is the pinglist's version (stable across cycles that do
		// not change this node's work order), so steady-state polls answer
		// 304 with no body — independent of whether the client asked for
		// the delta form.
		etag := pinglistETag(pl.Version)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			pinglistNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		since := 0
		if s := r.URL.Query().Get("since"); s != "" {
			since, err = strconv.Atoi(s)
			if err != nil || since < 0 {
				badRequests.Inc()
				httpx.Error(w, http.StatusBadRequest, "bad since version %q", s)
				return
			}
			if since >= pl.Version {
				// The client is current (or from the future — a controller
				// restart); nothing to ship.
				pinglistNotModified.Inc()
				w.WriteHeader(http.StatusNotModified)
				return
			}
			d := c.DeltaFor(topo.NodeID(id), since)
			if d == nil { // a cycle dropped the node since PinglistFor
				httpx.Error(w, http.StatusNotFound, "node %d is not a pinger this cycle", id)
				return
			}
			w.Header().Set("Content-Type", shardrpc.ContentTypeBinary)
			w.Write(d.EncodeBinary())
			return
		}
		httpx.WriteJSON(w, pl)
	})
	mux.HandleFunc("/churn", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodPost) {
			badRequests.Inc()
			return
		}
		var req ChurnRequest
		body := http.MaxBytesReader(w, r.Body, shardrpc.DefaultLimits().MaxBodyBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			badRequests.Inc()
			httpx.Error(w, http.StatusBadRequest, "bad churn body: %v", err)
			return
		}
		diff, err := c.ApplyChurn(req.Down, req.Up)
		if err != nil {
			badRequests.Inc()
			httpx.Error(w, http.StatusBadRequest, "churn rejected: %v", err)
			return
		}
		httpx.WriteJSON(w, ChurnResponse{
			RemovedComponents: len(diff.Removed),
			AddedComponents:   len(diff.Added),
			DeactivatedPaths:  len(diff.DeactivatedRows),
			ActivatedPaths:    len(diff.ActivatedRows),
			Down:              c.DownLinks(),
		})
	})
	mux.HandleFunc("/matrix", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			badRequests.Inc()
			return
		}
		c.mu.RLock()
		m := c.matrix
		c.mu.RUnlock()
		if m == nil {
			httpx.Error(w, http.StatusServiceUnavailable, "no construction cycle has completed yet")
			return
		}
		httpx.WriteJSON(w, m)
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			badRequests.Inc()
			return
		}
		fmt.Fprintf(w, "%d", c.Version())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.MetricsHandler()(w, r)
	})
	mux.HandleFunc("/shards", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			badRequests.Inc()
			return
		}
		httpx.WriteJSON(w, c.Shards())
	})
	mux.HandleFunc("/healthz", obs.HealthzHandler(func() obs.Health {
		h := obs.Health{Status: "ok", Service: "control"}
		if c.Version() == 0 {
			h.Status = "degraded"
			h.Detail = "no construction cycle has completed yet"
		}
		if coord := c.Coordinator(); coord != nil {
			if un := coord.Unhealthy(); len(un) > 0 {
				h.Status = "degraded"
				h.UnhealthyShards = un
			}
		}
		return h
	}))
	mux.HandleFunc("/statusz", obs.StatuszHandler("control", c.tr, func() any {
		return c.Shards()
	}))
	return mux
}

// ChurnRequest is the POST /churn admin body: links that went down and
// links that came back, by ID.
type ChurnRequest struct {
	Down []topo.LinkID `json:"down,omitempty"`
	Up   []topo.LinkID `json:"up,omitempty"`
}

// ChurnResponse summarizes what a churn step dirtied: the component diff
// and the path activation flips, plus the full down set after the step.
type ChurnResponse struct {
	RemovedComponents int           `json:"removed_components"`
	AddedComponents   int           `json:"added_components"`
	DeactivatedPaths  int           `json:"deactivated_paths"`
	ActivatedPaths    int           `json:"activated_paths"`
	Down              []topo.LinkID `json:"down,omitempty"`
}

// ShardsView is the operator-facing placement snapshot served at
// GET /shards: whether the plane is sharded, and when it is, shard
// liveness plus the live component → shard assignment — placement without
// log scraping.
type ShardsView struct {
	Sharded bool `json:"sharded"`
	// Status is present only when Sharded (and after the first cycle).
	Status *shard.Status `json:"status,omitempty"`
}

// Shards snapshots the sharded plane for the /shards endpoint. The view is
// configuration-driven: a single-controller boot reports sharded=false
// even though construction runs through a one-shard coordinator under the
// hood (the coordinator is an implementation detail there, not a
// deployment shape).
func (c *Controller) Shards() ShardsView {
	if c.Cfg.Shards <= 1 && len(c.Cfg.ShardEndpoints) == 0 {
		return ShardsView{}
	}
	coord := c.Coordinator()
	if coord == nil {
		return ShardsView{}
	}
	st := coord.Status()
	return ShardsView{Sharded: true, Status: &st}
}

// FetchPinglist retrieves a pinglist from a controller URL.
func FetchPinglist(client *http.Client, baseURL string, n topo.NodeID) (*Pinglist, error) {
	resp, err := client.Get(fmt.Sprintf("%s/pinglist?node=%d", baseURL, n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil // not a pinger this cycle
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("control: pinglist status %s", resp.Status)
	}
	var pl Pinglist
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		return nil, err
	}
	return &pl, nil
}
