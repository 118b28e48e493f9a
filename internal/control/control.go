// Package control implements the deTector controller (paper §3.1, §6.1):
// it recomputes the probe matrix with PMC every cycle, selects pingers in
// each rack, expands ToR-level probe paths into server-level routes, and
// serves pinglists plus the route-level probe matrix over HTTP.
package control

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/httpx"
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
var badRequests = obs.NewCounter("control_bad_requests",
	"Malformed controller API requests.")

// pinglistNotModified counts GET /pinglist requests answered 304: the
// pinger's If-None-Match matched the current version, so nothing shipped.
// In steady state (no churn, no unhealthy-set change) this should be
// nearly every pinglist poll.
var pinglistNotModified = obs.NewCounter("control_pinglist_not_modified",
	"GET /pinglist requests answered 304 Not Modified.")

// pinglistsChanged counts, per cycle, the nodes whose work order changed:
// a new, changed or withdrawn pinglist. Each is a pinger that must fetch a
// delta (or stop), so after a topology flap it is how many agents the flap
// reprograms.
var pinglistsChanged = obs.NewCounter("control_pinglists_changed",
	"Nodes whose pinglist changed, summed over cycles.")

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

	// cycle serializes RunCycle: each cycle's serve stage starts from the
	// last one's orders.
	cycle sync.Mutex

	mu      sync.RWMutex
	version int
	// nodes holds every node that has ever held a pinglist: its work order,
	// the birth of each entry and its delta history ring.
	nodes    map[topo.NodeID]*nodeState
	matrix   *Matrix
	pmcStats pmc.Stats
	coord    *shard.Coordinator
	// served is the last cycle's serve input and output, the base the next
	// cycle's serve stage rebuilds from.
	served serveState

	// servers[t*k/2+slot] is the server in slot slot under the ToR of flat
	// index t (its position in ServersUnder), uplink the same server's
	// link to that ToR.
	servers []topo.NodeID
	uplink  []topo.LinkID
}

// nodeState is what the controller keeps for one node.
type nodeState struct {
	// pl is the node's published pinglist, and at the version of the last
	// cycle that made the node a pinger. While at lags the controller's
	// version the node is not a pinger, and pl is the last pinglist it
	// held, kept to compare its next one against.
	pl *Pinglist
	at int
	// etag is pl's entity tag, formatted once when pl was published.
	etag string
	// births[i] is pl.Entries[i]'s birth: the first version of the run of
	// the node's consecutive published versions in which the entry with
	// that path ID had its current definition.
	births []int32
	// ring holds the node's last deltaHistory published versions, each as
	// its ascending path IDs; next is the slot the next version overwrites.
	ring [deltaHistory]published
	next int
}

// published is one version of a node's pinglist as the delta history
// keeps it.
type published struct {
	version int
	ids     []uint32
}

// serveState is one cycle's serve stage: the selection and healthy server
// slots it read, and the work orders it built. Pinger j of rack t is order
// t*ppr + j.
type serveState struct {
	selected []int
	healthy  [][]int32
	orders   []order
}

// order is one pinger's work order: its pinglist and the link slab its
// matrix rows point into. A rack slot with no routes has a nil pl.
type order struct {
	pl   *Pinglist
	link []topo.LinkID
}

// deltaHistory bounds the per-node pinglist history ring.
const deltaHistory = 8

// New creates a controller; call RunCycle before serving.
func New(f *topo.Fattree, cfg Config) *Controller {
	c := &Controller{
		F: f, Cfg: cfg,
		nodes: make(map[topo.NodeID]*nodeState),
		tr:    obs.NewTracer("control", 16),
	}
	for _, tor := range f.ToRList() {
		for _, sv := range f.ServersUnder(tor) {
			c.servers = append(c.servers, sv)
			c.uplink = append(c.uplink, f.MustLink(sv, tor))
		}
	}
	return c
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
// of Cfg.ShardEndpoints — whose selection store answers every component it
// has answered before, so a cycle after an unhealthy-set change (which
// only affects the serve phase) costs no construction at all. The merge
// guarantee means the selection is bit-identical in every configuration.
func (c *Controller) coordinator(ps route.PathSet) (*shard.Coordinator, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord != nil {
		return c.coord, nil
	}
	if ps == nil {
		ps = route.NewFattreePaths(c.F)
	}
	opt := shard.Options{
		Shards:    c.Cfg.Shards,
		TTL:       c.Cfg.ShardTTL,
		PMC:       pmc.Options{Alpha: c.Cfg.Alpha, Beta: c.Cfg.Beta},
		DownLinks: c.Cfg.DownLinks,
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
// components touching a changed link change, and the next RunCycle answers
// exactly those — every other component's selection is reused verbatim.
// The coordinator repairs a component the mask cut into from its pristine
// parent's stored selection, so a flap reprograms only the pingers whose
// paths it actually touched and dispatches nothing to the shards; one
// coming back up takes the stored pristine selection again. Safe before
// the first cycle (the coordinator is created on demand).
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
	c.cycle.Lock()
	defer c.cycle.Unlock()
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

	// Healthy server slots (positions under the ToR) per flat ToR index,
	// computed once a cycle: every selected path reads two of these lists.
	torList := c.F.ToRList()
	spr := c.F.Half() // servers per rack
	healthy := make([][]int32, len(torList))
	slots := make([]int32, 0, len(c.servers))
	for t := range healthy {
		from := len(slots)
		for slot := 0; slot < spr; slot++ {
			if !unhealthy[c.servers[t*spr+slot]] {
				slots = append(slots, int32(slot))
			}
		}
		healthy[t] = slots[from:len(slots):len(slots)]
	}

	c.mu.RLock()
	version := c.version + 1
	last := c.served
	c.mu.RUnlock()

	labels := make([]uint32, c.Cfg.FlowLabels)
	for i := range labels {
		labels[i] = uint32(33434 + i)
	}

	// Path IDs are stable across cycles, not dense row indices: a ToR-level
	// route's ID is derived from its candidate index and replica slot, an
	// intra-rack route's from its rack and destination server slot. A route
	// that survives churn keeps its ID, which is what makes pinglist deltas
	// (and the pinger's cross-cycle counters) possible. The diagnoser maps
	// IDs to matrix rows through route.Probes.RowOf.
	stride := max(c.Cfg.Redundancy, 1)
	if err := checkPathIDs(ps.Len(), stride, len(c.servers)); err != nil {
		return err
	}
	intraBase := uint32(ps.Len() * stride)

	// eachRoute visits every route in serving order. ToR-level matrix paths
	// are expanded to server routes first: each selected path idx is probed
	// by Redundancy pingers under its source ToR s, replica r toward a
	// responder under the destination ToR d. Intra-rack probing then covers
	// server-ToR links (§3.1): each rack's first healthy pinger probes every
	// other healthy server under the same ToR, idx -1 and r the
	// destination's slot. The pinger is entry j of its rack's healthy list,
	// the responder the server in slot resp.
	eachRoute := func(visit func(idx, r, s, d, j int, resp int32)) {
		for _, idx := range res.Selected {
			s, d, _ := ps.Decode(idx)
			pingers, responders := healthy[s], healthy[d]
			if len(pingers) == 0 || len(responders) == 0 {
				continue
			}
			np := min(c.Cfg.PingersPerRack, len(pingers))
			for r := 0; r < min(c.Cfg.Redundancy, np); r++ {
				visit(idx, r, s, d, (idx+r)%np, responders[(idx+r)%len(responders)])
			}
		}
		for t, servers := range healthy {
			if len(servers) < 2 {
				continue
			}
			for _, dst := range servers[1:] {
				visit(-1, int(dst), t, t, 0, dst)
			}
		}
	}
	// size is a route's node and link count. A route over a via-core path
	// crosses 7 nodes (pinger, the path's 5 switch hops, responder) and 6
	// links, 5 when its ToRs share a pod; an intra-rack route crosses 3
	// nodes and 2 links.
	size := func(idx, s, d int) (hops, links int) {
		switch {
		case idx < 0:
			return 3, 2
		case s/spr == d/spr:
			return 7, 5
		}
		return 7, 6
	}

	// Pinger j of rack t owns order t*ppr + j. An order is a function of
	// the selected paths it owns, the healthy slots and the configuration,
	// so a cycle whose healthy slots are the last cycle's rebuilds only the
	// orders owning a path that one of the two selections holds and the
	// other does not. Every other order is the last cycle's, pinglist and
	// link slab alike. The first cycle, and one whose healthy slots moved,
	// rebuilds every order.
	ppr := max(c.Cfg.PingersPerRack, 1)
	orders := make([]order, len(torList)*ppr)
	rebuild := make([]bool, len(orders))
	if last.orders != nil && sameSlots(last.healthy, healthy) {
		copy(orders, last.orders)
		eachChanged(last.selected, res.Selected, func(idx int) {
			s, _, _ := ps.Decode(idx)
			np := min(c.Cfg.PingersPerRack, len(healthy[s]))
			for r := 0; r < min(c.Cfg.Redundancy, np); r++ {
				rebuild[s*ppr+(idx+r)%np] = true
			}
		})
	} else {
		for k := range rebuild {
			rebuild[k] = true
		}
	}

	// A rebuilt order is allocated once, exact-size: count its routes
	// first, then fill its entries from one hop slab and one link slab of
	// its own. A slab per pinger, not per cycle: a pinglist kept from the
	// last cycle keeps only its own slabs alive.
	type build struct {
		routes, hops, links int
		route               []topo.NodeID
		entry, link         int // the matrix walk's cursors into the order
	}
	builds := make([]build, len(orders))
	eachRoute(func(idx, _, s, d, j int, _ int32) {
		k := s*ppr + j
		if !rebuild[k] {
			return
		}
		hops, links := size(idx, s, d)
		b := &builds[k]
		b.routes, b.hops, b.links = b.routes+1, b.hops+hops, b.links+links
	})
	for k := range orders {
		if !rebuild[k] {
			continue
		}
		b := &builds[k]
		if b.routes == 0 {
			orders[k] = order{}
			continue
		}
		t, j := k/ppr, k%ppr
		orders[k] = order{
			pl: &Pinglist{
				Version: version, Node: c.servers[t*spr+int(healthy[t][j])],
				RatePPS: c.Cfg.RatePPS, WindowMS: c.Cfg.WindowMS,
				ReportURL: c.Cfg.ReportURL,
				Entries:   make([]Entry, 0, b.routes),
			},
			link: make([]topo.LinkID, 0, b.links),
		}
		b.route = make([]topo.NodeID, 0, b.hops)
	}
	eachRoute(func(idx, r, s, d, j int, resp int32) {
		k := s*ppr + j
		if !rebuild[k] {
			return
		}
		o, b := &orders[k], &builds[k]
		src, dst := s*spr+int(healthy[s][j]), d*spr+int(resp)
		h0 := len(b.route)
		b.route = append(b.route, c.servers[src])
		o.link = append(o.link, c.uplink[src])
		var id uint32
		if idx >= 0 {
			b.route = ps.AppendHops(idx, b.route)
			o.link = ps.AppendLinks(idx, o.link)
			id = uint32(idx*stride + r)
		} else {
			b.route = append(b.route, torList[s])
			id = intraBase + uint32(s*spr+r)
		}
		b.route = append(b.route, c.servers[dst])
		o.link = append(o.link, c.uplink[dst])
		o.pl.Entries = append(o.pl.Entries, Entry{
			PathID: id, Route: b.route[h0:len(b.route):len(b.route)], FlowLabels: labels, DSCP: c.Cfg.DSCP,
		})
	})

	// The matrix lists every route in serving order, its links a window of
	// its order's link slab: each order's entries come in the same order.
	total := 0
	for k := range orders {
		if pl := orders[k].pl; pl != nil {
			total += len(pl.Entries)
		}
	}
	matrix := &Matrix{Version: version, NumLinks: c.F.NumLinks(), Paths: make([]MatrixPath, 0, total)}
	eachRoute(func(idx, _, s, d, j int, _ int32) {
		o, b := &orders[s*ppr+j], &builds[s*ppr+j]
		e := &o.pl.Entries[b.entry]
		_, n := size(idx, s, d)
		matrix.Paths = append(matrix.Paths, MatrixPath{
			PathID: e.PathID, Links: o.link[b.link : b.link+n : b.link+n],
			Src: e.Route[0], Dst: e.Route[len(e.Route)-1],
		})
		b.entry, b.link = b.entry+1, b.link+n
	})

	c.commit(version, serveState{selected: res.Selected, healthy: healthy, orders: orders}, rebuild, last, matrix, res.Stats)
	return nil
}

// commit publishes one cycle under c.mu: every rebuilt order of next whose
// pinglist changed enters its node's delta history, the orders withdrawn
// since last are counted, and next becomes the served state. The deferred
// unlock lets a panic here propagate without leaving c.mu held, which would
// wedge every reader and Close behind it.
func (c *Controller) commit(version int, next serveState, rebuild []bool, last serveState, matrix *Matrix, stats pmc.Stats) {
	orders := next.orders
	c.mu.Lock()
	defer c.mu.Unlock()
	// A node whose work order did not change keeps its published pinglist
	// (same Version pointer): its ETag stays valid, so steady-state polls
	// answer 304 and deltas stay empty even as the cycle counter advances.
	// A changed one is published: it enters the node's delta history ring.
	changed := 0
	for k := range orders {
		pl := orders[k].pl
		if pl == nil {
			continue
		}
		st := c.nodes[pl.Node]
		if st == nil {
			st = new(nodeState)
			c.nodes[pl.Node] = st
		}
		if rebuild[k] {
			if st.pl != nil && st.at == c.version && pinglistEqual(st.pl, pl) {
				orders[k].pl = st.pl
			} else {
				st.publish(pl)
				changed++
			}
		}
		st.at = version
	}
	for _, o := range last.orders {
		if o.pl != nil && c.nodes[o.pl.Node].at != version {
			changed++ // withdrawn
		}
	}
	pinglistsChanged.Add(int64(changed))
	c.version = version
	c.served = next
	c.matrix = matrix
	c.pmcStats = stats
}

// checkPathIDs fails a cycle whose path IDs would not fit the 32-bit wire
// ID: stride IDs per candidate path, then one per server slot for the
// intra-rack routes.
func checkPathIDs(candidates, stride, servers int) error {
	if n := uint64(candidates)*uint64(stride) + uint64(servers); n > math.MaxUint32+1 {
		return fmt.Errorf("control: %d candidate paths × %d replicas + %d intra-rack IDs = %d path IDs, past the 32-bit ID space",
			candidates, stride, servers, n)
	}
	return nil
}

// sameSlots reports whether two cycles read the same healthy slots.
func sameSlots(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if !slices.Equal(a[t], b[t]) {
			return false
		}
	}
	return true
}

// eachChanged visits every path that exactly one of two ascending
// selections holds.
func eachChanged(a, b []int, visit func(idx int)) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			visit(a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			visit(b[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
}

// publish makes pl the node's pinglist. An entry equal to the one with its
// path ID in the node's last pinglist keeps that entry's birth, any other
// is born at pl.Version, and pl's path IDs overwrite the ring's oldest
// version.
func (st *nodeState) publish(pl *Pinglist) {
	births := make([]int32, len(pl.Entries))
	ids := make([]uint32, len(pl.Entries))
	i := 0
	for j := range pl.Entries {
		e := &pl.Entries[j]
		ids[j], births[j] = e.PathID, int32(pl.Version)
		if st.pl == nil {
			continue
		}
		for i < len(st.pl.Entries) && st.pl.Entries[i].PathID < e.PathID {
			i++
		}
		if i < len(st.pl.Entries) && entryEqual(&st.pl.Entries[i], e) {
			births[j] = st.births[i]
		}
	}
	st.pl, st.births, st.etag = pl, births, pinglistETag(pl.Version)
	st.ring[st.next] = published{version: pl.Version, ids: ids}
	st.next = (st.next + 1) % deltaHistory
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
	pl, _ := c.pinglist(n)
	return pl
}

// pinglist returns a node's pinglist and its ETag, or nil when the node is
// not a pinger this cycle.
func (c *Controller) pinglist(n topo.NodeID) (*Pinglist, string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if st := c.pinger(n); st != nil {
		return st.pl, st.etag
	}
	return nil, ""
}

// pinger returns a node's state when it is a pinger this cycle. Callers
// hold c.mu.
func (c *Controller) pinger(n topo.NodeID) *nodeState {
	if st := c.nodes[n]; st != nil && st.at == c.version {
		return st
	}
	return nil
}

// PingerNodes lists the nodes with non-empty pinglists this cycle.
func (c *Controller) PingerNodes() []topo.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]topo.NodeID, 0, len(c.nodes))
	for n, st := range c.nodes {
		if st.at == c.version {
			out = append(out, n)
		}
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
		query := r.URL.Query()
		node := query.Get("node")
		id, err := strconv.Atoi(node)
		if err != nil {
			badRequests.Inc()
			httpx.Error(w, http.StatusBadRequest, "bad node id %q: %v", node, err)
			return
		}
		pl, etag := c.pinglist(topo.NodeID(id))
		if pl == nil {
			httpx.Error(w, http.StatusNotFound, "node %d is not a pinger this cycle", id)
			return
		}
		// The ETag is the pinglist's version (stable across cycles that do
		// not change this node's work order), formatted when the version
		// was published, so steady-state polls answer 304 with no body and
		// format nothing — independent of whether the client asked for the
		// delta form.
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			pinglistNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		since := 0
		if s := query.Get("since"); s != "" {
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
