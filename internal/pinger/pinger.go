// Package pinger implements deTector's probing agent (paper §3.1, §6.1):
// it fetches its pinglist from the controller, sends source-routed UDP
// probes at a fixed rate while rotating flow labels for packet entropy,
// detects losses by echo timeout, confirms each loss with two extra probes
// of the same content, aggregates counters per path every window, and
// POSTs the results to the diagnoser.
package pinger

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/fabric"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
	"github.com/detector-net/detector/internal/wire"
)

// PathReport is one path's counters for one window.
type PathReport struct {
	PathID uint32 `json:"path_id"`
	Sent   int    `json:"sent"`
	Lost   int    `json:"lost"`
	// MeanRTTNS is the mean round-trip time of delivered probes.
	MeanRTTNS int64 `json:"mean_rtt_ns"`
	// JitterNS is the RFC 3550 interarrival jitter of the delivered
	// probes' RTTs: the smoothed mean of |RTT(i)−RTT(i−1)|.
	JitterNS int64 `json:"jitter_ns,omitempty"`
	// ECNFrac is the fraction of delivered probes whose echo carried the
	// congestion-experienced mark (a switch set wire.FlagECN en route).
	ECNFrac float64 `json:"ecn_frac,omitempty"`
}

// Report is the window aggregate POSTed to the diagnoser.
type Report struct {
	Node    topo.NodeID  `json:"node"`
	Version int          `json:"version"`
	EndNS   int64        `json:"end_ns"`
	Results []PathReport `json:"results"`
}

// Options tunes agent behavior; zero values take the defaults noted.
type Options struct {
	// Timeout declares a probe lost when no echo arrives (default 100ms,
	// as in the paper).
	Timeout time.Duration
	// SweepEvery is the timeout scan period (default Timeout/4).
	SweepEvery time.Duration
	// ConfirmProbes is the loss-confirmation burst size (paper: 2).
	ConfirmProbes int
	// HeartbeatURL, when set, receives watchdog heartbeats every window.
	HeartbeatURL string
	// HTTPClient overrides the default client.
	HTTPClient *http.Client
	// ReportWire selects the report encoding: shardrpc.CodecJSON (default)
	// or shardrpc.CodecBinary for the v2 binary frame.
	ReportWire string
	// BatchWindows, when > 1, merges that many report windows locally
	// before shipping one pre-aggregated payload (counters summed, signal
	// means delivered-weighted). Default 1: ship every window.
	BatchWindows int
	// TopK, when > 0 and the diagnoser advertises summary ingest, ships
	// the K worst paths with full signal detail and every other probed
	// path as bare residue counters (v2 kind-6 frame). Loss localization
	// is unaffected — the residue preserves every counter — only per-path
	// latency/ECN detail is trimmed. Requires ReportWire binary.
	TopK int
	// StreamReports, when true and the diagnoser advertises the stream
	// endpoint, ships report frames over one persistent connection instead
	// of per-window POSTs. Requires ReportWire binary.
	StreamReports bool
}

type pathState struct {
	entry    control.Entry
	sent     int
	lost     int
	rttNS    int64
	acked    int
	ecn      int     // echoes that arrived congestion-marked
	jitter   float64 // RFC 3550 smoothed |RTT delta|, ns
	prevRTT  int64   // last delivered RTT, for the jitter delta
	label    int     // rotating flow-label index
	confirms int     // confirmation probes fired this window
}

type outstanding struct {
	pathIdx int
	sentAt  time.Time
	confirm bool
}

// Pinger is one probing agent bound to a server node.
type Pinger struct {
	Node topo.NodeID
	Opts Options

	topo  *topo.Topology
	rules *fabric.RuleTable
	reg   *fabric.Registry
	conn  *net.UDPConn

	pinglist      *control.Pinglist
	controllerURL string
	client        *http.Client

	mu      sync.Mutex
	paths   []*pathState
	pending map[uint64]outstanding
	nextID  uint64
	rr      int // round-robin cursor

	// Report-shipping state (report.go), under its own lock so HTTP round
	// trips never stall the probing path.
	repMu       sync.Mutex
	pend        map[uint32]*pendAgg // pending (possibly multi-window) aggregate
	pendWindows int
	caps        *shardrpc.ReportCaps
	capsOK      bool
	streamW     *io.PipeWriter // persistent report stream, nil when closed

	stop chan struct{}
	done sync.WaitGroup
}

// Start fetches the node's pinglist from the controller and begins probing.
// It returns (nil, nil) when the controller does not list this node as a
// pinger this cycle.
func Start(t *topo.Topology, rules *fabric.RuleTable, reg *fabric.Registry,
	node topo.NodeID, controllerURL string, opts Options) (*Pinger, error) {

	if opts.Timeout == 0 {
		opts.Timeout = 100 * time.Millisecond
	}
	if opts.SweepEvery == 0 {
		opts.SweepEvery = opts.Timeout / 4
	}
	if opts.ConfirmProbes == 0 {
		opts.ConfirmProbes = 2
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	pl, err := control.FetchPinglist(client, controllerURL, node)
	if err != nil {
		return nil, fmt.Errorf("pinger %d: fetch pinglist: %w", node, err)
	}
	if pl == nil || len(pl.Entries) == 0 {
		return nil, nil
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	reg.Register(node, conn.LocalAddr().(*net.UDPAddr))

	p := &Pinger{
		Node: node, Opts: opts,
		topo: t, rules: rules, reg: reg, conn: conn,
		pinglist: pl, controllerURL: controllerURL, client: client,
		pending: make(map[uint64]outstanding),
		pend:    make(map[uint32]*pendAgg),
		stop:    make(chan struct{}),
	}
	for _, e := range pl.Entries {
		p.paths = append(p.paths, &pathState{entry: e})
	}
	p.done.Add(3)
	go p.receiveLoop()
	go p.sendLoop()
	go p.sweepAndReportLoop()
	return p, nil
}

// Stop halts all loops, closes the socket and ends the report stream.
func (p *Pinger) Stop() {
	close(p.stop)
	p.conn.Close()
	p.done.Wait()
	p.closeStream()
}

// Pinglist returns the active work order.
func (p *Pinger) Pinglist() *control.Pinglist {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinglist
}

// sendLoop emits probes at RatePPS, round-robin over paths, rotating flow
// labels per path.
func (p *Pinger) sendLoop() {
	defer p.done.Done()
	tick := time.NewTicker(probeInterval(p.pinglist.RatePPS))
	defer tick.Stop()
	var buf []byte
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			buf = p.sendNext(buf, false, 0)
		}
	}
}

// sendNext sends one probe. When confirm is true it retransmits on the
// given path (loss confirmation burst).
func (p *Pinger) sendNext(buf []byte, confirm bool, pathIdx int) []byte {
	p.mu.Lock()
	if len(p.paths) == 0 {
		// Churn emptied the work order; keep the loops alive, a later
		// refresh may re-list this node.
		p.mu.Unlock()
		return buf
	}
	if !confirm {
		pathIdx = p.rr % len(p.paths)
		p.rr++
	}
	st := p.paths[pathIdx]
	label := st.entry.FlowLabels[st.label%len(st.entry.FlowLabels)]
	st.label++
	id := p.nextID
	p.nextID++
	flags := uint8(0)
	if confirm {
		flags |= wire.FlagConfirm
	}
	pkt := &wire.Packet{
		Flags:     flags,
		DSCP:      st.entry.DSCP,
		ProbeID:   id,
		PathID:    st.entry.PathID,
		FlowLabel: label,
		SendNS:    time.Now().UnixNano(),
		Route:     st.entry.Route,
	}
	st.sent++
	p.pending[id] = outstanding{pathIdx: pathIdx, sentAt: time.Now(), confirm: confirm}
	p.mu.Unlock()

	out, err := fabric.SendFirstHop(p.conn, p.reg, pkt, buf)
	if err != nil {
		// First hop unreachable: count as immediate loss.
		p.mu.Lock()
		if _, ok := p.pending[id]; ok {
			delete(p.pending, id)
			st.lost++
		}
		p.mu.Unlock()
		return buf
	}
	return out
}

// receiveLoop matches echoes to outstanding probes. Because every server
// runs the responder module (paper §3.1) and the fabric registry maps one
// socket per node, the pinger also answers incoming probe requests here.
func (p *Pinger) receiveLoop() {
	defer p.done.Done()
	buf := make([]byte, 4096)
	var echoBuf []byte
	for {
		n, _, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		pkt, err := wire.Unmarshal(buf[:n])
		if err != nil || !pkt.AtDestination() {
			continue
		}
		if pkt.Flags&wire.FlagReply == 0 {
			// Embedded responder: echo requests from other pingers.
			if pkt.Dst() != p.Node || fabric.IngressDrop(p.topo, p.rules, pkt) {
				continue
			}
			echo := pkt.Reversed(time.Now().UnixNano())
			echoBuf, _ = fabric.SendFirstHop(p.conn, p.reg, echo, echoBuf)
			continue
		}
		if fabric.IngressDrop(p.topo, p.rules, pkt) {
			continue // last-hop link ate the echo; timeout will count it
		}
		rtt := time.Now().UnixNano() - pkt.SendNS
		p.mu.Lock()
		if o, ok := p.pending[pkt.ProbeID]; ok {
			delete(p.pending, pkt.ProbeID)
			st := p.paths[o.pathIdx]
			if st.acked > 0 {
				d := float64(rtt - st.prevRTT)
				if d < 0 {
					d = -d
				}
				st.jitter += (d - st.jitter) / 16
			}
			st.prevRTT = rtt
			st.acked++
			st.rttNS += rtt
			if pkt.Flags&wire.FlagECN != 0 {
				st.ecn++
			}
		}
		p.mu.Unlock()
	}
}

// sweepAndReportLoop expires timed-out probes (counting losses and firing
// confirmation bursts) and ships one report per window epoch. Epoch e ends
// at wall-clock time e·W (W the pinglist's WindowMS), the same instant on
// every pinger, so the diagnoser closes a window that holds the same span
// of time from all of them. The report leaves a per-node stagger after the
// boundary (nextBoundary), after one more expire so every timeout already
// due is counted, and carries EndNS = e·W: it is this pinger's "epoch e is
// complete" mark, and ships even when nothing was probed.
func (p *Pinger) sweepAndReportLoop() {
	defer p.done.Done()
	sweep := time.NewTicker(p.Opts.SweepEvery)
	defer sweep.Stop()
	fire, endNS := nextBoundary(time.Now(), p.window(), p.Node)
	report := time.NewTimer(time.Until(fire))
	defer report.Stop()
	var buf []byte
	for {
		select {
		case <-p.stop:
			return
		case <-sweep.C:
			buf = p.expire(buf)
		case <-report.C:
			buf = p.expire(buf)
			p.report(endNS)
			p.sendHeartbeat()
			p.refreshPinglist()
			fire, endNS = nextBoundary(time.Now(), p.window(), p.Node)
			report.Reset(time.Until(fire))
		}
	}
}

// window is the report epoch length the active pinglist asks for; a missing
// or nonsense WindowMS falls back to the paper's 30 s.
func (p *Pinger) window() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pinglist.WindowMS <= 0 {
		return 30 * time.Second
	}
	return time.Duration(p.pinglist.WindowMS) * time.Millisecond
}

// nextBoundary returns when node's next report fires and the EndNS it
// carries: the first epoch boundary e·w whose firing time e·w + stagger is
// still ahead of now, so one epoch never fires twice. The stagger spreads
// the fleet's reports over the w/8 after the boundary in sixteen phases —
// the paper desynchronises when pingers talk to the control plane (§6.1),
// because a synchronized burst starves the dataplane — and stays small
// against w because the diagnoser waits for the last phase before closing.
func nextBoundary(now time.Time, w time.Duration, node topo.NodeID) (fire time.Time, endNS int64) {
	stagger := int64(w) / 8 * int64(uint32(node)%16) / 16
	endNS = ((now.UnixNano()-stagger)/int64(w) + 1) * int64(w)
	return time.Unix(0, endNS+stagger), endNS
}

// expire times out pending probes; non-confirm losses trigger the paper's
// two-probe confirmation burst, capped per path per window so that a hard
// failure (every probe lost) cannot amplify itself into a probe storm.
func (p *Pinger) expire(buf []byte) []byte {
	now := time.Now()
	type confirmReq struct{ pathIdx int }
	var confirms []confirmReq
	p.mu.Lock()
	for id, o := range p.pending {
		if now.Sub(o.sentAt) < p.Opts.Timeout {
			continue
		}
		delete(p.pending, id)
		st := p.paths[o.pathIdx]
		st.lost++
		if !o.confirm {
			// Clamp the burst to the remaining per-window budget: two
			// losses expiring in one sweep used to fire up to
			// 2*ConfirmProbes-1 confirms past the cap.
			for i := 0; i < p.Opts.ConfirmProbes && st.confirms < p.Opts.ConfirmProbes; i++ {
				st.confirms++
				confirms = append(confirms, confirmReq{o.pathIdx})
			}
		}
	}
	p.mu.Unlock()
	for _, c := range confirms {
		buf = p.sendNext(buf, true, c.pathIdx)
	}
	return buf
}

// probeInterval converts the pinglist rate into a ticker period. A missing
// or nonsense rate (zero, negative) falls back to one probe per
// millisecond instead of the integer divide-by-zero panic it used to be.
func probeInterval(ratePPS int) time.Duration {
	if ratePPS <= 0 {
		return time.Millisecond
	}
	iv := time.Second / time.Duration(ratePPS)
	if iv <= 0 {
		iv = time.Millisecond
	}
	return iv
}

func (p *Pinger) sendHeartbeat() {
	if p.Opts.HeartbeatURL == "" {
		return
	}
	resp, err := p.client.Post(fmt.Sprintf("%s/heartbeat?node=%d", p.Opts.HeartbeatURL, p.Node), "text/plain", nil)
	if err == nil {
		resp.Body.Close()
	}
}

// DebugTotals sums cumulative per-path counters for diagnostics and tests.
func (p *Pinger) DebugTotals() (sent, lost int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.paths {
		sent += st.acked + st.lost
		lost += st.lost
	}
	return sent, lost
}
