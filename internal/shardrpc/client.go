package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/shard"
)

// maxShardSeries bounds the per-shard label cardinality of the client
// counter families: fleets larger than this aggregate the overflow into one
// {shard="overflow"} series instead of growing the registry without bound.
const maxShardSeries = 128

// Per-shard operational counter families, one series per shard slot. These
// replace the old flat shardrpc_client_<id>_* counters: same values, but
// the metric name is now fixed and the shard id is a label, so dashboards
// aggregate across the fleet without regexp gymnastics.
var (
	clientRequests    = obs.NewCounterVec("shardrpc_client_requests", "RPC attempts issued to the shard (pings and posts, including retries).", "shard", maxShardSeries)
	clientRetries     = obs.NewCounterVec("shardrpc_client_retries", "Idempotent RPC attempts that were retries after a transport failure.", "shard", maxShardSeries)
	clientBytesIn     = obs.NewCounterVec("shardrpc_client_bytes_in", "Bytes received from the shard (wire truth with the built-in transport).", "shard", maxShardSeries)
	clientBytesOut    = obs.NewCounterVec("shardrpc_client_bytes_out", "Bytes sent to the shard (wire truth with the built-in transport).", "shard", maxShardSeries)
	clientConnsOpened = obs.NewCounterVec("shardrpc_client_conns_opened", "New TCP connections dialed to the shard.", "shard", maxShardSeries)
	clientConnsReused = obs.NewCounterVec("shardrpc_client_conns_reused", "Requests served over a kept-alive connection.", "shard", maxShardSeries)
)

// localizeWireBytes counts the localize request bodies shipped, install
// frames included. matrixInstalls counts the requests repeated with the
// matrix attached after a server answered CodeUnknownMatrix — once per
// matrix version and server in steady state, more when a server restarts
// or evicts; it is the expected extra round trip, kept apart from the
// diagnoser's fallback counter so it is not mistaken for a fault.
var (
	localizeWireBytes = obs.NewCounter("shardrpc_localize_wire_bytes",
		"Bytes of localize request bodies sent to shard services.")
	matrixInstalls = obs.NewCounter("shardrpc_matrix_installs",
		"Localize requests repeated with the matrix attached after CodeUnknownMatrix.")
)

// ClientOptions tunes a transport client.
type ClientOptions struct {
	// HTTPClient overrides the default (30 s total-request timeout —
	// construction on a big component takes seconds, so this is a
	// hung-shard bound, not a latency bound — over a connection-counting
	// transport tuned for shard traffic). With an override the byte
	// counters degrade to payload accounting: request bodies per attempt
	// and response bytes read, no header or ping-request bytes.
	HTTPClient *http.Client
	// Attempts is how many times an idempotent call is tried before the
	// dispatch is reported failed (default 2: one retry). Construction
	// and localization are pure computations, so a retry can never
	// double-apply anything.
	Attempts int
	// MaxResponseBytes bounds every response read, mirroring the limit
	// the server enforces on requests: a misbehaving shard cannot balloon
	// coordinator memory through an unbounded response body. Default
	// DefaultLimits().MaxBodyBytes.
	MaxResponseBytes int64
}

// Client drives one remote shard service and implements shard.ShardClient,
// so a coordinator treats it exactly like an in-process shard; its Localize
// serves the diagnoser's remote localization. Per-shard
// operational counters (requests, bytes in/out, retries, connections
// opened/reused) register in internal/obs and surface at every service's
// GET /metrics.
type Client struct {
	id      int
	base    string
	hc      *http.Client
	att     int
	maxResp int64
	// wireCount is true when the client owns a counting transport: the
	// byte counters then measure actual wire traffic — headers, bodies,
	// failed attempts, pings — not just successfully posted payloads.
	wireCount bool

	mu          sync.Mutex
	expectSet   bool
	expectSig   uint64
	expectLinks int

	requests    *obs.Counter
	retries     *obs.Counter
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	connsOpened *obs.Counter
	connsReused *obs.Counter
}

// countingConn counts every byte crossing a shard connection, so the
// bytes_in/bytes_out counters report wire truth: request headers, bodies
// of attempts that died mid-flight, ping GETs — all of it.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.Add(int64(n))
	}
	return n, err
}

// Dial builds a client for the shard service at baseURL, serving
// coordinator slot id. No connection is made until the first call.
func Dial(id int, baseURL string, opt ClientOptions) *Client {
	slot := strconv.Itoa(id)
	c := &Client{
		id: id, base: baseURL,
		maxResp:     opt.MaxResponseBytes,
		requests:    clientRequests.With(slot),
		retries:     clientRetries.With(slot),
		bytesIn:     clientBytesIn.With(slot),
		bytesOut:    clientBytesOut.With(slot),
		connsOpened: clientConnsOpened.With(slot),
		connsReused: clientConnsReused.With(slot),
	}
	if c.maxResp <= 0 {
		c.maxResp = DefaultLimits().MaxBodyBytes
	}
	c.att = opt.Attempts
	if c.att <= 0 {
		c.att = 2
	}
	c.hc = opt.HTTPClient
	if c.hc == nil {
		// http.DefaultTransport keeps only 2 idle connections per host,
		// so a construct dispatch racing the heartbeat prober (plus any
		// concurrent localize) to the same shard closes and reopens
		// connections every cycle. Size the idle pool for shard traffic
		// and count bytes at the connection so the transport counters
		// cannot lie.
		dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return &countingConn{Conn: conn, in: c.bytesIn, out: c.bytesOut}, nil
			},
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}
		c.hc = &http.Client{Timeout: 30 * time.Second, Transport: tr}
		c.wireCount = true
	}
	return c
}

// ID returns the coordinator slot this client serves.
func (c *Client) ID() int { return c.id }

// Addr returns the shard service's base URL.
func (c *Client) Addr() string { return c.base }

// Close releases idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// ExpectMatrix pins the engine fingerprint the coordinator derived for
// itself (shard.MatrixChecker): every subsequent Ping verifies the shard
// reports the same matrix signature and link count, so a wrong-topology
// shard fails liveness instead of reporting healthy and failing work.
func (c *Client) ExpectMatrix(sig uint64, numLinks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expectSet = true
	c.expectSig = sig
	c.expectLinks = numLinks
}

// traceContext attaches a connection-reuse trace to a request context, so
// the conns_opened/conns_reused counters show whether keep-alive is
// actually holding under churn.
func (c *Client) traceContext(ctx context.Context) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.connsReused.Inc()
			} else {
				c.connsOpened.Inc()
			}
		},
	})
}

// readBounded reads at most max bytes of a response body, reporting
// whether the body exceeded the bound.
func readBounded(body io.Reader, max int64) ([]byte, bool, error) {
	b, err := io.ReadAll(io.LimitReader(body, max+1))
	if err != nil {
		return nil, false, err
	}
	if int64(len(b)) > max {
		return b[:max], true, nil
	}
	return b, false, nil
}

// pingResponseCap bounds the liveness probe's body; a ping is a fixed
// handful of fields, so anything past this is a sick shard.
const pingResponseCap = 4096

// Ping probes the shard service's liveness endpoint and checks its schema
// version and, once ExpectMatrix pinned one, its engine fingerprint.
func (c *Client) Ping() error {
	c.requests.Inc()
	req, err := http.NewRequestWithContext(c.traceContext(context.Background()),
		http.MethodGet, c.base+"/v1/ping", nil)
	if err != nil {
		return fmt.Errorf("shardrpc %d: ping request: %w", c.id, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("shardrpc %d: ping %s: %w", c.id, c.base, err)
	}
	defer resp.Body.Close()
	body, over, err := readBounded(resp.Body, pingResponseCap)
	if err != nil {
		return fmt.Errorf("shardrpc %d: ping read: %w", c.id, err)
	}
	if !c.wireCount {
		c.bytesIn.Add(int64(len(body)))
	}
	if over {
		return fmt.Errorf("shardrpc %d: ping response exceeds %d bytes", c.id, pingResponseCap)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shardrpc %d: ping status %s", c.id, resp.Status)
	}
	var pr PingResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("shardrpc %d: ping body: %w", c.id, err)
	}
	if pr.V != SchemaVersion {
		return fmt.Errorf("shardrpc %d: shard speaks schema v%d, client v%d", c.id, pr.V, SchemaVersion)
	}
	c.mu.Lock()
	expectSet, expectSig, expectLinks := c.expectSet, c.expectSig, c.expectLinks
	c.mu.Unlock()
	if expectSet && (pr.MatrixSig != expectSig || pr.NumLinks != expectLinks) {
		return fmt.Errorf("shardrpc %d: shard engine mismatch: matrix sig %#016x/%d links, coordinator expects %#016x/%d — built for a different topology?",
			c.id, pr.MatrixSig, pr.NumLinks, expectSig, expectLinks)
	}
	return nil
}

// statusError is a structured error response from the shard: the service
// spoke, and what it said is final for this request.
type statusError struct {
	shard  int
	path   string
	status int
	text   string // resp.Status
	code   string // httpx.ErrorBody.Code, when the body carried one
	msg    string // httpx.ErrorBody.Error, when the body carried one
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("shardrpc %d: %s: %s: %s", e.shard, e.path, e.text, e.msg)
	}
	return fmt.Sprintf("shardrpc %d: %s: status %s", e.shard, e.path, e.text)
}

// post runs one idempotent round trip of a v2 request frame with bounded
// retries and returns the success response's frame. A transport failure
// retries; any HTTP response —
// success or structured error (a *statusError) — is final, because the
// shard has already spoken. Responses are bounded by MaxResponseBytes: an
// oversized one is a final error, like any other corrupt response. A
// nonzero cycle rides in the X-Detector-Cycle header — observability only,
// never in the payload. wireBytes, when non-nil, counts the request body.
func (c *Client) post(path string, cycle uint64, body []byte, wireBytes *obs.Counter) ([]byte, error) {
	if wireBytes != nil {
		wireBytes.Add(int64(len(body)))
	}
	var lastErr error
	for attempt := 0; attempt < c.att; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
		}
		c.requests.Inc()
		req, err := http.NewRequestWithContext(c.traceContext(context.Background()),
			http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("shardrpc %d: %s: %w", c.id, path, err)
		}
		req.Header.Set("Content-Type", ContentTypeBinary)
		if cycle != 0 {
			req.Header.Set(obs.CycleHeader, strconv.FormatUint(cycle, 10))
		}
		if !c.wireCount {
			// Payload-level fallback accounting: the attempt's request
			// body counts whether or not the shard answers — failed
			// attempts move bytes too.
			c.bytesOut.Add(int64(len(body)))
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("shardrpc %d: %s: %w", c.id, path, err)
			continue
		}
		respBody, over, err := readBounded(resp.Body, c.maxResp)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("shardrpc %d: %s: read response: %w", c.id, path, err)
			continue
		}
		if !c.wireCount {
			c.bytesIn.Add(int64(len(respBody)))
		}
		if over {
			return nil, fmt.Errorf("shardrpc %d: %s: response exceeds %d bytes — refusing to buffer a runaway shard reply",
				c.id, path, c.maxResp)
		}
		if resp.StatusCode != http.StatusOK {
			se := &statusError{shard: c.id, path: path, status: resp.StatusCode, text: resp.Status}
			var eb httpx.ErrorBody
			if json.Unmarshal(respBody, &eb) == nil {
				se.code, se.msg = eb.Code, eb.Error
			}
			return nil, se
		}
		return respBody, nil
	}
	return nil, lastErr
}

// Construct dispatches one construction work order over the wire. The
// coordinator's cycle ID (req.Cycle) travels as a header, not payload.
func (c *Client) Construct(req shard.ConstructRequest) (*pmc.Result, error) {
	wreq := encodeConstruct(req)
	body, err := c.post("/v1/construct", req.Cycle, wreq.encodeBinary(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := decodeConstructRespBinary(body, c.maxResp)
	if err != nil {
		return nil, fmt.Errorf("shardrpc %d: /v1/construct: decode response: %w", c.id, err)
	}
	if resp.V != SchemaVersion {
		return nil, fmt.Errorf("shardrpc %d: construct response schema v%d, want v%d", c.id, resp.V, SchemaVersion)
	}
	return &pmc.Result{
		Selected: resp.Selected,
		Stats: pmc.Stats{
			Components: resp.Stats.Components, Candidates: resp.Stats.Candidates,
			ScoreEvals: resp.Stats.ScoreEvals, Reseeds: resp.Stats.Reseeds,
			Selected: resp.Stats.Selected, Elapsed: time.Duration(resp.Stats.ElapsedNS),
			CoverageMet: resp.Stats.CoverageMet, IdentMet: resp.Stats.IdentMet,
		},
	}, nil
}

// Localize ships one window's exceptions to the shard service and decodes
// the verdicts, which are exactly engine.Localize(w, cfg). The request names
// engine's matrix by sig (its route.RowsSignature); a service that does not
// hold it (first window of a matrix version, a restarted or evicting
// server) says so, and the same request goes again with the matrix
// attached — one extra round trip, no session to resynchronize. The
// caller's cycle ID travels as a header, not payload.
func (c *Client) Localize(cycle, sig uint64, engine *pll.Engine, w pll.Window, cfg pll.Config) (*pll.Result, error) {
	req := encodeLocalize(sig, w, cfg)
	body, err := c.post("/v1/localize", cycle, req.encodeBinary(), localizeWireBytes)
	var se *statusError
	if errors.As(err, &se) && se.status == http.StatusConflict && se.code == CodeUnknownMatrix {
		matrixInstalls.Inc()
		m := engine.Matrix()
		req.Matrix = &Matrix{NumLinks: m.NumLinks, Paths: m.PathLinks}
		body, err = c.post("/v1/localize", cycle, req.encodeBinary(), localizeWireBytes)
	}
	if err != nil {
		return nil, err
	}
	resp, err := decodeLocalizeRespBinary(body, c.maxResp)
	if err != nil {
		return nil, fmt.Errorf("shardrpc %d: /v1/localize: decode response: %w", c.id, err)
	}
	if resp.V != SchemaVersion {
		return nil, fmt.Errorf("shardrpc %d: localize response schema v%d, want v%d", c.id, resp.V, SchemaVersion)
	}
	res := &pll.Result{
		LossyPaths:       resp.LossyPaths,
		UnexplainedPaths: resp.UnexplainedPaths,
		Elapsed:          time.Duration(resp.ElapsedNS),
	}
	for _, v := range resp.Bad {
		res.Bad = append(res.Bad, pll.Verdict{Link: v.Link, Rate: v.Rate, Explained: v.Explained})
	}
	return res, nil
}

// Interface conformance: a Client is a shard.ShardClient.
var _ shard.ShardClient = (*Client)(nil)
