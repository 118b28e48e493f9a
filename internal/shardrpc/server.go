package shardrpc

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/pmc"
	"github.com/detector-net/detector/internal/route"
)

var (
	serverRequests = obs.NewCounter("shardrpc_server_requests",
		"Requests a shard service received.")
	serverRejected = obs.NewCounter("shardrpc_server_rejected",
		"Requests a shard service answered with an error status.")
)

// Engine-cache counters: a hit is a localize request whose signature named
// a held engine, a miss one answered CodeUnknownMatrix (the client then
// installs), an eviction an engine dropped to stay inside Limits.
var (
	engineCacheHits = obs.NewCounter("shardrpc_engine_cache_hits",
		"Localize requests whose signature named a held engine.")
	engineCacheMisses = obs.NewCounter("shardrpc_engine_cache_misses",
		"Localize requests answered CodeUnknownMatrix.")
	engineCacheEvictions = obs.NewCounter("shardrpc_engine_cache_evictions",
		"Engines dropped to stay inside the shard service's limits.")
)

// serverOps times each RPC handler end to end (decode through encode). A
// shard server keeps its own op family instead of writing into obs.Stages:
// loopback clusters run shard servers in the coordinator's process, and the
// coordinator's stage histograms must keep meaning "coordinator time".
var serverOps = obs.NewHistogramVec("shardrpc_server_duration_seconds",
	"Shard RPC handler latency by operation.", "op", 8)

// requestCycle reads the coordinator's cycle ID from the X-Detector-Cycle
// header; 0 (untraced) when absent or malformed — a bad header must never
// fail the RPC, observability is strictly best-effort here.
func requestCycle(r *http.Request) uint64 {
	v := r.Header.Get(obs.CycleHeader)
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// Server is one controller shard as a network service: it owns a full
// materialization of the candidate matrix (derived locally from the
// topology, never shipped) and executes construction work orders against
// it; localization runs on engines over the served sub-matrices its
// clients install, held in a small cache keyed by content signature.
//
//	GET  /v1/ping       → PingResponse (liveness + engine fingerprint)
//	POST /v1/construct  → ConstructResponse
//	POST /v1/localize   → LocalizeResponse
//
// Request and success bodies are v2 binary frames (ContentTypeBinary); the
// ping and every error are JSON, which an operator reads. Errors are
// structured (httpx.ErrorBody): 400 for malformed or out-of-bounds
// payloads, 409 for a matrix-signature mismatch (on localize:
// CodeUnknownMatrix, which the client answers by installing the matrix),
// 413 for an oversized body or matrix, 415 for any other media type or any
// content encoding, 422 for an engine rejection. A coordinator treats any other of them as a
// dispatch failure and fails the work over to surviving shards.
type Server struct {
	ps       route.PathSet
	csr      *route.CSR
	numLinks int
	sig      uint64
	lim      Limits
	tr       *obs.Tracer
	// engines holds the localization engines clients installed.
	engines *engineCache
}

// NewServer builds a shard service over its own materialization of ps.
func NewServer(ps route.PathSet, numLinks int) *Server {
	return NewServerLimits(ps, numLinks, DefaultLimits())
}

// NewServerLimits is NewServer with explicit payload bounds. It computes
// the matrix signature the handshake needs at once; for a family whose
// rows are generated that stores no row, so a service that never
// constructs holds none.
func NewServerLimits(ps route.PathSet, numLinks int, lim Limits) *Server {
	csr := route.MaterializeCSR(ps)
	return &Server{
		ps:       ps,
		csr:      csr,
		numLinks: numLinks,
		sig:      csr.Signature(numLinks),
		lim:      lim,
		tr:       obs.NewTracer("shard", 32),
		engines:  &engineCache{maxEntries: lim.MaxEngines, maxBytes: lim.MaxEngineBytes},
	}
}

// MatrixSig returns the engine's candidate-matrix signature.
func (s *Server) MatrixSig() uint64 { return s.sig }

// decodeBody reads and decodes a bounded v2 request frame, mapping
// failures to the right status: 415 for any media type but
// ContentTypeBinary, and for any content encoding (bodies travel as they
// are); 413 when the body (or the frame's declared length) exceeds
// MaxBodyBytes; 400 for anything undecodable (truncation included).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, kind byte, v any) bool {
	if ct := r.Header.Get("Content-Type"); mediaType(ct) != ContentTypeBinary {
		serverRejected.Inc()
		httpx.Error(w, http.StatusUnsupportedMediaType,
			"unsupported content type %q (want %s)", ct, ContentTypeBinary)
		return false
	}
	if enc := r.Header.Get("Content-Encoding"); enc != "" && enc != "identity" {
		serverRejected.Inc()
		httpx.Error(w, http.StatusUnsupportedMediaType, "unsupported content encoding %q", enc)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.lim.MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err == nil {
		err = decodeBinaryInto(data, kind, s.lim.MaxBodyBytes, v)
	}
	if err != nil {
		serverRejected.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, errFrameTooLarge) {
			httpx.Error(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.lim.MaxBodyBytes)
			return false
		}
		httpx.Error(w, http.StatusBadRequest, "undecodable request: %v", err)
		return false
	}
	return true
}

// mediaType strips a Content-Type value's parameters.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// decodeBinaryInto dispatches a v2 frame to the kind's decoder and copies
// the result into the handler's request struct.
func decodeBinaryInto(data []byte, kind byte, maxPayload int64, v any) error {
	switch kind {
	case kindConstructReq:
		req, err := decodeConstructBinary(data, maxPayload)
		if err != nil {
			return err
		}
		*v.(*ConstructRequest) = *req
	case kindLocalizeReq:
		req, err := decodeLocalizeBinary(data, maxPayload)
		if err != nil {
			return err
		}
		*v.(*LocalizeRequest) = *req
	default:
		return errors.New("unknown payload kind")
	}
	return nil
}

// writeFrame answers with a success frame.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	_, _ = w.Write(frame)
}

// engineFor resolves a localize request to its engine: the cached one its
// signature names, or — when the request carries the matrix — a new one,
// checked against the claimed signature before it is cached. It answers
// the request itself when it cannot.
func (s *Server) engineFor(w http.ResponseWriter, req *LocalizeRequest) (*pll.Engine, bool) {
	if req.Matrix == nil {
		if e := s.engines.get(req.Sig); e != nil {
			engineCacheHits.Inc()
			return e, true
		}
		engineCacheMisses.Inc()
		httpx.ErrorCode(w, http.StatusConflict, CodeUnknownMatrix,
			"no engine for matrix %#016x — repeat the request with the matrix attached", req.Sig)
		return nil, false
	}
	size := req.Matrix.engineBytes()
	if size > s.lim.MaxEngineBytes {
		serverRejected.Inc()
		httpx.Error(w, http.StatusRequestEntityTooLarge,
			"matrix needs an estimated %d engine bytes, limit %d", size, s.lim.MaxEngineBytes)
		return nil, false
	}
	sub := route.NewProbesFromLinks(req.Matrix.Paths, req.Matrix.NumLinks)
	if got := route.RowsSignature(sub); got != req.Sig {
		serverRejected.Inc()
		httpx.Error(w, http.StatusBadRequest,
			"matrix hashes to %#016x, not the claimed %#016x", got, req.Sig)
		return nil, false
	}
	e := pll.NewEngine(sub)
	engineCacheEvictions.Add(int64(s.engines.put(req.Sig, e, size)))
	return e, true
}

// Handler serves the shard RPC surface plus the standard GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ping", func(w http.ResponseWriter, r *http.Request) {
		serverRequests.Inc()
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			serverRejected.Inc()
			return
		}
		httpx.WriteJSON(w, PingResponse{
			V: SchemaVersion, MatrixSig: s.sig,
			NumLinks: s.numLinks, Paths: s.ps.Len(),
		})
	})
	mux.HandleFunc("/v1/construct", func(w http.ResponseWriter, r *http.Request) {
		serverRequests.Inc()
		start := time.Now()
		defer func() { serverOps.With("construct").Observe(time.Since(start)) }()
		if !httpx.RequireMethod(w, r, http.MethodPost) {
			serverRejected.Inc()
			return
		}
		var req ConstructRequest
		if !s.decodeBody(w, r, kindConstructReq, &req) {
			return
		}
		if err := req.validate(s.lim, s.numLinks, s.ps.Len()); err != nil {
			serverRejected.Inc()
			httpx.Error(w, http.StatusBadRequest, "invalid construct request: %v", err)
			return
		}
		if req.MatrixSig != s.sig {
			serverRejected.Inc()
			httpx.Error(w, http.StatusConflict,
				"matrix signature %#016x does not match engine %#016x — coordinator and shard derive different candidate matrices",
				req.MatrixSig, s.sig)
			return
		}
		comps := make([]route.Component, len(req.Comps))
		for i, c := range req.Comps {
			comps[i] = route.Component{Links: c.Links, Paths: route.PathList(c.Paths)}
		}
		// File the engine run under the coordinator's cycle: the joined
		// cycle's spans then answer "what did shard N do during cycle C"
		// from the shard's own /statusz.
		sp := s.tr.Join(requestCycle(r), "remote").Span("construct")
		res, err := pmc.ConstructComponents(s.ps, s.csr, comps, s.numLinks, req.Opt.decode())
		sp.EndErr(err)
		if err != nil {
			serverRejected.Inc()
			httpx.Error(w, http.StatusUnprocessableEntity, "construction failed: %v", err)
			return
		}
		resp := ConstructResponse{
			V:        SchemaVersion,
			Selected: res.Selected,
			Stats: Stats{
				Components: res.Stats.Components, Candidates: res.Stats.Candidates,
				ScoreEvals: res.Stats.ScoreEvals, Reseeds: res.Stats.Reseeds,
				Selected: res.Stats.Selected, ElapsedNS: int64(res.Stats.Elapsed),
				CoverageMet: res.Stats.CoverageMet, IdentMet: res.Stats.IdentMet,
			},
		}
		writeFrame(w, resp.encodeBinary())
	})
	mux.HandleFunc("/v1/localize", func(w http.ResponseWriter, r *http.Request) {
		serverRequests.Inc()
		start := time.Now()
		defer func() { serverOps.With("localize").Observe(time.Since(start)) }()
		if !httpx.RequireMethod(w, r, http.MethodPost) {
			serverRejected.Inc()
			return
		}
		var req LocalizeRequest
		if !s.decodeBody(w, r, kindLocalizeReq, &req) {
			return
		}
		if err := req.validate(s.lim); err != nil {
			serverRejected.Inc()
			httpx.Error(w, http.StatusBadRequest, "invalid localize request: %v", err)
			return
		}
		engine, ok := s.engineFor(w, &req)
		if !ok {
			return
		}
		window, cfg := req.window()
		sp := s.tr.Join(requestCycle(r), "remote").Span("localize")
		res, err := engine.Localize(window, cfg)
		sp.EndErr(err)
		if err != nil {
			// validate already vetted the hit ratio, so what the engine
			// refuses is the window's shape.
			serverRejected.Inc()
			status := http.StatusUnprocessableEntity
			if errors.Is(err, pll.ErrBadWindow) {
				status = http.StatusBadRequest
			}
			httpx.Error(w, status, "localization failed: %v", err)
			return
		}
		resp := LocalizeResponse{
			V:                SchemaVersion,
			LossyPaths:       res.LossyPaths,
			UnexplainedPaths: res.UnexplainedPaths,
			ElapsedNS:        int64(res.Elapsed),
		}
		for _, v := range res.Bad {
			resp.Bad = append(resp.Bad, Verdict{Link: v.Link, Rate: v.Rate, Explained: v.Explained})
		}
		writeFrame(w, resp.encodeBinary())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			return
		}
		obs.MetricsHandler()(w, r)
	})
	mux.HandleFunc("/healthz", obs.HealthzHandler(func() obs.Health {
		return obs.Health{
			Status:  "ok",
			Service: "shard",
			Detail:  fmt.Sprintf("matrix %#016x, %d links, %d paths", s.sig, s.numLinks, s.ps.Len()),
		}
	}))
	mux.HandleFunc("/statusz", obs.StatuszHandler("shard", s.tr, func() any {
		return map[string]any{
			"matrix_sig": strconv.FormatUint(s.sig, 10),
			"num_links":  s.numLinks,
			"paths":      s.ps.Len(),
			"engines":    s.engines.len(),
		}
	}))
	return mux
}

// ListenAndServe runs the shard service on addr until the server fails
// (detectord -shard-serve wraps this).
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}
