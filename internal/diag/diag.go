// Package diag implements deTector's diagnoser (paper §3.1, §6.1): it
// collects pinger reports over HTTP, windows them by the pingers' report
// epochs (epoch.go), discards what the watchdog's unhealthy servers sent,
// runs PLL on the served probe matrix once per window and publishes alerts.
package diag

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/detector-net/detector/internal/httpx"
	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// malformedReports counts report bodies the diagnoser rejected — a media
// type other than the report frame, an undecodable frame, or counters that
// cannot be real (negative, or more losses than probes). Rejections answer
// 4xx with a JSON error instead of silently dropping data, and this
// counter makes a sick agent visible.
var malformedReports = obs.NewCounter("diag_malformed_reports",
	"Report bodies the diagnoser rejected as malformed.")

// unknownPathResults counts results dropped at ingest: the bound matrix
// carries no such path ID (retired by churn, stale pinger), or none is bound.
var unknownPathResults = obs.NewCounter("diag_unknown_path_results",
	"Results dropped at ingest because the bound matrix has no such path ID.")

// localizeErrors counts windows the diagnoser failed to localize. Such a
// window raises no alert; /statusz keeps the last error so it is not
// mistaken for a quiet one.
var localizeErrors = obs.NewCounter("diag_localize_errors",
	"Windows the diagnoser failed to localize.")

// localFallbacks counts windows localized locally after the shard
// endpoint's localize request failed. The verdicts stay exact (same engine,
// same window); the counter makes a flapping shard service visible.
var localFallbacks = obs.NewCounter("shard_plane_local_fallbacks",
	"Windows localized locally after the shard endpoint's localize request failed.")

// Diagnoser stage histograms: the window pipeline's per-cycle timing
// (report ingest, window close-out, localization from sparsify to
// verdicts, verdict classification).
var (
	stageIngest      = obs.Stages.With("ingest")
	stageWindowClose = obs.Stages.With("window_close")
	stageLocalize    = obs.Stages.With("localize")
	stageClassify    = obs.Stages.With("classify")
)

// localizeClient is a remote localization endpoint: it returns exactly
// engine.Localize(w, cfg), naming engine's matrix by sig (its
// route.RowsSignature) so the rows travel only when the endpoint does not
// hold them. shardrpc.Client implements it.
type localizeClient interface {
	Localize(cycle, sig uint64, engine *pll.Engine, w pll.Window, cfg pll.Config) (*pll.Result, error)
	Close() error
}

// remoteError is the last failure of a shard endpoint's localize request,
// as served at the diagnoser's /statusz: the window itself was localized by
// the local fallback, so without this an endpoint that rejects every
// request is visible only as a ticking fallback counter.
type remoteError struct {
	Time  time.Time `json:"time"`
	Error string    `json:"error"`
}

// LinkVerdict is one suspected link in an alert.
type LinkVerdict struct {
	Link topo.LinkID `json:"link"`
	// A and B name the endpoints for the operator.
	A    string  `json:"a,omitempty"`
	B    string  `json:"b,omitempty"`
	Rate float64 `json:"rate"`
	// Class is the inferred loss kind (full / deterministic-partial /
	// random-partial / unknown), the paper's §7 diagnosis-scoping idea.
	Class string `json:"class,omitempty"`
	// Verdict places the link in the multi-signal lattice (lossy /
	// silent-partial / congested / delayed / flapping): Class says how the
	// link loses, Verdict says whether it is dying or merely busy.
	Verdict string `json:"verdict,omitempty"`
}

// Alert is the outcome of one localization window.
type Alert struct {
	Time time.Time `json:"time"`
	// Epoch is the window epoch the alert closed (the window ended at
	// Epoch × the window length, Unix time): the key that joins an alert to
	// the reports behind it. Zero for a window closed by hand.
	Epoch       int64         `json:"epoch,omitempty"`
	Version     int           `json:"version"`
	Bad         []LinkVerdict `json:"bad"`
	LossyPaths  int           `json:"lossy_paths"`
	Unexplained int           `json:"unexplained"`
	ElapsedMS   float64       `json:"elapsed_ms"`
	// Slow marks alerts from the long-window pass, which accumulates
	// several fast windows to expose losses of extremely low rate that a
	// single window misses (paper §6.4's false-negative remedy).
	Slow bool `json:"slow,omitempty"`
	// Soft lists congested and delayed links: advisories, not link-down
	// alerts. A localized link whose lattice verdict is congestion or
	// delay lands here instead of Bad, so transient queue pressure never
	// pages as a dead link; the signal-localization pass adds links whose
	// faults lose nothing at all.
	Soft []LinkVerdict `json:"soft,omitempty"`
}

// Options configures the diagnoser.
type Options struct {
	// Window is the localization period (paper: 30 s; tests: milliseconds).
	// It must equal the WindowMS the controller hands the pingers: their
	// report epochs are what Run closes windows on.
	Window time.Duration
	// Unhealthy, when set, returns the servers the watchdog currently flags.
	// Observations whose path ends at one are discarded as outliers (paper
	// §5.1), and the window clock does not wait for a flagged pinger.
	Unhealthy func() map[topo.NodeID]bool
	// PLL is the localization configuration.
	PLL pll.Config
	// SlowEvery, when positive, runs a long-window pass every SlowEvery
	// fast windows over their accumulated counters: the extra samples
	// expose low-rate losses a single window cannot confirm (§6.4
	// suggests 10-minute windows against 30-second fast windows, i.e.
	// SlowEvery = 20).
	SlowEvery int
	// Shards is read by nothing: the diagnoser localizes every window on
	// one engine. It is kept only so existing callers compile.
	Shards int
	// ShardEndpoints lists remote shard service URLs (internal/shardrpc).
	// When set, each window's PLL pass is one request to one of them,
	// chosen once per matrix version, instead of running locally (falling
	// back to local execution — same engine, same verdicts — when the
	// request fails).
	ShardEndpoints []string
	// Topo, when set, lets alerts name link endpoints.
	Topo *topo.Topology
	// Signals tunes the multi-signal verdict lattice; zero fields take
	// pll.DefaultSignalConfig.
	Signals pll.SignalConfig
	// LinkCounters, when set, exposes per-window switch drop-counter
	// deltas (the SNMP side channel) so the lattice can split observed
	// loss into counted (lossy) and silent (gray).
	LinkCounters pll.LinkCounters
	// HistoryWindows is the depth of the per-row loss-rate history kept for
	// flap detection (default 12 windows). It is also the silence horizon: a
	// row that has not reported for more than this many windows forgets its
	// history and RTT baseline and starts over when it reports again.
	HistoryWindows int
	// MaxBodyBytes caps a single report body, answered with 413 past the
	// cap (default shardrpc.DefaultLimits().MaxBodyBytes).
	MaxBodyBytes int64
	// MaxAlerts bounds the retained alert log (default 1024); older alerts
	// fall off the front. The diagnoser runs for months — an unbounded
	// append is a slow leak.
	MaxAlerts int
}

// Diagnoser aggregates reports and localizes per window.
type Diagnoser struct {
	opts    Options
	clients []localizeClient // one per ShardEndpoints entry
	tr      *obs.Tracer

	// state is the window state of the served matrix (nil before the first
	// SetMatrix). Ingest loads it and touches only its lock stripes, never
	// d.mu, so report frames from many pingers merge concurrently.
	// reports counts payloads atomically for the same reason.
	state   atomic.Pointer[windowState]
	reports atomic.Int64
	maxBody int64

	// wake tells the window clock (Run) that a pinger's epoch mark advanced;
	// one pending wake-up is enough, so ingest never blocks on it.
	wake         chan struct{}
	closedEpochs atomic.Int64

	// closeMu serialises RunWindow: the state's close section and
	// slowWindows belong to whoever holds it.
	closeMu     sync.Mutex
	slowWindows int // fast windows since last slow pass

	mu sync.Mutex
	// alerts is a ring once MaxAlerts are held: alertHead indexes the oldest.
	alerts          []Alert
	alertHead       int
	lastLocalizeErr string
	shardErrs       map[int]remoteError // last localize failure per endpoint
	lastClose       closeInfo           // the window clock's last close
	stopped         bool
	stopChan        chan struct{}
	done            sync.WaitGroup
}

// New creates a diagnoser; call Run to start the window loop, or drive
// windows manually with RunWindow in tests.
func New(opts Options) *Diagnoser {
	if opts.Window <= 0 {
		opts.Window = 30 * time.Second
	}
	if opts.PLL.HitRatio == 0 {
		opts.PLL = pll.DefaultConfig()
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = shardrpc.DefaultLimits().MaxBodyBytes
	}
	d := &Diagnoser{
		opts:      opts,
		tr:        obs.NewTracer("diag", 16),
		maxBody:   maxBody,
		wake:      make(chan struct{}, 1),
		stopChan:  make(chan struct{}),
		shardErrs: make(map[int]remoteError),
	}
	for i, ep := range opts.ShardEndpoints {
		d.clients = append(d.clients, shardrpc.Dial(i, ep, shardrpc.ClientOptions{}))
	}
	return d
}

// SetMatrix binds the probe matrix the controller serves. A new version
// swaps in a fresh window state — path IDs now index a different matrix, and
// the pingers it expects have reported nothing yet — with its own PLL engine
// and, when shard endpoints are configured, the one endpoint its windows go
// to; the window that straddles the change is discarded. The same version
// again is the same matrix and changes nothing.
func (d *Diagnoser) SetMatrix(m *route.Probes, version int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.state.Load()
	if old != nil && old.version == version {
		return
	}
	st := newWindowState(m, version, &d.opts, old != nil)
	if len(d.clients) > 0 {
		st.matrixSig = route.RowsSignature(m)
		st.endpoint = int(st.matrixSig % uint64(len(d.clients)))
	}
	d.state.Store(st)
}

// MatrixVersion reports the controller cycle version of the matrix the
// diagnoser currently localizes against.
func (d *Diagnoser) MatrixVersion() int {
	if st := d.state.Load(); st != nil {
		return st.version
	}
	return 0
}

// Tracer exposes the diagnoser's window tracer (the /statusz source).
func (d *Diagnoser) Tracer() *obs.Tracer { return d.tr }

// Ingest merges one pinger report (the /report handler and in-process
// callers share it).
func (d *Diagnoser) Ingest(rep *shardrpc.Report) {
	start := time.Now()
	d.reports.Add(1)
	in := ingest{st: d.state.Load()}
	for _, r := range rep.Results {
		in.merge(r.PathID, r.Sent, r.Lost, r.MeanRTTNS, r.JitterNS, r.ECNFrac)
	}
	in.done()
	d.markReported(in.st, rep.Node, rep.EndNS)
	stageIngest.Observe(time.Since(start))
}

// Reports returns how many report payloads arrived (monitoring/testing).
func (d *Diagnoser) Reports() int64 { return d.reports.Load() }

// validateReport rejects counters and signals that cannot describe a real
// window: negative counters, more losses than probes, negative latencies,
// non-finite or out-of-range ECN fractions.
func validateReport(rep *shardrpc.Report) error {
	for i, pr := range rep.Results {
		if pr.Sent < 0 || pr.Lost < 0 {
			return fmt.Errorf("result %d (path %d): negative counters sent=%d lost=%d",
				i, pr.PathID, pr.Sent, pr.Lost)
		}
		if pr.Lost > pr.Sent {
			return fmt.Errorf("result %d (path %d): lost %d exceeds sent %d",
				i, pr.PathID, pr.Lost, pr.Sent)
		}
		if pr.MeanRTTNS < 0 || pr.JitterNS < 0 {
			return fmt.Errorf("result %d (path %d): negative latency mean_rtt_ns=%d jitter_ns=%d",
				i, pr.PathID, pr.MeanRTTNS, pr.JitterNS)
		}
		if ecn := pr.ECNFrac; math.IsNaN(ecn) || math.IsInf(ecn, 0) || ecn < 0 || ecn > 1 {
			return fmt.Errorf("result %d (path %d): ECN fraction %v outside [0,1]",
				i, pr.PathID, ecn)
		}
	}
	return nil
}

// ingestFrame decodes one kind-5 report frame into rep (reusing its
// Results capacity), validates it and merges it: the whole POST /report
// path after the body is read.
func (d *Diagnoser) ingestFrame(frame []byte, rep *shardrpc.Report) error {
	if err := rep.DecodeBinary(frame, d.maxBody); err != nil {
		return fmt.Errorf("undecodable report: %w", err)
	}
	if err := validateReport(rep); err != nil {
		return fmt.Errorf("invalid report: %w", err)
	}
	d.Ingest(rep)
	return nil
}

// Handler serves the report plane: POST /report takes one kind-5 report
// frame (shardrpc.ContentTypeBinary) per pinger per window; GET /alerts
// lists the alerts. Malformed reports answer 400 with a JSON error body
// and bump diag_malformed_reports — a silent drop would leave a sick
// pinger indistinguishable from a healthy quiet one; another media type
// answers 415 and an oversized body 413, both counted the same way.
func (d *Diagnoser) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodPost) {
			malformedReports.Inc()
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != shardrpc.ContentTypeBinary {
			malformedReports.Inc()
			httpx.Error(w, http.StatusUnsupportedMediaType,
				"unsupported report content type %q (want %s)", ct, shardrpc.ContentTypeBinary)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, d.maxBody))
		if err != nil {
			malformedReports.Inc()
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpx.Error(w, http.StatusRequestEntityTooLarge, "report body too large: %v", err)
				return
			}
			httpx.Error(w, http.StatusBadRequest, "unreadable report body: %v", err)
			return
		}
		var rep shardrpc.Report
		if err := d.ingestFrame(body, &rep); err != nil {
			malformedReports.Inc()
			httpx.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		if !httpx.RequireMethod(w, r, http.MethodGet) {
			return
		}
		httpx.WriteJSON(w, d.Alerts())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		obs.MetricsHandler()(w, r)
	})
	mux.HandleFunc("/healthz", obs.HealthzHandler(func() obs.Health {
		h := obs.Health{Status: "ok", Service: "diag"}
		if d.state.Load() == nil {
			h.Status = "degraded"
			h.Detail = "no probe matrix yet"
		}
		return h
	}))
	mux.HandleFunc("/statusz", obs.StatuszHandler("diag", d.tr, func() any {
		d.mu.Lock()
		defer d.mu.Unlock()
		st := map[string]any{
			"version": d.MatrixVersion(),
			"reports": d.reports.Load(),
			"alerts":  len(d.alerts),
			"paths":   0,
			"shards":  len(d.clients),
			// Results dropped at ingest: no such path in the bound matrix.
			"unknown_path_results": unknownPathResults.Value(),
		}
		if ws := d.state.Load(); ws != nil {
			st["paths"] = ws.matrix.NumPaths()
		}
		if n := d.closedEpochs.Load(); n > 0 {
			// The window clock: how many epochs it closed, and whether the
			// last one closed on evidence (complete) or on the grace.
			st["closed_epochs"] = n
			st["last_close"] = d.lastClose
		}
		if d.lastLocalizeErr != "" {
			st["last_localize_error"] = d.lastLocalizeErr
		}
		if len(d.clients) > 0 {
			// The last transport failure per endpoint: those windows were
			// localized by the local fallback, so nothing else says why.
			st["shard_errors"] = maps.Clone(d.shardErrs)
		}
		return st
	}))
	return mux
}

// Stop halts the window clock.
func (d *Diagnoser) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.mu.Unlock()
	close(d.stopChan)
	d.done.Wait()
	for _, cl := range d.clients {
		cl.Close()
	}
}

// RunWindow executes one localization pass over the accumulated reports:
// close the open window into the state's row-indexed observation buffer,
// localize and classify it against the history and baselines of the windows
// before it, and only then roll those forward. The window clock (Run) calls
// it when an epoch is due; tests and replays call it by hand.
func (d *Diagnoser) RunWindow() *Alert { return d.runWindow(0) }

func (d *Diagnoser) runWindow(epoch int64) *Alert {
	cfg := d.opts.PLL
	if d.opts.Unhealthy != nil {
		if unhealthy := d.opts.Unhealthy(); len(unhealthy) > 0 {
			cfg.Unhealthy = unhealthy
		}
	}
	d.closeMu.Lock()
	defer d.closeMu.Unlock()
	cy := d.tr.StartCycle("window")
	defer cy.End()

	st := d.state.Load()
	if st == nil {
		return nil // no matrix bound: nothing could be ingested
	}
	closeStart := time.Now()
	closeSpan := cy.Span("window_close")
	reported := st.close()
	closeSpan.End()
	stageWindowClose.Observe(time.Since(closeStart))
	slowDue := false
	if d.opts.SlowEvery > 0 {
		d.slowWindows++
		if d.slowWindows >= d.opts.SlowEvery {
			d.slowWindows = 0
			slowDue = true
		}
	}

	var alert *Alert
	if reported > 0 {
		alert = d.localizeAlert(cy, st, epoch, st.obs, cfg, &st.sig)
	}
	if slowDue {
		// The slow pass is the low-rate loss net; it pools too many windows
		// for the time-series signals to mean anything.
		banked := false
		for r := range st.slow {
			banked = banked || st.slow[r].Sent > 0
		}
		if banked {
			d.localizeAlert(cy, st, epoch, st.slow, cfg, nil)
		}
		for r := range st.slow {
			st.slow[r].Sent, st.slow[r].Lost = 0, 0
		}
	}
	st.rollForward()
	return alert
}

// localize runs one window's PLL pass on st's engine: Sparsify here, then
// Localize through st's shard endpoint when one is configured and locally
// otherwise — and locally as a fallback when the endpoint fails, so a
// flapping shard service degrades a window to local compute instead of
// losing it. The remote failure is not lost with it: it ends the localize
// span and is kept for /statusz. The result's Elapsed times sparsify to
// verdicts, whichever side ran the pass.
func (d *Diagnoser) localize(cy *obs.Cycle, st *windowState, observations []pll.Observation, cfg pll.Config) (*pll.Result, error) {
	start := time.Now()
	sp := cy.Span("localize")
	defer func() { stageLocalize.Observe(time.Since(start)) }()
	w, err := st.engine.Sparsify(observations, cfg)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	var remoteErr error
	if len(d.clients) > 0 {
		res, err := d.clients[st.endpoint].Localize(cy.ID(), st.matrixSig, st.engine, w, cfg)
		if err == nil {
			sp.End()
			res.Elapsed = time.Since(start)
			return res, nil
		}
		remoteErr = err
		localFallbacks.Inc()
		d.mu.Lock()
		d.shardErrs[st.endpoint] = remoteError{Time: time.Now(), Error: err.Error()}
		d.mu.Unlock()
	}
	res, err := st.engine.Localize(w, cfg)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.EndErr(remoteErr)
	res.Elapsed = time.Since(start)
	return res, nil
}

// localizeAlert runs one PLL pass over a row-indexed window of st's matrix
// and records the alert. The fast pass (sig non-nil) places every localized
// link in the verdict lattice: congestion and delay verdicts become Soft
// advisories instead of Bad alerts, and the signal-localization pass adds
// soft links whose faults lose nothing. The slow pass (sig nil) marks its
// alert Slow.
func (d *Diagnoser) localizeAlert(cy *obs.Cycle, st *windowState, epoch int64, observations []pll.Observation, cfg pll.Config, sig *pll.Signals) *Alert {
	matrix := st.matrix
	res, err := d.localize(cy, st, observations, cfg)
	if err != nil {
		localizeErrors.Inc()
		d.mu.Lock()
		d.lastLocalizeErr = err.Error()
		d.mu.Unlock()
		return nil
	}
	alert := Alert{
		Time: time.Now(), Epoch: epoch, Version: st.version,
		LossyPaths: res.LossyPaths, Unexplained: res.UnexplainedPaths,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
		Slow:      sig == nil,
	}
	name := func(lv *LinkVerdict) {
		if d.opts.Topo != nil {
			l := d.opts.Topo.Link(lv.Link)
			lv.A = d.opts.Topo.Node(l.A).Name
			lv.B = d.opts.Topo.Node(l.B).Name
		}
	}
	classifyStart := time.Now()
	classifySpan := cy.Span("classify")
	reported := make(map[topo.LinkID]bool, len(res.Bad))
	for _, v := range res.Bad {
		lv := LinkVerdict{
			Link: v.Link, Rate: v.Rate,
			Class: pll.Classify(matrix, observations, v.Link).String(),
		}
		verdict := pll.ClassifyVerdict(matrix, observations, v.Link, sig, d.opts.Signals)
		lv.Verdict = verdict.String()
		name(&lv)
		reported[v.Link] = true
		if verdict == pll.VerdictCongested || verdict == pll.VerdictDelayed {
			alert.Soft = append(alert.Soft, lv)
		} else {
			alert.Bad = append(alert.Bad, lv)
		}
	}
	if sig != nil {
		sres := pll.LocalizeSignals(matrix, observations, sig, d.opts.Signals, cfg)
		for _, sv := range append(sres.Congested, sres.Delayed...) {
			if reported[sv.Link] {
				continue
			}
			lv := LinkVerdict{Link: sv.Link, Rate: sv.Level, Verdict: sv.Class.String()}
			name(&lv)
			alert.Soft = append(alert.Soft, lv)
		}
	}
	classifySpan.End()
	stageClassify.Observe(time.Since(classifyStart))
	maxAlerts := d.opts.MaxAlerts
	if maxAlerts <= 0 {
		maxAlerts = 1024
	}
	d.mu.Lock()
	if len(d.alerts) < maxAlerts {
		d.alerts = append(d.alerts, alert)
	} else {
		d.alerts[d.alertHead] = alert
		d.alertHead = (d.alertHead + 1) % maxAlerts
	}
	d.mu.Unlock()
	return &alert
}

// Alerts returns the retained alerts, oldest first.
func (d *Diagnoser) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append(append(make([]Alert, 0, len(d.alerts)), d.alerts[d.alertHead:]...), d.alerts[:d.alertHead]...)
}
