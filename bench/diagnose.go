package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	detector "github.com/detector-net/detector"
	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/diag"
	"github.com/detector-net/detector/internal/pinger"
	"github.com/detector-net/detector/internal/pll"
	"github.com/detector-net/detector/internal/route"
	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
)

// diagnoseParams shapes one run of the window-replay script: a diagnoser
// on the served Fattree(k) matrix ingests one pre-generated report per
// pinger and closes the window, over and over, in a closed loop.
type diagnoseParams struct {
	k int
	// scenarios fault sets, each held for windowsPer consecutive windows
	// (which fixes how much state consecutive windows share); scenario i
	// has faultCounts[i%len] concurrent link faults.
	scenarios, windowsPer int
	faultCounts           []int
	probesPerPath         int
	// remoteShards > 0 localizes through that many loopback shardrpc
	// servers; 0 is the unsharded in-process diagnoser.
	remoteShards int
	minPasses    int
}

// replayWindow is one generated measurement window.
type replayWindow struct {
	reports []*pinger.Report  // one per pinger, as the fleet would post
	obs     []pll.Observation // the same counters as matrix rows
	truth   []topo.LinkID     // sorted ground-truth bad links
	solid   []topo.LinkID     // those of them that lose at least solidRate of their packets
	results int
}

// solidRate splits the generated faults. Every miss seen at seeds 1-20 and
// 101-110 was one of two kinds: a random loss below 0.4 %, which 300 probes
// a path catch or not by chance, or a blackhole of one flow bucket in 32
// (3 % of flows), which the few flows that cross the link hit or not by
// chance. How many of those a seed draws decides its recall over all faults
// (0.92-1). The gated accuracy is recall over the solid ones, which lose at
// least a tenth of their packets (full loss, four buckets or more, random
// loss from 10 %) and must all be found; diag.accuracy is recall over all.
const solidRate = 0.1

// diagnoseInputs is what the seed generates: the windows, and the
// signature of the served matrix their path ids and rows refer to.
type diagnoseInputs struct {
	windows   []replayWindow
	signature uint64
}

type diagnoseState struct {
	matrix  *route.Probes
	windows []replayWindow
	diag    *diag.Diagnoser
	meter   *shardMeter
	stops   []func()
}

func (s *diagnoseState) close() {
	if s.diag != nil {
		s.diag.Stop() // closes the shard clients; the window loop was never started
	}
	for _, stop := range s.stops {
		stop()
	}
}

// ingestAndClose replays one window into the diagnoser.
func (s *diagnoseState) ingestAndClose(w *replayWindow) *diag.Alert {
	for _, r := range w.reports {
		s.diag.Ingest(r)
	}
	return s.diag.RunWindow()
}

// servedMatrix runs the controller's first cycle on Fattree(k) at its
// default configuration and returns what it serves.
func servedMatrix(k int) (*topo.Fattree, *route.Probes, int, error) {
	f, err := topo.NewFattree(k)
	if err != nil {
		return nil, nil, 0, err
	}
	ctl := control.New(f, control.DefaultConfig())
	defer ctl.Close()
	if err := ctl.RunCycle(nil); err != nil {
		return nil, nil, 0, fmt.Errorf("first cycle: %w", err)
	}
	return f, ctl.ProbeMatrix(), ctl.Version(), nil
}

// generateWindows makes the run's inputs from the seed: link-level loss
// faults at rates log-uniform in 1e-3..1, the simulator's default kind mix
// and gray fraction, each scenario observed for windowsPer windows. It is
// the load generator's work, not the system's, so it runs once and outside
// setup_s (bench.input_gen_s reports it).
func generateWindows(p diagnoseParams, seed int64) (*diagnoseInputs, error) {
	f, matrix, version, err := servedMatrix(p.k)
	if err != nil {
		return nil, err
	}
	in := &diagnoseInputs{signature: route.ProbesSignature(matrix)}
	rng := rand.New(rand.NewSource(seed))
	ids := matrix.IDs()
	for s := 0; s < p.scenarios; s++ {
		cfg := sim.DefaultFailureConfig()
		cfg.Failures = p.faultCounts[s%len(p.faultCounts)]
		cfg.SwitchFrac = 0
		cfg.MinRate, cfg.MaxRate = 1e-3, 1
		scen, err := sim.Generate(f.Topology, cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", s, err)
		}
		var solid []topo.LinkID
		for _, fault := range scen.Failures {
			if fault.Model.MeanRate() >= solidRate {
				solid = append(solid, fault.Link)
			}
		}
		network := sim.NewNetwork(f.Topology, scen)
		for w := 0; w < p.windowsPer; w++ {
			obs := sim.SimulateWindow(network, matrix, sim.ProbeWindowConfig{ProbesPerPath: p.probesPerPath}, rng)
			byPinger := make(map[topo.NodeID]*pinger.Report)
			win := replayWindow{obs: obs, truth: scen.BadLinks(), solid: solid, results: len(obs)}
			for _, o := range obs {
				src := matrix.Src[o.Path]
				rep := byPinger[src]
				if rep == nil {
					rep = &pinger.Report{Node: src, Version: version}
					byPinger[src] = rep
					win.reports = append(win.reports, rep)
				}
				rep.Results = append(rep.Results, pinger.PathReport{PathID: ids[o.Path], Sent: o.Sent, Lost: o.Lost})
			}
			in.windows = append(in.windows, win)
		}
	}
	return in, nil
}

// setupDiagnose is what an operator waits for before the first verdict:
// the topology, the controller's first matrix, the shard servers, the
// diagnoser, and one untimed pass over the windows.
func setupDiagnose(p diagnoseParams, in *diagnoseInputs, tr *tracer) (*diagnoseState, error) {
	f, matrix, version, err := servedMatrix(p.k)
	if err != nil {
		return nil, err
	}
	if sig := route.ProbesSignature(matrix); sig != in.signature {
		return nil, fmt.Errorf("served matrix %016x is not the one the windows were generated on (%016x)", sig, in.signature)
	}
	st := &diagnoseState{matrix: matrix, windows: in.windows, meter: &shardMeter{tr: tr}}
	st.meter.window.Store(-1)

	opts := diag.Options{}
	if p.remoteShards > 0 {
		ps := route.NewFattreePaths(f)
		for i := 0; i < p.remoteShards; i++ {
			h := st.meter.wrap(shardrpc.NewServer(ps, f.NumLinks()).Handler())
			url, stop, err := serveLoopback(h)
			if err != nil {
				st.close()
				return nil, err
			}
			st.stops = append(st.stops, stop)
			opts.ShardEndpoints = append(opts.ShardEndpoints, url)
		}
		opts.Shards = p.remoteShards
	}
	st.diag = diag.New(opts)
	st.diag.SetMatrix(st.matrix, version)

	// One untimed pass: the standing engine, the accumulator slots and
	// the shard clients' negotiated codec are in place before any window
	// is timed, as they are in a diagnoser that has been up for a minute.
	for i := range st.windows {
		st.ingestAndClose(&st.windows[i])
	}
	return st, nil
}

func runDiagnose(e *env, p diagnoseParams) error {
	rec, tr := e.rec, e.tr
	genStart := time.Now()
	in, err := generateWindows(p, e.seed)
	if err != nil {
		return fmt.Errorf("input generation: %w", err)
	}
	rec.set("bench.input_gen_s", time.Since(genStart).Seconds())
	st, setupS, err := timeSetups(e.setups,
		func() (*diagnoseState, error) { return setupDiagnose(p, in, tr) }, (*diagnoseState).close)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	rec.set("setup_s", setupS)
	calibBefore := calibrate()

	var mem0, mem1 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&mem0)
	}
	var windowMS, passMS, localizeMS []float64
	var tp, fp, fn, solidTP, solidFN int
	var firstPass uint64
	passesAgree := true
	op := 0
	budget := time.Duration(e.seconds * float64(time.Second))
	phase := time.Now()
	for pass := 0; pass < p.minPasses || time.Since(phase) < budget; pass++ {
		h := fnv.New64a()
		passStart := len(windowMS)
		for i := range st.windows {
			w := &st.windows[i]
			op++
			st.meter.window.Store(int64(op))
			t0 := time.Now()
			root := tr.begin("diag.window", 0, op)
			sp := tr.begin("diag.ingest", root, op)
			for _, r := range w.reports {
				st.diag.Ingest(r)
			}
			tr.end(sp)
			sp = tr.begin("diag.window_close", root, op)
			st.meter.parent.Store(int64(sp))
			alert := st.diag.RunWindow()
			tr.end(sp)
			d := time.Since(t0)
			tr.end(root)

			if alert == nil {
				rec.op(fmt.Errorf("window %d returned no alert", op))
				continue
			}
			rec.op(nil)
			windowMS = append(windowMS, ms(d))
			localizeMS = append(localizeMS, alert.ElapsedMS)
			bad := make([]topo.LinkID, len(alert.Bad))
			for j, v := range alert.Bad {
				bad[j] = v.Link
			}
			sort.Slice(bad, func(a, b int) bool { return bad[a] < bad[b] })
			c := detector.CompareLinks(bad, w.truth)
			tp, fp, fn = tp+c.TP, fp+c.FP, fn+c.FN
			c = detector.CompareLinks(bad, w.solid)
			solidTP, solidFN = solidTP+c.TP, solidFN+c.FN
			hashVerdict(h, bad)
		}
		if n := len(windowMS) - passStart; n > 0 {
			passMS = append(passMS, sum(windowMS[passStart:])/float64(n))
		}
		if pass == 0 {
			firstPass = h.Sum64()
		} else if h.Sum64() != firstPass {
			passesAgree = false
		}
	}
	st.meter.window.Store(-1)
	if tr.on {
		runtime.ReadMemStats(&mem1)
	}
	rec.snapshotRSS()
	rec.check("passes-agree", passesAgree, "replaying the same windows gave different verdicts")

	// Oracle: one full PLL recompute per generated window. The standing
	// incremental engine and the merged shard plane are both specified to
	// equal it, so both diagnose workloads must print this hash at a seed.
	oracle := fnv.New64a()
	for i := range st.windows {
		sp := tr.begin("pll.localize_standalone", 0, op+1+i)
		res, err := detector.Localize(st.matrix, st.windows[i].obs, detector.DefaultPLLConfig())
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("oracle localize: %w", err)
		}
		hashVerdict(oracle, res.BadLinks())
	}
	rec.check("verdicts-match-full-recompute", oracle.Sum64() == firstPass,
		"verdict hash %016x differs from the full recompute's %016x", firstPass, oracle.Sum64())
	rec.verdictHash = firstPass

	calibAfter := calibrate()
	// A window's cost depends on how many faults it holds, so the median
	// window is whichever fault count sits in the middle at this seed.
	// Every pass replays the same windows: the mean window of a pass covers
	// the whole mix, and the median over passes drops the disturbed ones.
	headline := median(passMS)
	rec.set("op_ms", headline)
	rec.set("accuracy", ratio(solidTP, solidTP+solidFN))
	rec.set("precision", ratio(tp, tp+fp))
	if !tr.on {
		return nil
	}

	windows := float64(len(windowMS))
	ingest := median(tr.ms("diag.ingest"))
	closeMS := tr.ms("diag.window_close")
	rec.set("host.calib_ms", (calibBefore+calibAfter)/2)
	rec.set("bench.traced_op_ms", headline)
	rec.set("diag.window_p50_ms", median(windowMS))
	rec.set("diag.window_p99_ms", quantile(windowMS, 0.99))
	rec.set("diag.ingest_ms", ingest)
	rec.set("diag.ingest_results_per_s", float64(st.windows[0].results)/(ingest/1e3))
	rec.set("diag.window_close_ms", median(closeMS))
	rec.set("diag.window_remainder_ms", median(windowMS)-ingest-median(closeMS))
	rec.set("diag.alloc_bytes_per_window", float64(mem1.TotalAlloc-mem0.TotalAlloc)/windows)
	rec.set("diag.accuracy", ratio(tp, tp+fn))
	rec.set("diag.false_positive_rate", ratio(fp, tp+fp))
	// 48 bits of the hash: a float64 carries them exactly.
	rec.set("diag.verdict_hash", float64(firstPass&(1<<48-1)))
	rec.set("pll.localize_ms", median(localizeMS))
	rec.set("pll.localize_standalone_ms", median(tr.ms("pll.localize_standalone")))
	if p.remoteShards > 0 {
		perWindow := st.meter.perWindow()
		var slowest, requests, reqBytes, respBytes, remainder []float64
		closeByOp := tr.msByOp("diag.window_close")
		for w, m := range perWindow {
			slowest = append(slowest, m.slowestMS)
			requests = append(requests, float64(m.requests))
			reqBytes = append(reqBytes, float64(m.reqBytes))
			respBytes = append(respBytes, float64(m.respBytes))
			remainder = append(remainder, closeByOp[w]-m.slowestMS)
		}
		rec.set("shardrpc.server_ms", median(slowest))
		rec.set("shardrpc.requests_per_window", median(requests))
		rec.set("shardrpc.req_bytes_per_window", median(reqBytes))
		rec.set("shardrpc.resp_bytes_per_window", median(respBytes))
		rec.set("shard.plane_remainder_ms", median(remainder))
	}
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hashVerdict folds one window's sorted bad-link set into h.
func hashVerdict(h io.Writer, bad []topo.LinkID) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(bad)))
	_, _ = h.Write(buf[:]) // hash.Hash never fails
	for _, l := range bad {
		binary.LittleEndian.PutUint32(buf[:], uint32(l))
		_, _ = h.Write(buf[:])
	}
}

// shardMeter is the timing and byte-counting middleware around the shard
// servers' handlers. window names the replay window being closed (-1
// outside the measured phase, when calls are not recorded) and parent the
// window-close span its server spans hang under.
type shardMeter struct {
	tr     *tracer
	window atomic.Int64
	parent atomic.Int64
	mu     sync.Mutex
	calls  []shardCall
}

type shardCall struct {
	window              int
	ms                  float64
	reqBytes, respBytes int64
}

type windowTraffic struct {
	requests            int
	slowestMS           float64
	reqBytes, respBytes int64
}

func (m *shardMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		win := int(m.window.Load())
		if win < 0 {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body, n: new(atomic.Int64)}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		sp := m.tr.begin("shardrpc.serve", int(m.parent.Load()), win)
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		m.tr.end(sp)
		m.mu.Lock()
		m.calls = append(m.calls, shardCall{window: win, ms: ms(d), reqBytes: body.n.Load(), respBytes: cw.n})
		m.mu.Unlock()
	})
}

func (m *shardMeter) perWindow() map[int]windowTraffic {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]windowTraffic)
	for _, c := range m.calls {
		t := out[c.window]
		t.requests++
		t.reqBytes += c.reqBytes
		t.respBytes += c.respBytes
		if c.ms > t.slowestMS {
			t.slowestMS = c.ms
		}
		out[c.window] = t
	}
	return out
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
