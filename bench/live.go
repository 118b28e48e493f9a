package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/detector-net/detector/internal/cluster"
	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/diag"
	"github.com/detector-net/detector/internal/fabric"
	"github.com/detector-net/detector/internal/responder"
	"github.com/detector-net/detector/internal/sim"
	"github.com/detector-net/detector/internal/topo"
	"github.com/detector-net/detector/internal/wire"
)

// liveParams shapes one run of the live-cluster script: the whole
// deployment on loopback, full-loss faults injected on an open-loop
// schedule fixed before the first one, each timed from when it was due
// to the alert that names its link.
type liveParams struct {
	k                    int
	window, probeTimeout time.Duration
	ratePPS              int
	warmupWindows        int
	minTrials            int
	echoProbes           int
	codecOps             int
}

// trial is one fault: when it was injected and repaired, and how long
// after it was due the alert naming its link was seen.
type trial struct {
	link                    topo.LinkID
	due, injected, repaired time.Time
	detectMS                float64
	detected                bool
	root, await             int // spans
}

// setupLive boots the cluster and waits until every pinger has shipped a
// report: the boot itself is milliseconds, the fleet reporting is what an
// operator waits for.
func setupLive(p liveParams, seed int64) (*cluster.Cluster, error) {
	ctl := control.DefaultConfig()
	ctl.RatePPS = p.ratePPS
	ctl.WindowMS = int(p.window / time.Millisecond)
	c, err := cluster.Start(cluster.Options{
		K: p.k, Control: ctl, Window: p.window, ProbeTimeout: p.probeTimeout, RuleSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(10 * p.window); c.Diagnoser.Reports() < int64(len(c.Pingers)); {
		if time.Now().After(deadline) {
			c.Stop()
			return nil, fmt.Errorf("only %d of %d pingers reported within %v", c.Diagnoser.Reports(), len(c.Pingers), 10*p.window)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

func runLive(e *env, p liveParams) error {
	rec, tr := e.rec, e.tr
	c, setupS, err := timeSetups(e.setups,
		func() (*cluster.Cluster, error) { return setupLive(p, e.seed) }, (*cluster.Cluster).Stop)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()
	rec.set("setup_s", setupS)
	calibBefore := calibrate()

	// Inputs: the seeded order in which switch links fail.
	rng := rand.New(rand.NewSource(e.seed))
	links := append([]topo.LinkID(nil), c.F.SwitchLinks()...)
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })

	// The schedule, fixed before the first fault: trial j is due at
	// anchor + j*(4W + W/n) — four windows apart, so one fault's alerts
	// are normally over before the next, and W/n more, so the injection
	// phase sweeps one whole window evenly over the run. Detection takes
	// two or three windows; one trial in a few hundred needs four or more,
	// and runs on beside its successor until the 7.75 W deadline rather
	// than count as a miss at the first window it is late.
	W := p.window
	n := int(e.seconds * float64(time.Second) / float64(4*W))
	if n < p.minTrials {
		n = p.minTrials
	}
	gap := 4*W + W/time.Duration(n)
	deadline := 31 * W / 4
	time.Sleep(time.Duration(p.warmupWindows) * W)

	cpu0, _ := rusage()
	reports0 := c.Diagnoser.Reports()
	// The diagnoser keeps its alerts in a bounded ring, so a position in
	// Alerts() means nothing once it wraps: the harness keeps its own log of
	// the trial phase, told apart by time.
	var alerts []diag.Alert
	var lastSeen time.Time
	if old := c.Diagnoser.Alerts(); len(old) > 0 {
		lastSeen = old[len(old)-1].Time
	}
	anchor := time.Now()
	trials := make([]trial, n)
	for j := range trials {
		trials[j].link = links[j%len(links)]
		trials[j].due = anchor.Add(time.Duration(j) * gap)
	}

	// One goroutine injects what is due, polls the alert log every 2 ms
	// for the faults in flight, and repairs at the alert or the deadline.
	var lateMS []float64
	next := 0
	var active []*trial
	for next < n || len(active) > 0 {
		for next < n && !trials[next].due.After(time.Now()) {
			t := &trials[next]
			next++
			t.root = tr.begin("live.trial", 0, next)
			sp := tr.begin("cluster.inject", t.root, next)
			t.injected = time.Now()
			c.InjectFailure(t.link, sim.FullLoss{})
			tr.end(sp)
			t.await = tr.begin("live.await_alert", t.root, next)
			lateMS = append(lateMS, ms(t.injected.Sub(t.due)))
			active = append(active, t)
		}
		all := c.Diagnoser.Alerts()
		fresh := len(all)
		for fresh > 0 && all[fresh-1].Time.After(lastSeen) {
			fresh--
		}
		for _, a := range all[fresh:] {
			lastSeen = a.Time
			for _, v := range a.Bad {
				for _, t := range active {
					if v.Link == t.link && a.Time.After(t.injected) {
						t.detected = true
					}
				}
			}
		}
		alerts = append(alerts, all[fresh:]...)
		inFlight := active[:0]
		for _, t := range active {
			seen := time.Now()
			if !t.detected && seen.Before(t.due.Add(deadline)) {
				inFlight = append(inFlight, t)
				continue
			}
			if !t.detected {
				seen = t.due.Add(deadline) // a miss counts as the deadline
			}
			op := int(t.due.Sub(anchor)/gap) + 1
			tr.end(t.await)
			sp := tr.begin("cluster.repair", t.root, op)
			c.Repair(t.link)
			t.repaired = time.Now()
			tr.end(sp)
			tr.end(t.root)
			t.detectMS = ms(seen.Sub(t.due))
			if t.detected {
				rec.op(nil)
			} else {
				rec.op(fmt.Errorf("trial %d: link %d not named within %v", op-1, t.link, deadline))
			}
		}
		active = inFlight
		sleep := 2 * time.Millisecond
		if next < n {
			if until := time.Until(trials[next].due); until < sleep {
				sleep = until
			}
		}
		time.Sleep(sleep)
	}
	wall := time.Since(anchor)
	cpu1, _ := rusage()
	reports1 := c.Diagnoser.Reports()
	c.Stop()
	stopped = true
	rec.snapshotRSS()
	calibAfter := calibrate()

	var detectMS []float64
	detected := 0
	for _, t := range trials {
		detectMS = append(detectMS, t.detectMS)
		if t.detected {
			detected++
		}
	}
	// The mean, not the median: latency is a sawtooth in the injection
	// phase (an alert leaves at a window boundary), and the schedule's even
	// sweep integrates the sawtooth only in the mean.
	headline := sum(detectMS) / float64(n)
	rec.set("op_ms", headline)
	rec.set("accuracy", ratio(detected, n))
	// A run has 0 or 1 false verdicts in some 35: as a ratio that moves by
	// 3 % between runs, and one bound serves every workload, so it would
	// loosen the bound that guards diagnose-*. Detection is this workload's
	// only gated quality; live.false_alerts is a per-layer row.
	rec.set("precision", ratio(detected, n))
	if !tr.on {
		return nil
	}

	// A Bad verdict is false when its link was not faulted during the
	// five windows before the alert.
	falseAlerts := 0
	var localizeMS []float64
	for _, a := range alerts {
		localizeMS = append(localizeMS, a.ElapsedMS)
		for _, v := range a.Bad {
			explained := false
			for _, t := range trials {
				if t.link == v.Link && !a.Time.Before(t.injected) && a.Time.Before(t.repaired.Add(5*W)) {
					explained = true
				}
			}
			if !explained {
				falseAlerts++
			}
		}
	}
	rec.set("host.calib_ms", (calibBefore+calibAfter)/2)
	rec.set("bench.traced_op_ms", headline)
	rec.set("live.detect_ms", headline)
	rec.set("live.detect_p50_ms", median(detectMS))
	rec.set("live.detect_windows", headline/ms(W))
	rec.set("live.inject_late_ms", median(lateMS))
	rec.set("live.false_alerts", float64(falseAlerts))
	rec.set("cluster.cpu_cores", (cpu1-cpu0).Seconds()/wall.Seconds())
	rec.set("diag.reports_per_s", float64(reports1-reports0)/wall.Seconds())
	rec.set("pll.localize_ms", median(localizeMS))
	return probePlane(e, p, n+1)
}

// probePlane measures the probe plane on parts the harness owns: a fabric,
// one responder, and one harness socket registered as a server, sending
// one probe at a time across the longest route and waiting for its echo.
func probePlane(e *env, p liveParams, firstOp int) error {
	rec, tr := e.rec, e.tr
	f, err := topo.NewFattree(p.k)
	if err != nil {
		return err
	}
	rules := fabric.NewRuleTable(e.seed)
	fab, err := fabric.Start(f.Topology, rules)
	if err != nil {
		return fmt.Errorf("probe plane: %w", err)
	}
	defer fab.Stop()
	src, dst := f.ServerID[0][0][0], f.ServerID[p.k-1][0][0]
	resp, err := responder.Start(f.Topology, rules, fab.Registry, dst)
	if err != nil {
		return fmt.Errorf("probe plane: %w", err)
	}
	defer resp.Stop()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("probe plane: %w", err)
	}
	defer conn.Close()
	fab.Registry.Register(src, conn.LocalAddr().(*net.UDPAddr))

	hops := []topo.NodeID{src}
	hops = f.PathHops(f.ToRAt(0, 0), f.ToRAt(p.k-1, 0), 0, hops)
	hops = append(hops, dst)
	var out []byte
	in := make([]byte, 4096)
	phase := time.Now()
	for i := 0; i < p.echoProbes; i++ {
		pkt := &wire.Packet{ProbeID: uint64(i + 1), PathID: 1, FlowLabel: uint32(33434 + i%16),
			SendNS: time.Now().UnixNano(), Route: hops}
		sp := tr.begin("fabric.echo", 0, firstOp+i)
		out, err = fabric.SendFirstHop(conn, fab.Registry, pkt, out)
		if err == nil {
			err = conn.SetReadDeadline(time.Now().Add(time.Second))
		}
		var echo *wire.Packet
		if err == nil {
			var n int
			if n, _, err = conn.ReadFromUDP(in); err == nil {
				echo, err = wire.Unmarshal(in[:n])
			}
		}
		tr.end(sp)
		if err == nil && (echo.ProbeID != pkt.ProbeID || echo.Flags&wire.FlagReply == 0) {
			err = fmt.Errorf("echo %d does not answer probe %d", echo.ProbeID, pkt.ProbeID)
		}
		if err != nil {
			return fmt.Errorf("probe plane echo %d: %w", i, err)
		}
	}
	wall := time.Since(phase)
	rec.set("fabric.echo_rtt_us", median(tr.ms("fabric.echo"))*1e3)
	rec.set("fabric.echo_per_s", float64(p.echoProbes)/wall.Seconds())

	pkt := &wire.Packet{ProbeID: 1, PathID: 2, FlowLabel: 3, SendNS: 4, Route: hops}
	t0 := time.Now()
	for i := 0; i < p.codecOps; i++ {
		if out, err = pkt.Marshal(out[:0]); err != nil {
			return fmt.Errorf("wire codec: %w", err)
		}
		got, err := wire.Unmarshal(out)
		if err != nil {
			return fmt.Errorf("wire codec: %w", err)
		}
		pkt.ProbeID = got.ProbeID + 1
	}
	rec.set("wire.codec_ns", float64(time.Since(t0).Nanoseconds())/float64(p.codecOps))
	return nil
}
