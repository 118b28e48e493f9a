package pinger

// Report shipping. Once per window epoch the pinger snapshots its counters
// and POSTs one kind-5 report frame (shardrpc.Report) to the diagnoser's
// /report. A POST that fails keeps the aggregate: it merges with the next
// window and ships again under that window's epoch, so a diagnoser outage
// delays data but never drops it; every failure bumps
// pinger_report_failures.

import (
	"bytes"
	"io"
	"sort"

	"github.com/detector-net/detector/internal/obs"
	"github.com/detector-net/detector/internal/shardrpc"
)

// reportFailures counts report frames that failed to reach the diagnoser
// (network error, 5xx, or a rejected body).
var reportFailures = obs.NewCounter("pinger_report_failures",
	"Report frames that failed to reach the diagnoser.")

// pendAgg is one path's undelivered aggregate: counters summed, signal sums
// delivered-weighted exactly as the diagnoser merges them, so a window that
// ships late with the next one merges the same as if both had arrived.
type pendAgg struct {
	sent, lost     int
	acked, rttW    float64
	rttSum, jitSum float64
	ecnSum         float64
}

// report snapshots and resets the window counters, merges them into the
// pending aggregate, and ships it. endNS is the epoch boundary the frame
// answers for. A frame ships even with no results: the diagnoser closes
// the epoch on it instead of waiting out its grace.
func (p *Pinger) report(endNS int64) {
	p.mu.Lock()
	version := p.pinglist.Version
	var results []PathReport
	for _, st := range p.paths {
		// Probes still pending are carried into the next window.
		counted := st.acked + st.lost
		if counted == 0 {
			continue
		}
		pr := PathReport{PathID: st.entry.PathID, Sent: counted, Lost: st.lost}
		// All signal means divide by acked; with nothing delivered they
		// stay zero rather than NaN/Inf.
		if st.acked > 0 {
			pr.MeanRTTNS = st.rttNS / int64(st.acked)
			pr.JitterNS = int64(st.jitter)
			pr.ECNFrac = float64(st.ecn) / float64(st.acked)
		}
		results = append(results, pr)
		st.sent -= counted
		st.acked, st.lost, st.rttNS, st.confirms = 0, 0, 0, 0
		st.ecn, st.jitter, st.prevRTT = 0, 0, 0
	}
	p.mu.Unlock()
	if p.pinglist.ReportURL == "" {
		return
	}

	p.repMu.Lock()
	defer p.repMu.Unlock()
	for _, r := range results {
		a := p.pend[r.PathID]
		if a == nil {
			a = &pendAgg{}
			p.pend[r.PathID] = a
		}
		a.sent += r.Sent
		a.lost += r.Lost
		if del := float64(r.Sent - r.Lost); del > 0 {
			a.acked += del
			a.ecnSum += r.ECNFrac * del
			if r.MeanRTTNS > 0 {
				a.rttW += del
				a.rttSum += float64(r.MeanRTTNS) * del
				a.jitSum += float64(r.JitterNS) * del
			}
		}
	}

	rep := Report{Node: p.Node, Version: version, EndNS: endNS, Results: p.pendResults()}
	ok, retry := p.post(rep.EncodeBinary())
	if !ok {
		reportFailures.Inc()
	}
	// On a retryable failure the aggregate stays pending: the next window
	// merges on top and ships again — delayed, never dropped.
	if ok || !retry {
		clear(p.pend)
	}
}

// pendResults flattens the pending aggregate into report results,
// ascending by path ID (the cheapest order for the frame's delta cursor).
func (p *Pinger) pendResults() []PathReport {
	out := make([]PathReport, 0, len(p.pend))
	for id, a := range p.pend {
		r := PathReport{PathID: id, Sent: a.sent, Lost: a.lost}
		if a.rttW > 0 {
			r.MeanRTTNS = int64(a.rttSum / a.rttW)
			r.JitterNS = int64(a.jitSum / a.rttW)
		}
		if a.acked > 0 {
			r.ECNFrac = a.ecnSum / a.acked
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PathID < out[j].PathID })
	return out
}

// post delivers one report frame. 2xx succeeds; a network error or server
// error is retryable (the aggregate re-merges); a 4xx rejection is not —
// resending a frame the server calls malformed would loop forever.
func (p *Pinger) post(frame []byte) (ok, retry bool) {
	resp, err := p.client.Post(p.pinglist.ReportURL+"/report", shardrpc.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		return false, true
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode < 300:
		return true, true
	case resp.StatusCode >= 500:
		return false, true
	default:
		return false, false
	}
}
