package pinger

// Report shipping, rebuilt as a streaming path. The original pinger POSTed
// one JSON body per window and threw the snapshot away whatever the
// diagnoser answered — a crashed POST was silent data loss. This file adds
// the three report-plane upgrades of the streaming ingest design plus the
// loss fix:
//
//   - Batched pre-aggregation: BatchWindows report windows merge locally
//     (counters summed, signal means delivered-weighted) before one payload
//     ships, cutting report-plane requests by the batch factor.
//   - Capability negotiation: the first ship fetches GET /reportcaps once.
//     A diagnoser that speaks the v2 report plane advertises stream and
//     summary ingest; a 404 means a legacy server and the pinger stays on
//     JSON POSTs — the same downgrade ladder as the shard codec.
//   - Wire variants: per-window kind-5 binary frames, kind-6 summary frames
//     (TopK worst paths with full signals, everything else as bare residue
//     counters), and a persistent POST /reportstream connection carrying
//     back-to-back frames.
//   - No silent loss: a failed POST keeps the pending aggregate, which
//     re-merges with the next window and ships again under that window's
//     epoch; every failure bumps pinger_report_failures. The stream path
//     is at-most-once per frame (a written frame cannot be un-sent, so a
//     dead stream counts failures instead of double-reporting) and
//     reconnects on the next ship.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"github.com/detector-net/detector/internal/metrics"
	"github.com/detector-net/detector/internal/shardrpc"
)

// reportFailures counts report payloads that failed to reach the diagnoser
// (network error, 5xx, rejected body, or a dead stream connection).
var reportFailures = metrics.NewCounter("pinger_report_failures")

// pendAgg is one path's pending (possibly multi-window) aggregate: counters
// summed, signal sums delivered-weighted exactly as the diagnoser merges
// them, so batching at the edge and merging at the diagnoser commute.
type pendAgg struct {
	sent, lost     int
	acked, rttW    float64
	rttSum, jitSum float64
	ecnSum         float64
}

// report snapshots and resets the window counters, merges them into the
// pending aggregate, and ships when the batch is due. endNS is the epoch
// boundary the frame answers for. A due frame ships even with no results:
// the diagnoser closes the epoch on it instead of waiting out its grace.
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
	p.pendWindows++
	batch := p.Opts.BatchWindows
	if batch < 1 {
		batch = 1
	}
	if p.pendWindows < batch {
		return
	}

	ok, retry := p.ship(version, endNS)
	if ok {
		p.clearPend()
		return
	}
	reportFailures.Inc()
	if !retry {
		p.clearPend()
	}
	// On a retryable failure the aggregate stays pending: the next window
	// merges on top and the batch ships again — delayed, never dropped.
}

func (p *Pinger) clearPend() {
	clear(p.pend)
	p.pendWindows = 0
}

// pendResults flattens the pending aggregate into wire results, ascending
// by path ID (the cheapest order for every encoding, and structural for
// the summary frame).
func (p *Pinger) pendResults() []shardrpc.ReportResult {
	out := make([]shardrpc.ReportResult, 0, len(p.pend))
	for id, a := range p.pend {
		r := shardrpc.ReportResult{PathID: id, Sent: a.sent, Lost: a.lost}
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

// ship delivers the pending aggregate over the richest path the diagnoser
// speaks. It reports whether delivery succeeded and, on failure, whether
// the aggregate should be retained for a retry (false for rejected bodies,
// which would fail forever, and for frames already written to a stream).
func (p *Pinger) ship(version int, endNS int64) (ok, retry bool) {
	results := p.pendResults()

	binaryOK, summaryOK, streamOK := p.negotiate()
	if !binaryOK {
		rep := Report{Node: p.Node, Version: version, EndNS: endNS,
			Results: make([]PathReport, len(results))}
		for i, r := range results {
			rep.Results[i] = PathReport{PathID: r.PathID, Sent: r.Sent, Lost: r.Lost,
				MeanRTTNS: r.MeanRTTNS, JitterNS: r.JitterNS, ECNFrac: r.ECNFrac}
		}
		body, err := json.Marshal(rep)
		if err != nil {
			return false, false
		}
		return p.post("application/json", body)
	}

	var frame []byte
	if summaryOK && p.Opts.TopK > 0 {
		sum := p.buildSummary(version, endNS, results)
		frame = sum.EncodeBinary()
	} else {
		wr := shardrpc.Report{Node: p.Node, Version: version, EndNS: endNS, Results: results}
		frame = wr.EncodeBinary()
	}
	if streamOK && p.Opts.StreamReports {
		if err := p.streamWrite(frame); err != nil {
			// At-most-once: the frame may have partially reached the wire,
			// so it must not re-merge. The stream reconnects next ship.
			return false, false
		}
		return true, true
	}
	return p.post(shardrpc.ContentTypeBinary, frame)
}

// buildSummary splits the pending results into the TopK worst paths (kept
// with full signal detail) and the residue (bare counters). Worst ranks by
// absolute losses, then loss rate, then path ID — deterministic for tests
// and stable across windows.
func (p *Pinger) buildSummary(version int, endNS int64, results []shardrpc.ReportResult) *shardrpc.SummaryReport {
	k := p.Opts.TopK
	sum := &shardrpc.SummaryReport{
		Node: p.Node, Version: version, EndNS: endNS,
		Windows: p.pendWindows, TopK: k,
	}
	if len(results) <= k {
		sum.Worst = results
		return sum
	}
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := results[order[a]], results[order[b]]
		if ra.Lost != rb.Lost {
			return ra.Lost > rb.Lost
		}
		la := float64(ra.Lost) * float64(rb.Sent)
		lb := float64(rb.Lost) * float64(ra.Sent)
		if la != lb {
			return la > lb
		}
		return ra.PathID < rb.PathID
	})
	worst := make(map[int]bool, k)
	for _, idx := range order[:k] {
		worst[idx] = true
	}
	for i, r := range results { // results are ascending; both sections stay so
		if worst[i] {
			sum.Worst = append(sum.Worst, r)
		} else {
			sum.Residue = append(sum.Residue, shardrpc.ResidueCounter{
				PathID: r.PathID, Sent: r.Sent, Lost: r.Lost})
		}
	}
	return sum
}

// negotiate resolves the report-plane capabilities, fetching /reportcaps
// once and caching the outcome. JSON-configured pingers never negotiate.
func (p *Pinger) negotiate() (binaryOK, summaryOK, streamOK bool) {
	if p.Opts.ReportWire != shardrpc.CodecBinary {
		return false, false, false
	}
	if !p.capsOK {
		resp, err := p.client.Get(p.pinglist.ReportURL + "/reportcaps")
		if err != nil {
			// Unreachable — stay on JSON this round, ask again next ship.
			return false, false, false
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var caps shardrpc.ReportCaps
			if json.NewDecoder(resp.Body).Decode(&caps) == nil {
				p.caps = &caps
			}
			p.capsOK = true
		default:
			// Legacy diagnoser (404 and kin): binary kind-5 frames predate
			// the caps endpoint, so they remain safe; stream and summary
			// require the advertisement.
			p.caps = &shardrpc.ReportCaps{Codecs: []string{shardrpc.CodecJSON, shardrpc.CodecBinary}}
			p.capsOK = true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if p.caps == nil {
		return false, false, false
	}
	for _, c := range p.caps.Codecs {
		if c == shardrpc.CodecBinary {
			binaryOK = true
		}
	}
	return binaryOK, binaryOK && p.caps.Summary, binaryOK && p.caps.Stream
}

// post delivers one report body. 2xx succeeds; a network error or server
// error is retryable (the aggregate re-merges); a 4xx rejection is not —
// resending a body the server calls malformed would loop forever.
func (p *Pinger) post(contentType string, body []byte) (ok, retry bool) {
	resp, err := p.client.Post(p.pinglist.ReportURL+"/report", contentType, bytes.NewReader(body))
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

// streamWrite ships one frame over the persistent report stream, opening
// the connection on first use. The request body is an io.Pipe: each window
// writes its frame and the transport streams it chunked; the server only
// responds when the pinger closes the stream (or rejects a frame, which
// surfaces here as a pipe write error on the next frame).
func (p *Pinger) streamWrite(frame []byte) error {
	if p.streamW == nil {
		pr, pw := io.Pipe()
		// The stream outlives any per-request timeout: run it on a clone of
		// the client without the overall deadline.
		cl := &http.Client{Transport: p.client.Transport}
		go func() {
			resp, err := cl.Post(p.pinglist.ReportURL+"/reportstream", shardrpc.ContentTypeBinary, pr)
			if err != nil {
				pr.CloseWithError(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			pr.Close()
		}()
		p.streamW = pw
	}
	if _, err := p.streamW.Write(frame); err != nil {
		p.streamW.CloseWithError(err)
		p.streamW = nil
		return err
	}
	return nil
}

// closeStream ends the persistent report connection cleanly (Stop path).
func (p *Pinger) closeStream() {
	p.repMu.Lock()
	if p.streamW != nil {
		p.streamW.Close()
		p.streamW = nil
	}
	p.repMu.Unlock()
}
