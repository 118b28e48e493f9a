package control

// Pinglist delta serving: the churn pipeline's last hop. Construction
// reuses clean components, so after a topology change most pinglists are
// unchanged and the changed ones differ in a handful of entries. The
// controller keeps a short per-node history of published pinglists and
// serves GET /pinglist?node=N&since=V as the difference between version V
// and the current work order — path IDs to stop probing plus full entries
// to start — as the shardrpc kind-7 binary frame. A base
// version that has aged out of the history ring degrades to a full
// snapshot (FromVersion 0), never an error.

import (
	"fmt"
	"io"
	"net/http"

	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// DeltaFor computes the difference between the pinglist the node held at
// version since and its current pinglist. It returns nil when the node is
// not a pinger this cycle. since values of 0, the current version, or one
// not present in the history ring yield a full snapshot (FromVersion 0) —
// callers wanting "no change" short-circuiting should compare versions (or
// use the ETag) first.
func (c *Controller) DeltaFor(n topo.NodeID, since int) *shardrpc.PinglistDelta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cur := c.pinglists[n]
	if cur == nil {
		return nil
	}
	d := &shardrpc.PinglistDelta{
		Node:      n,
		Version:   cur.Version,
		RatePPS:   cur.RatePPS,
		WindowMS:  cur.WindowMS,
		ReportURL: cur.ReportURL,
	}
	var base *Pinglist
	if since > 0 && since < cur.Version {
		for _, h := range c.history[n] {
			if h.Version == since {
				base = h
				break
			}
		}
	}
	if base == nil {
		// Full snapshot: no usable base.
		for i := range cur.Entries {
			d.Added = append(d.Added, toPingEntry(&cur.Entries[i]))
		}
		return d
	}
	d.FromVersion = since
	// Both entry lists are ascending by path ID; one merge walk classifies
	// every entry. A path present in both with a changed definition rides
	// as an upsert in Added.
	i, j := 0, 0
	for i < len(base.Entries) && j < len(cur.Entries) {
		a, b := &base.Entries[i], &cur.Entries[j]
		switch {
		case a.PathID < b.PathID:
			d.Removed = append(d.Removed, a.PathID)
			i++
		case a.PathID > b.PathID:
			d.Added = append(d.Added, toPingEntry(b))
			j++
		default:
			if !entryEqual(a, b) {
				d.Added = append(d.Added, toPingEntry(b))
			}
			i, j = i+1, j+1
		}
	}
	for ; i < len(base.Entries); i++ {
		d.Removed = append(d.Removed, base.Entries[i].PathID)
	}
	for ; j < len(cur.Entries); j++ {
		d.Added = append(d.Added, toPingEntry(&cur.Entries[j]))
	}
	return d
}

func toPingEntry(e *Entry) shardrpc.PingEntry {
	return shardrpc.PingEntry{
		PathID: e.PathID, Route: e.Route, FlowLabels: e.FlowLabels, DSCP: e.DSCP,
	}
}

// ApplyDelta folds a delta into a pinglist (Removed first, then Added as
// upserts) and returns the updated list, entries ascending by path ID.
// A full-snapshot delta replaces the entry set outright. The pinger uses
// this at window boundaries; tests use it to prove delta serving is
// bit-identical to a full fetch.
func ApplyDelta(pl *Pinglist, d *shardrpc.PinglistDelta) *Pinglist {
	out := &Pinglist{
		Version: d.Version, Node: d.Node,
		RatePPS: d.RatePPS, WindowMS: d.WindowMS, ReportURL: d.ReportURL,
	}
	if d.Full() || pl == nil {
		for i := range d.Added {
			out.Entries = append(out.Entries, fromPingEntry(&d.Added[i]))
		}
		return out
	}
	removed := make(map[uint32]bool, len(d.Removed))
	for _, id := range d.Removed {
		removed[id] = true
	}
	added := make(map[uint32]int, len(d.Added))
	for i := range d.Added {
		added[d.Added[i].PathID] = i
	}
	// Old entries survive unless removed or upserted; both lists are
	// ascending, so appending surviving entries and merging in the new ones
	// keeps the result sorted with one walk.
	i, j := 0, 0
	for i < len(pl.Entries) || j < len(d.Added) {
		if j >= len(d.Added) {
			e := &pl.Entries[i]
			if !removed[e.PathID] {
				if _, up := added[e.PathID]; !up {
					out.Entries = append(out.Entries, *e)
				}
			}
			i++
			continue
		}
		if i >= len(pl.Entries) || d.Added[j].PathID <= pl.Entries[i].PathID {
			out.Entries = append(out.Entries, fromPingEntry(&d.Added[j]))
			if i < len(pl.Entries) && pl.Entries[i].PathID == d.Added[j].PathID {
				i++ // upsert consumed the old entry
			}
			j++
			continue
		}
		e := &pl.Entries[i]
		if !removed[e.PathID] {
			out.Entries = append(out.Entries, *e)
		}
		i++
	}
	return out
}

func fromPingEntry(e *shardrpc.PingEntry) Entry {
	return Entry{PathID: e.PathID, Route: e.Route, FlowLabels: e.FlowLabels, DSCP: e.DSCP}
}

// FetchPinglistDelta retrieves a pinger's work-order change from the
// controller: GET /pinglist?node=N&since=V with If-None-Match on the held
// version's ETag, answered with a kind-7 binary frame. Returns
// (nil, true, nil) when the list is unchanged (304), and (nil, false, nil)
// when the node is not a pinger this cycle.
func FetchPinglistDelta(client *http.Client, baseURL string, n topo.NodeID, since int) (d *shardrpc.PinglistDelta, notModified bool, err error) {
	url := fmt.Sprintf("%s/pinglist?node=%d&since=%d", baseURL, n, since)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	if since > 0 {
		req.Header.Set("If-None-Match", pinglistETag(since))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return nil, true, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, nil
	case resp.StatusCode/100 != 2:
		return nil, false, fmt.Errorf("control: pinglist delta status %s", resp.Status)
	}
	frame, err := readBodyLimited(resp.Body, maxDeltaBody)
	if err != nil {
		return nil, false, err
	}
	d, err = shardrpc.DecodePinglistDeltaBinary(frame, maxDeltaBody)
	if err != nil {
		return nil, false, err
	}
	return d, false, nil
}

// maxDeltaBody caps a pinglist delta response (64 MiB — a full Fattree
// snapshot fits with room to spare).
const maxDeltaBody = 64 << 20

func readBodyLimited(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("control: delta body exceeds %d bytes", limit)
	}
	return data, nil
}

// pinglistETag is the version-derived entity tag served (and matched) on
// GET /pinglist.
func pinglistETag(version int) string { return fmt.Sprintf("%q", fmt.Sprintf("v%d", version)) }
