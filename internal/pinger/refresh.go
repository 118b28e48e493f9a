package pinger

// Pinglist refresh: the pinger's half of the delta pipeline. Every window
// boundary the agent asks the controller what changed since the version it
// holds (GET /pinglist?node=N&since=V with If-None-Match): in the steady
// state that is one 304 and nothing else; after topology churn it is a
// small delta applied atomically between windows — probing for removed
// paths stops, new paths start, untouched paths keep their per-path state
// and their in-flight probes.

import (
	"reflect"

	"github.com/detector-net/detector/internal/control"
	"github.com/detector-net/detector/internal/obs"
)

// pinglistRefreshes counts applied pinglist changes (full or delta);
// pinglistUnchanged counts refresh rounds answered 304.
var (
	pinglistRefreshes = obs.NewCounter("pinger_pinglist_refreshes",
		"Pinglist changes a pinger applied, full or delta.")
	pinglistUnchanged = obs.NewCounter("pinger_pinglist_unchanged",
		"Pinglist refresh rounds answered 304 Not Modified.")
)

// refreshPinglist polls the controller for a work-order change and applies
// it. Runs on the sweep/report goroutine, so the swap lands exactly at a
// window boundary: the closed window's counters were already snapshotted
// by report().
func (p *Pinger) refreshPinglist() {
	if p.controllerURL == "" {
		return
	}
	p.mu.Lock()
	version := p.pinglist.Version
	p.mu.Unlock()
	d, notModified, err := control.FetchPinglistDelta(p.client, p.controllerURL, p.Node, version)
	if err != nil {
		return // transient; ask again next window
	}
	if notModified {
		pinglistUnchanged.Inc()
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if d == nil {
		// No longer a pinger this cycle: stop probing, keep the loops
		// alive for a later re-listing.
		if len(p.paths) > 0 {
			pinglistRefreshes.Inc()
			p.paths = nil
			clear(p.pending)
		}
		return
	}
	if d.Version <= p.pinglist.Version {
		return // stale response raced a newer refresh
	}
	pinglistRefreshes.Inc()

	// Capture the wire path ID each in-flight probe refers to before the
	// path slice changes shape.
	oldID := make([]uint32, len(p.paths))
	for i, st := range p.paths {
		oldID[i] = st.entry.PathID
	}
	newPL := control.ApplyDelta(p.pinglist, d)

	// Rebuild path state: an entry identical to one already probed keeps
	// its state object (counters, flow-label cursor, RTT baseline stay
	// warm — this is also every entry of a full snapshot that matches);
	// a new or changed entry starts cold.
	byID := make(map[uint32]*pathState, len(p.paths))
	for _, st := range p.paths {
		byID[st.entry.PathID] = st
	}
	paths := make([]*pathState, 0, len(newPL.Entries))
	kept := make(map[uint32]int, len(newPL.Entries))
	for _, e := range newPL.Entries {
		if st, ok := byID[e.PathID]; ok && reflect.DeepEqual(st.entry, e) {
			kept[e.PathID] = len(paths)
			paths = append(paths, st)
			continue
		}
		paths = append(paths, &pathState{entry: e})
	}
	// Remap in-flight probes: a probe on a surviving path follows it to
	// its new index; a probe on a removed or redefined path is forgotten
	// (its route no longer exists — a timeout would report a phantom
	// loss against the new matrix).
	for id, o := range p.pending {
		if ni, ok := kept[oldID[o.pathIdx]]; ok {
			o.pathIdx = ni
			p.pending[id] = o
		} else {
			delete(p.pending, id)
		}
	}
	p.paths = paths
	p.pinglist = newPL
}

// PinglistVersion returns the version of the work order currently probed.
func (p *Pinger) PinglistVersion() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinglist.Version
}
