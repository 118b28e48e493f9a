package control

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/detector-net/detector/internal/shardrpc"
	"github.com/detector-net/detector/internal/topo"
)

// churnHarness drives a controller through link flaps and unhealthy-set
// changes, and after every cycle checks what it serves against a
// controller built from scratch, and every delta its history rings can
// answer against the pinglists it served before.
type churnHarness struct {
	tb   testing.TB
	f    *topo.Fattree
	cfg  Config
	c    *Controller
	down map[topo.LinkID]bool
	sick map[topo.NodeID]bool
	// served holds every pinglist each node was served, by version.
	served map[topo.NodeID]map[int]*Pinglist
	// agedOut counts the aged-out versions the checks asked for.
	agedOut int
}

func newChurnHarness(tb testing.TB, k int) *churnHarness {
	f := topo.MustFattree(k)
	cfg := DefaultConfig()
	cfg.ReportURL = "http://diagnoser.test"
	h := &churnHarness{
		tb: tb, f: f, cfg: cfg, c: New(f, cfg),
		down:   make(map[topo.LinkID]bool),
		sick:   make(map[topo.NodeID]bool),
		served: make(map[topo.NodeID]map[int]*Pinglist),
	}
	tb.Cleanup(h.c.Close)
	h.cycle("cold")
	return h
}

// flap toggles each link, down if it is up and up if it is down, in one
// churn step, then runs a cycle.
func (h *churnHarness) flap(links ...topo.LinkID) {
	var down, up []topo.LinkID
	for _, l := range links {
		if h.down[l] {
			up = append(up, l)
		} else {
			down = append(down, l)
		}
		h.down[l] = !h.down[l]
	}
	if _, err := h.c.ApplyChurn(down, up); err != nil {
		h.tb.Fatalf("churn down %v up %v: %v", down, up, err)
	}
	h.cycle(fmt.Sprintf("flap down %v up %v", down, up))
}

// toggleSick marks a healthy server unhealthy or an unhealthy one healthy,
// then runs a cycle.
func (h *churnHarness) toggleSick(n topo.NodeID) {
	h.sick[n] = !h.sick[n]
	h.cycle(fmt.Sprintf("server %d sick %v", n, h.sick[n]))
}

func (h *churnHarness) cycle(ctx string) {
	h.tb.Helper()
	if err := h.c.RunCycle(h.sick); err != nil {
		h.tb.Fatalf("%s: %v", ctx, err)
	}
	var down []topo.LinkID
	for l, d := range h.down {
		if d {
			down = append(down, l)
		}
	}
	wcfg := h.cfg
	wcfg.DownLinks = down
	want := New(h.f, wcfg)
	defer want.Close()
	if err := want.RunCycle(h.sick); err != nil {
		h.tb.Fatalf("%s: fresh controller: %v", ctx, err)
	}
	assertSameServing(h.tb, h.c, want, ctx)
	for _, mp := range h.c.matrix.Paths {
		for _, l := range mp.Links {
			if h.down[l] {
				h.tb.Fatalf("%s: served path %d traverses down link %d", ctx, mp.PathID, l)
			}
		}
	}
	for _, n := range h.c.PingerNodes() {
		h.checkDeltas(n, ctx)
	}
}

// checkDeltas checks every delta node n's history ring answers: from each
// version V it holds, ApplyDelta(pinglist@V, DeltaFor(n, V)) is the
// current pinglist, also through the kind-7 frame; from the node's
// previous version the delta is the one an entry-by-entry comparison
// gives, byte for byte; and from a version aged out of the ring it is a
// full snapshot.
func (h *churnHarness) checkDeltas(n topo.NodeID, ctx string) {
	c := h.c
	cur := c.PinglistFor(n)
	if h.served[n] == nil {
		h.served[n] = make(map[int]*Pinglist)
	}
	h.served[n][cur.Version] = cur
	st := c.nodes[n]
	inRing := make(map[int]bool)
	for _, p := range st.ring {
		if p.version == 0 {
			continue
		}
		inRing[p.version] = true
		base := h.served[n][p.version]
		if base == nil {
			h.tb.Fatalf("%s: node %d's ring holds version %d, never served", ctx, n, p.version)
		}
		d := c.DeltaFor(n, p.version)
		if p.version == cur.Version {
			if !d.Full() {
				h.tb.Fatalf("%s: node %d: a delta from the current version is not a full snapshot", ctx, n)
			}
			continue
		}
		if d.FromVersion != p.version {
			h.tb.Fatalf("%s: node %d: delta from version %d in the ring answers from %d", ctx, n, p.version, d.FromVersion)
		}
		rt, err := shardrpc.DecodePinglistDeltaBinary(d.EncodeBinary(), 64<<20)
		if err != nil {
			h.tb.Fatalf("%s: node %d: kind-7 frame: %v", ctx, n, err)
		}
		for _, delta := range []*shardrpc.PinglistDelta{d, rt} {
			if got := ApplyDelta(base, delta); !reflect.DeepEqual(got, cur) {
				h.tb.Fatalf("%s: node %d: the delta from version %d applies to %d entries, not the %d served",
					ctx, n, p.version, len(got.Entries), len(cur.Entries))
			}
		}
	}
	if prev := st.ring[(st.next+deltaHistory-2)%deltaHistory]; prev.version != 0 {
		got, want := c.DeltaFor(n, prev.version).EncodeBinary(), entryDiff(h.served[n][prev.version], cur).EncodeBinary()
		if !bytes.Equal(got, want) {
			h.tb.Fatalf("%s: node %d: the delta from the previous version %d is not the entry-by-entry one", ctx, n, prev.version)
		}
	}
	for v := range h.served[n] {
		if v < cur.Version && !inRing[v] {
			h.agedOut++
			if d := c.DeltaFor(n, v); !d.Full() || len(d.Added) != len(cur.Entries) || d.Removed != nil {
				h.tb.Fatalf("%s: node %d: the delta from aged-out version %d answers from %d", ctx, n, v, d.FromVersion)
			}
		}
	}
}

// entryDiff is the delta an entry-by-entry comparison of two pinglists
// gives: the path IDs only base holds, and every entry of cur that base
// lacks or defines otherwise.
func entryDiff(base, cur *Pinglist) *shardrpc.PinglistDelta {
	d := &shardrpc.PinglistDelta{
		Node: cur.Node, Version: cur.Version, FromVersion: base.Version,
		RatePPS: cur.RatePPS, WindowMS: cur.WindowMS, ReportURL: cur.ReportURL,
	}
	old := make(map[uint32]*Entry, len(base.Entries))
	for i := range base.Entries {
		old[base.Entries[i].PathID] = &base.Entries[i]
	}
	now := make(map[uint32]bool, len(cur.Entries))
	for i := range cur.Entries {
		e := &cur.Entries[i]
		now[e.PathID] = true
		if o := old[e.PathID]; o == nil || !entryEqual(o, e) {
			d.Added = append(d.Added, toPingEntry(e))
		}
	}
	for _, e := range base.Entries {
		if !now[e.PathID] {
			d.Removed = append(d.Removed, e.PathID)
		}
	}
	return d
}

// step runs one random churn step: a one-link or a two-link flap, or an
// unhealthy-set change. At most three links are down and three servers
// unhealthy at once; past that a step brings one back.
func (h *churnHarness) step(op, pick int) {
	links, servers := h.f.SwitchLinks(), h.f.Servers()
	switch op % 3 {
	case 0, 1:
		var ls []topo.LinkID
		for i := 0; i <= op%3; i++ {
			l := links[(pick+i*7)%len(links)]
			if !h.down[l] && countTrue(h.down) >= 3 {
				for dl, d := range h.down {
					if d {
						l = dl
						break
					}
				}
			}
			if len(ls) == 0 || ls[0] != l {
				ls = append(ls, l)
			}
		}
		h.flap(ls...)
	default:
		n := servers[pick%len(servers)]
		if !h.sick[n] && countTrue(h.sick) >= 3 {
			for sn, s := range h.sick {
				if s {
					n = sn
					break
				}
			}
		}
		h.toggleSick(n)
	}
}

// countTrue counts a set's members.
func countTrue[K comparable](set map[K]bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// TestControllerChurnDifferential mixes one- and two-link flaps with
// unhealthy-set changes on Fattree(4) and Fattree(8). After every step the
// served state must equal a fresh controller's, and every version left in
// every node's history ring must delta to the current pinglist.
func TestControllerChurnDifferential(t *testing.T) {
	for _, tc := range []struct{ k, steps int }{{4, 24}, {8, 12}} {
		t.Run(fmt.Sprintf("fattree%d", tc.k), func(t *testing.T) {
			h := newChurnHarness(t, tc.k)
			rng := rand.New(rand.NewSource(int64(7 * tc.k)))
			for i := 0; i < tc.steps; i++ {
				h.step(rng.Intn(3), rng.Intn(1<<16))
			}
			if tc.k == 4 && h.agedOut == 0 {
				t.Fatal("no version aged out of a history ring: the aged-out answer went unchecked")
			}
		})
	}
}

// FuzzPinglistDeltaHistory runs random flap, two-link and unhealthy steps
// on Fattree(4) with TestControllerChurnDifferential's checks after each.
func FuzzPinglistDeltaHistory(f *testing.F) {
	f.Add([]byte{0, 3, 6, 9, 12})
	f.Add([]byte{1, 2, 4, 5, 7, 8, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 16 {
			steps = steps[:16]
		}
		h := newChurnHarness(t, 4)
		for _, b := range steps {
			h.step(int(b), int(b)/3)
		}
	})
}

// TestHistoryRingKeepsDeltaHistoryVersions: after 3·deltaHistory changes
// to one node, its ring holds exactly its last deltaHistory versions.
func TestHistoryRingKeepsDeltaHistoryVersions(t *testing.T) {
	f := topo.MustFattree(4)
	c := New(f, DefaultConfig())
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	l := f.SwitchLinks()[0]
	versions := make(map[topo.NodeID][]int)
	for i := 0; i < 3*deltaHistory; i++ {
		down, up := []topo.LinkID{l}, []topo.LinkID(nil)
		if i%2 == 1 {
			down, up = up, down
		}
		if _, err := c.ApplyChurn(down, up); err != nil {
			t.Fatal(err)
		}
		if err := c.RunCycle(nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range c.PingerNodes() {
			if v := c.PinglistFor(n).Version; v == c.Version() {
				versions[n] = append(versions[n], v)
			}
		}
	}
	checked := 0
	for n, vs := range versions {
		if len(vs) < 3*deltaHistory {
			continue
		}
		checked++
		st := c.nodes[n]
		held := make(map[int]bool)
		for _, p := range st.ring {
			if p.version == 0 || p.ids == nil {
				t.Fatalf("node %d: ring slot empty after %d changes", n, len(vs))
			}
			held[p.version] = true
		}
		want := vs[len(vs)-deltaHistory:]
		for _, v := range want {
			if !held[v] {
				t.Fatalf("node %d: ring lacks version %d, one of its last %d", n, v, deltaHistory)
			}
		}
		if len(held) != deltaHistory {
			t.Fatalf("node %d: ring holds %d versions, want %d", n, len(held), deltaHistory)
		}
	}
	if checked == 0 {
		t.Fatal("no node changed on every flap")
	}
}

// TestFlapReplacesOnlyChangedPinglists: a single-link flap's cycle
// replaces exactly as many pinglist pointers as control_pinglists_changed
// counts, and a pinger whose pinglist it kept keeps its matrix rows' link
// slab too. A cycle that withdraws a sick pinger counts it as well.
func TestFlapReplacesOnlyChangedPinglists(t *testing.T) {
	f := topo.MustFattree(8)
	c := New(f, DefaultConfig())
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	// replaced runs one churn step and a cycle, checks the counter against
	// the pinglist pointers the cycle replaced and returns how many it
	// replaced of how many there were.
	replaced := func(ctx string, down, up []topo.LinkID, sick map[topo.NodeID]bool) (n, of int) {
		t.Helper()
		before := make(map[topo.NodeID]*Pinglist)
		for _, p := range c.PingerNodes() {
			before[p] = c.PinglistFor(p)
		}
		rows := make(map[uint32]*topo.LinkID)
		for _, mp := range c.matrix.Paths {
			rows[mp.PathID] = &mp.Links[0]
		}
		counted := pinglistsChanged.Value()
		if _, err := c.ApplyChurn(down, up); err != nil {
			t.Fatal(err)
		}
		if err := c.RunCycle(sick); err != nil {
			t.Fatal(err)
		}
		kept := make(map[topo.NodeID]bool)
		for _, p := range c.PingerNodes() {
			if before[p] != c.PinglistFor(p) {
				n++
			} else {
				kept[p] = true
			}
		}
		for p := range before {
			if c.PinglistFor(p) == nil {
				n++
			}
		}
		if got := pinglistsChanged.Value() - counted; got != int64(n) {
			t.Fatalf("%s: %d pinglist pointers replaced, control_pinglists_changed moved by %d", ctx, n, got)
		}
		if sick != nil {
			return n, len(before)
		}
		for _, mp := range c.matrix.Paths {
			if kept[mp.Src] && rows[mp.PathID] != &mp.Links[0] {
				t.Fatalf("%s: pinger %d kept its pinglist but path %d's links moved", ctx, mp.Src, mp.PathID)
			}
		}
		return n, len(before)
	}
	links := f.SwitchLinks()
	for i := 0; i < 6; i++ {
		l := []topo.LinkID{links[i*len(links)/6]}
		for _, step := range []struct {
			dir      string
			down, up []topo.LinkID
		}{{"down", l, nil}, {"up", nil, l}} {
			ctx := fmt.Sprintf("link %d %s", l[0], step.dir)
			if n, of := replaced(ctx, step.down, step.up, nil); n == 0 || n >= of/2 {
				t.Fatalf("%s: the flap replaced %d of %d pinglists", ctx, n, of)
			}
		}
	}
	sick := c.PingerNodes()[0]
	if n, _ := replaced(fmt.Sprintf("pinger %d sick", sick), nil, nil, map[topo.NodeID]bool{sick: true}); n == 0 || c.PinglistFor(sick) != nil {
		t.Fatalf("pinger %d sick: %d pinglists replaced, its own withdrawn: %v", sick, n, c.PinglistFor(sick) == nil)
	}
}

// TestFlapRetainsNoPinglistHistory: 100 Fattree(16) flap pairs leave the
// live heap within 1.5 MB of where the first cycle left it. The history
// rings keep path IDs, not pinglists.
func TestFlapRetainsNoPinglistHistory(t *testing.T) {
	f := topo.MustFattree(16)
	c := New(f, DefaultConfig())
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	first := heap()
	links := f.SwitchLinks()
	for i := 0; i < 100; i++ {
		l := []topo.LinkID{links[(i*37)%len(links)]}
		for _, step := range [][2][]topo.LinkID{{l, nil}, {nil, l}} {
			if _, err := c.ApplyChurn(step[0], step[1]); err != nil {
				t.Fatal(err)
			}
			if err := c.RunCycle(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := heap() - first
	t.Logf("100 Fattree(16) flap pairs grew the live heap by %.2f MB (%.2f MB after the first cycle)", grown, first)
	if grown > 1.5 {
		t.Fatalf("100 flap pairs grew the live heap by %.2f MB, want at most 1.5 MB", grown)
	}
}

// TestDeltaServingDuringChurn reads pinglists, ETags and deltas from
// several goroutines while flap cycles publish new versions; run it with
// -race.
func TestDeltaServingDuringChurn(t *testing.T) {
	f := topo.MustFattree(4)
	c := New(f, DefaultConfig())
	defer c.Close()
	if err := c.RunCycle(nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, n := range c.PingerNodes() {
					pl, etag := c.pinglist(n)
					if pl == nil {
						continue
					}
					if etag != pinglistETag(pl.Version) {
						t.Errorf("node %d: ETag %s for version %d", n, etag, pl.Version)
					}
					if d := c.DeltaFor(n, pl.Version-1); d != nil && d.Version < pl.Version {
						t.Errorf("node %d: delta to version %d after serving %d", n, d.Version, pl.Version)
					}
				}
			}
		}()
	}
	l := []topo.LinkID{f.SwitchLinks()[0]}
	for i := 0; i < 20; i++ {
		down, up := l, []topo.LinkID(nil)
		if i%2 == 1 {
			down, up = up, down
		}
		if _, err := c.ApplyChurn(down, up); err != nil {
			t.Fatal(err)
		}
		if err := c.RunCycle(nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for g := 0; g < 3; g++ {
		<-done
	}
}
