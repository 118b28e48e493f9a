package route

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/detector-net/detector/internal/topo"
)

// Topology churn is modeled as a *down-link mask* over the pristine candidate
// matrix: the PathSet and its CSR never change (they describe the wiring the
// fabric was designed with), and a link going away simply deactivates every
// candidate path that traverses it. A path is active iff it traverses no down
// link. This keeps MatrixSignature — which hashes the pristine CSR — stable
// across churn, so shard handshakes and report routing survive link flaps.

// DecomposeMasked is DecomposeCSR restricted to active rows: paths that
// traverse any link in down are skipped, and links covered only by skipped
// paths are omitted. It is the from-scratch ground truth the incremental
// differ must reproduce bit-identically.
func DecomposeMasked(csr *CSR, numLinks int, down []topo.LinkID) []Component {
	mask := make([]bool, numLinks)
	for _, l := range down {
		mask[l] = true
	}
	uf := newUnionFind(numLinks)
	touched := make([]bool, numLinks)
	n := csr.Len()
	var row []topo.LinkID
	active := func(row []topo.LinkID) bool {
		for _, l := range row {
			if mask[l] {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		row = csr.AppendRow(i, row[:0])
		if len(row) == 0 || !active(row) {
			continue
		}
		first := int32(row[0])
		touched[first] = true
		for _, l := range row[1:] {
			touched[l] = true
			uf.union(first, int32(l))
		}
	}
	rootIdx := make(map[int32]int)
	compOf := make([]int32, numLinks)
	var comps []Component
	for l := 0; l < numLinks; l++ {
		if !touched[l] {
			continue
		}
		r := uf.find(int32(l))
		ci, ok := rootIdx[r]
		if !ok {
			ci = len(comps)
			rootIdx[r] = ci
			comps = append(comps, Component{})
		}
		compOf[l] = int32(ci)
		comps[ci].Links = append(comps[ci].Links, topo.LinkID(l))
	}
	paths := make([][]int32, len(comps))
	for i := 0; i < n; i++ {
		row = csr.AppendRow(i, row[:0])
		if len(row) == 0 || !active(row) {
			continue
		}
		ci := compOf[row[0]]
		paths[ci] = append(paths[ci], int32(i))
	}
	for ci := range comps {
		comps[ci].Paths = PathList(paths[ci])
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a].Links[0] < comps[b].Links[0] })
	return comps
}

// Diff is the exact consequence of one churn step: the components that no
// longer exist in their prior form and the components that replace them. A
// removed link that splits a component yields one Removed and two Added; an
// added link that merges two yields two Removed and one Added. Clean
// components appear in neither list.
type Diff struct {
	// Removed holds the prior form of every component invalidated by the
	// churn, ordered by smallest link.
	Removed []Component
	// Added holds the new form of every dirty component, ordered by
	// smallest link.
	Added []Component
	// DeactivatedRows and ActivatedRows are the candidate paths whose
	// active state flipped, ascending.
	DeactivatedRows []int32
	ActivatedRows   []int32
	// IndexTime is what the step spent readying the pristine components it
	// was the first to touch (Incremental.touch), inside its own time: their
	// links' active-row counts, and their indexes when the family does not
	// generate its rows; zero when it touched none for the first time.
	IndexTime time.Duration
}

// Empty reports whether the churn step changed nothing (e.g. a link with no
// active candidate paths went down).
func (d *Diff) Empty() bool {
	return len(d.Removed) == 0 && len(d.Added) == 0 &&
		len(d.DeactivatedRows) == 0 && len(d.ActivatedRows) == 0
}

// Incremental maintains the masked decomposition of a pristine CSR under a
// stream of link down/up events, recomputing only the components a change
// actually touches. It reads the rows through each flipped link
// (Pristine.AppendRowsThrough) and keeps no per-row state: whether a row
// went down or came back is read off its links and the down mask. Each
// Apply costs O(flipped rows + dirty component size), independent of
// fabric size, and its union pass stops as soon as the dirty region is
// proven connected. A pristine component's active-row counts are built on
// the first step that touches it (Diff.IndexTime).
type Incremental struct {
	csr      *CSR
	numLinks int
	pristine *Pristine

	down      []bool  // current down mask, by link
	flipped   []bool  // per link, during Apply: flipped by the step, so in the other state before it
	activeCnt []int32 // per-link count of active rows; kept for the links of counted components
	counted   []bool  // per pristine component: activeCnt holds its links

	kern   *kernel // standing scratch, identity/zero between calls
	comps  []Component
	compOf []int32 // link -> index into comps, -1 when in no component

	rows []int32       // scratch: the rows through one link
	row  []topo.LinkID // scratch: one row's links
}

// NewIncremental builds the differ over a pristine matrix with an initial
// down set: the pristine decomposition (csr.Pristine), then one Apply of
// the set's distinct links. Components() starts bit-identical to
// DecomposeMasked(csr, numLinks, initialDown); with nothing down that is the
// pristine decomposition itself, and no count or index is built. An
// initial link outside [0, numLinks) is an error.
func NewIncremental(csr *CSR, numLinks int, initialDown []topo.LinkID) (*Incremental, error) {
	for _, l := range initialDown {
		if l < 0 || int(l) >= numLinks {
			return nil, fmt.Errorf("route: initial down link %d out of range (numLinks=%d)", l, numLinks)
		}
	}
	p := csr.Pristine(numLinks)
	inc := &Incremental{
		csr:       csr,
		numLinks:  numLinks,
		pristine:  p,
		down:      make([]bool, numLinks),
		flipped:   make([]bool, numLinks),
		activeCnt: make([]int32, numLinks),
		counted:   make([]bool, len(p.Comps)),
		kern:      newKernel(numLinks),
		compOf:    make([]int32, numLinks),
	}
	inc.setComps(p.Comps)
	if len(initialDown) > 0 {
		down := slices.Clone(initialDown)
		slices.Sort(down)
		if _, err := inc.Apply(slices.Compact(down), nil); err != nil {
			return nil, err
		}
	}
	return inc, nil
}

// touch readies the pristine component of each link for its first step:
// its links' active-row counts. No row of it can be down yet — a down link
// would have touched it — so every row through a link is active. It
// returns the time spent.
func (inc *Incremental) touch(links []topo.LinkID) time.Duration {
	var spent time.Duration
	for _, l := range links {
		ci := inc.pristine.CompOf(l)
		if ci < 0 || inc.counted[ci] {
			continue
		}
		t0 := time.Now()
		for _, cl := range inc.pristine.Comps[ci].Links {
			inc.rows = inc.pristine.AppendRowsThrough(cl, inc.rows[:0])
			inc.activeCnt[cl] = int32(len(inc.rows))
		}
		inc.counted[ci] = true
		spent += time.Since(t0)
	}
	return spent
}

// readRow reads row r's links into inc.row and returns them.
func (inc *Incremental) readRow(r int32) []topo.LinkID {
	inc.row = inc.csr.AppendRow(int(r), inc.row[:0])
	return inc.row
}

// activity reports whether a row over links was active before the current
// step and whether it is after it.
func (inc *Incremental) activity(links []topo.LinkID) (before, after bool) {
	before, after = true, true
	for _, l := range links {
		before = before && inc.down[l] == inc.flipped[l]
		after = after && !inc.down[l]
	}
	return before, after
}

// flippedRows returns the rows through links that were active before the
// step and are not after it (wentDown), or the reverse, ascending and once
// each.
func (inc *Incremental) flippedRows(links []topo.LinkID, wentDown bool) []int32 {
	var out []int32
	for _, l := range links {
		inc.rows = inc.pristine.AppendRowsThrough(l, inc.rows[:0])
		for _, r := range inc.rows {
			before, after := inc.activity(inc.readRow(r))
			if before != after && before == wentDown {
				out = append(out, r)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// countActive adds d to the active-row count of every link on row r.
func (inc *Incremental) countActive(r int32, d int32) {
	for _, l := range inc.readRow(r) {
		inc.activeCnt[l] += d
	}
}

// has reports whether l is a link of the fabric. LinkID is signed and
// arrives from outside (POST /churn, -down-links).
func (inc *Incremental) has(l topo.LinkID) bool { return l >= 0 && int(l) < inc.numLinks }

// setComps installs a decomposition and relabels compOf from it.
func (inc *Incremental) setComps(comps []Component) {
	inc.comps = comps
	for i := range inc.compOf {
		inc.compOf[i] = -1
	}
	for ci := range comps {
		for _, l := range comps[ci].Links {
			inc.compOf[l] = int32(ci)
		}
	}
}

// Components returns the current masked decomposition, ordered by smallest
// link. The slice and its contents must not be modified.
func (inc *Incremental) Components() []Component { return inc.comps }

// Down returns the current down links, ascending.
func (inc *Incremental) Down() []topo.LinkID {
	var out []topo.LinkID
	for l, d := range inc.down {
		if d {
			out = append(out, topo.LinkID(l))
		}
	}
	return out
}

// flip moves links to state to in the down mask, strictly: a link outside
// the fabric, or already in that state — which is also how a repeat within
// the list shows — is an error. It returns how many links it flipped before
// the offending one, for the caller to undo.
func (inc *Incremental) flip(links []topo.LinkID, to bool) (int, error) {
	set, state := "up", "not down"
	if to {
		set, state = "down", "already down"
	}
	for i, l := range links {
		switch {
		case !inc.has(l):
			return i, fmt.Errorf("route: %s link %d out of range (numLinks=%d)", set, l, inc.numLinks)
		case inc.down[l] == to && slices.Contains(links[:i], l):
			return i, fmt.Errorf("route: link %d listed twice in %s set", l, set)
		case inc.down[l] == to:
			return i, fmt.Errorf("route: link %d is %s", l, state)
		}
		inc.down[l] = to
	}
	return len(links), nil
}

func (inc *Incremental) setMask(links []topo.LinkID, to bool) {
	for _, l := range links {
		inc.down[l] = to
	}
}

// Apply transitions links in down from up→down and links in up from down→up,
// and returns the exact set of dirty components. It is strict: a link
// already in the requested state is an error (state drift between caller and
// differ is a bug worth surfacing). A link listed in both down and up flaps
// within the step and nets out. On error the differ is unchanged.
func (inc *Incremental) Apply(down, up []topo.LinkID) (Diff, error) {
	// Downs first, so a link in both lists flaps; a rejected step undoes
	// the flips already made.
	if n, err := inc.flip(down, true); err != nil {
		inc.setMask(down[:n], false)
		return Diff{}, err
	}
	if n, err := inc.flip(up, false); err != nil {
		inc.setMask(up[:n], true)
		inc.setMask(down, false)
		return Diff{}, err
	}
	// An up link went down in an earlier step or in this one, which touched
	// its component then.
	diff := Diff{IndexTime: inc.touch(down)}

	// Mark the flipped links for the step, and clear the marks after it. A
	// link listed in both down and up is marked twice: it flaps within the
	// step and is up on both sides.
	mark := func() {
		for _, l := range slices.Concat(down, up) {
			inc.flipped[l] = !inc.flipped[l]
		}
	}
	mark()
	diff.DeactivatedRows = inc.flippedRows(down, true)
	diff.ActivatedRows = inc.flippedRows(up, false)
	mark()
	if len(diff.DeactivatedRows) == 0 && len(diff.ActivatedRows) == 0 {
		return diff, nil
	}
	for _, r := range diff.DeactivatedRows {
		inc.countActive(r, -1)
	}
	for _, r := range diff.ActivatedRows {
		inc.countActive(r, 1)
	}

	// Dirty components: every component holding a link of a flipped row.
	// Deactivated rows' links are necessarily in a component (the row was
	// active); activated rows' links may be new to the decomposition.
	dirty := make([]bool, len(inc.comps))
	for _, flipped := range [][]int32{diff.DeactivatedRows, diff.ActivatedRows} {
		for _, r := range flipped {
			for _, l := range inc.readRow(r) {
				if ci := inc.compOf[l]; ci >= 0 {
					dirty[ci] = true
				}
			}
		}
	}
	held := 0
	for ci, d := range dirty {
		if d {
			diff.Removed = append(diff.Removed, inc.comps[ci])
			held += inc.comps[ci].Paths.Len()
		}
	}
	if ci := inc.restores(down, up); ci >= 0 {
		diff.Added = []Component{inc.pristine.Comps[ci]}
	} else {
		diff.Added = inc.rebuild(&diff, held)
	}

	// Splice: clean components and the added ones are both ordered by
	// smallest link.
	var next []Component
	a := 0
	for ci := range inc.comps {
		if dirty[ci] {
			continue
		}
		for a < len(diff.Added) && diff.Added[a].Links[0] < inc.comps[ci].Links[0] {
			next = append(next, diff.Added[a])
			a++
		}
		next = append(next, inc.comps[ci])
	}
	inc.setComps(append(next, diff.Added[a:]...))
	return diff, nil
}

// restores returns the pristine component a step restores, or -1. A step
// whose flipped links all lie in one pristine component P, and that
// leaves none of P's links down, makes every row of P active: the step's
// dirty components are P's pieces, and P is what they decompose to. The
// differ then hands P itself on, span and all, listing no row of it —
// whoever compares the two, Pristine.Is or the coordinator's store lookup
// through Pristine.Parent, reads headers and links.
func (inc *Incremental) restores(down, up []topo.LinkID) int {
	ci := -1
	for _, links := range [][]topo.LinkID{down, up} {
		for _, l := range links {
			c := inc.pristine.CompOf(l)
			if c < 0 || (ci >= 0 && c != ci) {
				return -1
			}
			ci = c
		}
	}
	if ci < 0 {
		return -1
	}
	for _, l := range inc.pristine.Comps[ci].Links {
		if inc.down[l] {
			return -1
		}
	}
	return ci
}

// rebuild decomposes the region of a step's dirty components, diff.Removed
// holding held rows between them, over the rows active after it.
func (inc *Incremental) rebuild(diff *Diff, held int) []Component {
	// Candidate rows for the local rebuild. The dirty components hold
	// exactly the rows active before the step, the deactivated ones among
	// them: drop those, and merge in the newly activated rows (disjoint: an
	// activated row was in no component).
	cand := make([]int32, 0, held+len(diff.ActivatedRows))
	for i := range diff.Removed {
		cand = diff.Removed[i].Paths.Append(cand)
	}
	if len(diff.Removed) > 1 {
		slices.Sort(cand)
	}
	cand = mergeAscending(subtractAscending(cand, diff.DeactivatedRows), diff.ActivatedRows)

	// The candidates touch exactly the live links of the dirty region: the
	// dirty components' links that still carry an active row, plus the links
	// activated rows bring in from outside every component. Once the rows
	// seen so far join those links into one, the rest cannot split it: the
	// region is one component over all of them, holding every candidate.
	// Only a region the churn really splits pays the full kernel.
	var live []int32
	for i := range diff.Removed {
		for _, l := range diff.Removed[i].Links {
			if inc.activeCnt[l] > 0 {
				live = append(live, int32(l))
			}
		}
	}
	for _, r := range diff.ActivatedRows {
		for _, l := range inc.readRow(r) {
			if inc.compOf[l] < 0 {
				live = append(live, int32(l))
			}
		}
	}
	slices.Sort(live)
	live = slices.Compact(live)
	switch {
	case len(cand) == 0:
		return nil
	case inc.kern.connects(inc.csr, cand, live):
		links := make([]topo.LinkID, len(live))
		for i, l := range live {
			links[i] = topo.LinkID(l)
		}
		return []Component{{Links: links, Paths: PathList(cand)}}
	default:
		return inc.kern.decompose(inc.csr, cand)
	}
}

// subtractAscending removes from ascending a, in place, every element of
// ascending b.
func subtractAscending(a, b []int32) []int32 {
	out, j := a[:0], 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}

// mergeAscending merges ascending b into ascending a, in a's spare capacity
// when it has enough.
func mergeAscending(a, b []int32) []int32 {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}
