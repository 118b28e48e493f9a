package route

import (
	"slices"

	"github.com/detector-net/detector/internal/topo"
)

// Component is one independent subproblem of a routing matrix: a maximal set
// of links connected through shared paths, together with every candidate
// path over those links (paper §4.3, Observation 1).
type Component struct {
	// Links are the global link IDs of this component, sorted.
	Links []topo.LinkID
	// Paths are indices into the originating PathSet, ascending: a span
	// for a pristine Fattree component, a list otherwise.
	Paths Paths
}

// Key returns a stable identity for the component: its smallest link ID.
// Links are sorted ascending, so this is Links[0]. Component indices shift
// when the candidate set changes, but the smallest link of a connected
// group does not — shard assignment hashes this key so that ownership is
// stable across recomputes.
func (c *Component) Key() uint64 {
	if len(c.Links) == 0 {
		return 0
	}
	return uint64(c.Links[0])
}

// unionFind is a standard weighted quick-union with path halving.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b and returns the merged set's root.
func (u *unionFind) union(a, b int32) int32 {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return ra
}

// DecomposeCSR partitions the routing matrix into independent components by
// building the path-link bipartite graph implicitly: all links of one path
// are unioned, then paths are grouped by the component of their first link.
// Links never touched by any path are omitted. This is the generic
// linear-time decomposition the paper describes; on a Fattree it finds the
// k/2 aggregation-position subproblems the family also states outright
// (Decomposer), on VL2 and BCube it returns a single component (and the scan
// cost is the "extra time to decide whether the matrix is decomposable"
// visible in Table 2). It always runs the kernel, and its components are
// lists: it is the oracle the family's own decomposition is tested
// against. CSR.Pristine, which PMC and the coordinator use, asks a
// Decomposer family first.
func DecomposeCSR(csr *CSR, numLinks int) []Component {
	return newKernel(numLinks).decompose(csr, nil)
}

// kernel is the one decomposition routine behind DecomposeCSR, the pristine
// decomposition of a family that does not state its own, the incremental
// differ's masked start and its per-step local rebuild. It unions on global
// link IDs over numLinks-sized scratch that is identity/zero between calls:
// a call restores only the links it touched, so a standing kernel costs a
// churn step its dirty region, not the fabric.
type kernel struct {
	uf    *unionFind
	first []int32       // rows whose first link is l
	comp  []int32       // 0 untouched, -1 seen, else component index + 1
	links []int32       // links seen by the current call
	row   []topo.LinkID // the row being read
}

func newKernel(numLinks int) *kernel {
	return &kernel{uf: newUnionFind(numLinks), first: make([]int32, numLinks), comp: make([]int32, numLinks)}
}

// decompose groups rows into components ordered by smallest link, Links and
// Paths ascending. rows is an ascending list of row indices, which a
// single-component result aliases; nil rows means every row, visited
// without materializing the list.
func (k *kernel) decompose(csr *CSR, rows []int32) []Component {
	built.decompose.Add(1)
	n := len(rows)
	if rows == nil {
		n = csr.Len()
	}
	// visit returns the i-th row and its links, read into k.row; no links
	// means skip it.
	visit := func(i int) (int32, []topo.LinkID) {
		r := int32(i)
		if rows != nil {
			r = rows[i]
		}
		k.row = csr.AppendRow(int(r), k.row[:0])
		return r, k.row
	}
	uf := k.uf
	for i := 0; i < n; i++ {
		_, row := visit(i)
		if len(row) == 0 {
			continue
		}
		k.first[row[0]]++
		root := uf.find(int32(row[0]))
		for _, l := range row {
			if k.comp[l] == 0 {
				k.comp[l] = -1
				k.links = append(k.links, int32(l))
			}
			if uf.parent[l] != root {
				root = uf.union(root, int32(l))
			}
		}
	}
	if len(k.links) == 0 {
		return nil
	}

	// In ascending link order a component's first-labelled link is its
	// smallest, so components come out ordered by it; counting links and
	// rows per component here makes every slice below exact-size.
	slices.Sort(k.links)
	var nLinks, nPaths []int32
	for _, l := range k.links {
		r := uf.find(l)
		if k.comp[r] < 0 {
			nLinks, nPaths = append(nLinks, 0), append(nPaths, 0)
			k.comp[r] = int32(len(nLinks))
		}
		c := k.comp[r]
		k.comp[l] = c
		nLinks[c-1]++
		nPaths[c-1] += k.first[l]
	}
	comps := make([]Component, len(nLinks))
	for ci := range comps {
		comps[ci].Links = make([]topo.LinkID, 0, nLinks[ci])
	}
	for _, l := range k.links {
		c := &comps[k.comp[l]-1]
		c.Links = append(c.Links, topo.LinkID(l))
	}
	if len(comps) == 1 && int(nPaths[0]) == len(rows) {
		comps[0].Paths = PathList(rows)
	} else {
		paths := make([][]int32, len(comps))
		for ci := range comps {
			paths[ci] = make([]int32, 0, nPaths[ci])
		}
		for i := 0; i < n; i++ {
			if r, row := visit(i); len(row) > 0 {
				ci := k.comp[row[0]] - 1
				paths[ci] = append(paths[ci], r)
			}
		}
		for ci := range comps {
			comps[ci].Paths = PathList(paths[ci])
		}
	}
	for _, l := range k.links {
		uf.parent[l], uf.rank[l], k.first[l], k.comp[l] = l, 0, 0, 0
	}
	k.links = k.links[:0]
	return comps
}

// connects reports whether rows join every link of live into one
// component, unioning rows in order only until they do. live must hold
// every link the rows touch, ascending and once each; the scratch is
// identity again on return.
func (k *kernel) connects(csr *CSR, rows, live []int32) bool {
	uf := k.uf
	need := len(live) - 1
	for i := 0; i < len(rows) && need > 0; i++ {
		k.row = csr.AppendRow(int(rows[i]), k.row[:0])
		if len(k.row) == 0 {
			continue
		}
		root := uf.find(int32(k.row[0]))
		for _, l := range k.row[1:] {
			if r := uf.find(int32(l)); r != root {
				root = uf.union(root, r)
				need--
			}
		}
	}
	for _, l := range live {
		uf.parent[l], uf.rank[l] = l, 0
	}
	return need <= 0
}

// SingleComponentCSR wraps the whole matrix as one component (the
// no-decomposition baseline for Table 2's strawman column); its paths are
// the identity span.
func SingleComponentCSR(csr *CSR, numLinks int) Component {
	touched := make([]bool, numLinks)
	n := csr.Len()
	c := Component{Paths: PathSpan(0, n, n, n)}
	var row []topo.LinkID
	for i := 0; i < n; i++ {
		row = csr.AppendRow(i, row[:0])
		for _, l := range row {
			touched[l] = true
		}
	}
	for l := 0; l < numLinks; l++ {
		if touched[l] {
			c.Links = append(c.Links, topo.LinkID(l))
		}
	}
	return c
}
