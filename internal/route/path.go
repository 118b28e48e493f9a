// Package route enumerates the candidate probe paths of a data-center
// topology and exposes them as compact PathSets — the rows of the routing
// matrix R from deTector §4.1.
//
// Candidate paths follow the paper's conventions: one path per (ordered ToR
// pair, via-node). For a k-ary Fattree the via-node is a core switch (k²/4
// candidates per pair), for VL2 it is an (up-agg, intermediate, down-agg)
// triple, and for BCube the k+1 parallel paths of BuildPathSet. These
// conventions reproduce the paper's "# of original paths" column in
// Tables 2 and 3 exactly.
package route

import (
	"fmt"

	"github.com/detector-net/detector/internal/topo"
)

// PathSet is a read-only, index-addressed collection of candidate probe
// paths. Implementations are compact: links are derived on demand so that
// multi-million-path sets (Fattree(24) has 11,902,464 candidates) need no
// per-path storage.
type PathSet interface {
	// Len returns the number of candidate paths.
	Len() int
	// AppendLinks appends the undirected link set of path i to buf and
	// returns the extended slice. The result is a set: no duplicates.
	AppendLinks(i int, buf []topo.LinkID) []topo.LinkID
	// Endpoints returns the source and destination nodes of path i
	// (ToR switches for Fattree/VL2, servers for BCube).
	Endpoints(i int) (src, dst topo.NodeID)
}

// Symmetric is implemented by PathSets of topology families with known
// automorphism shift generators (paper §4.3, Observation 3). PMC's symmetry
// speedup restricts greedy scoring to orbit representatives and expands
// selections to their orbit images.
type Symmetric interface {
	PathSet
	// AppendRepresentatives appends to rows, ascending, the positions in
	// paths (a component's Paths) of the paths that are the canonical
	// members of their orbits under the family's shift generator, and
	// returns the extended slice.
	AppendRepresentatives(paths Paths, rows []int32) []int32
	// AppendOrbit appends the non-canonical images of path i's orbit
	// (every orbit member except i itself) to buf.
	AppendOrbit(i int, buf []int) []int
}

// AppendWhere appends to rows the positions in paths of the paths rep holds
// for: AppendRepresentatives for a family that states its representatives
// one path at a time.
func AppendWhere(paths Paths, rows []int32, rep func(i int) bool) []int32 {
	w := paths.Walk()
	for r := range paths.Len() {
		if rep(int(w.Next())) {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

// Decomposer is an optional PathSet capability: a family whose pristine
// decomposition follows from its topology states it, so that CSR.Pristine
// reads it off the family instead of running the union-find kernel over
// every row (paper §4.3, Observation 1).
type Decomposer interface {
	PathSet
	// PristineComponents returns exactly what DecomposeCSR returns on the
	// family's materialized matrix: Links sorted, Paths ascending,
	// components ordered by smallest link.
	PristineComponents() []Component
}

// HopsProvider is implemented by PathSets that can produce the switch-level
// hop sequence of a path, which the fabric needs for source routing.
type HopsProvider interface {
	// HasHops reports whether hop sequences are available; AppendHops may
	// only be called when it returns true.
	HasHops() bool
	// AppendHops appends the ordered node sequence of path i, from source
	// to destination inclusive.
	AppendHops(i int, buf []topo.NodeID) []topo.NodeID
}

// Describe renders path i of ps for logs and error messages.
func Describe(ps PathSet, t *topo.Topology, i int) string {
	src, dst := ps.Endpoints(i)
	links := ps.AppendLinks(i, nil)
	return fmt.Sprintf("path %d: %s -> %s (%d links)", i, t.Node(src).Name, t.Node(dst).Name, len(links))
}

// orderedPair maps an ordered pair (s, d) with s != d over n items to a
// dense index in [0, n*(n-1)).
func orderedPair(s, d, n int) int {
	if d > s {
		d--
	}
	return s*(n-1) + d
}

// unpackPair inverts orderedPair.
func unpackPair(idx, n int) (s, d int) {
	s = idx / (n - 1)
	d = idx % (n - 1)
	if d >= s {
		d++
	}
	return s, d
}
