package route

import "github.com/detector-net/detector/internal/topo"

// CutLink is one link whose observed paths a diagnosis plane splits across
// more than one shard — in the server-level matrices that motivate the
// interior partition, a pinger or responder uplink shared by routes into
// several ToR subtrees. Its hit ratio is computed per shard from that
// shard's path subset only, so Parts is the exact bound on how far the
// link's evidence is split: a failing cut link still shows hit ratio ≈ 1
// inside every shard (all of its paths there are lossy), but the per-shard
// explained-loss counts are each 1/Parts-ish of the global count.
type CutLink struct {
	Link topo.LinkID
	// Parts is the replication count: how many shards observe the link.
	Parts int
}

// Partition assigns every row of a served probe matrix that has a link in
// one view of its rows to exactly one part: the connected components of
// that view, found by the same kernel that decomposes the candidate matrix
// (paper §4.3, Observation 1).
type Partition struct {
	// Keys names each part by its smallest link in the view, ascending —
	// Component.Key, the keying construction feeds to rendezvous
	// assignment, so part ownership is stable across rebuilds.
	Keys []uint64
	// PathPart maps path row -> part index, -1 for a row with no link in
	// the view.
	PathPart []int32
}

// ComponentPartition splits a served probe matrix into its connected
// components over every link of every row. A diagnosis plane over it
// merges bit-identically to one global PLL pass: no link's paths span two
// parts.
func ComponentPartition(p *Probes) *Partition {
	return partition(p, func(links []topo.LinkID) []topo.LinkID { return links })
}

// InteriorPartition splits a served probe matrix by the interior links of
// its rows only, deliberately cutting the server-edge links that entangle
// a server-level matrix into one giant component.
//
// The server-level routes the controller serves are [server→ToR uplink,
// ToR-level links..., ToR→server downlink]: the first and last link of
// every route with three or more links are server-edge by construction,
// and the two links of an intra-rack route both are. Components over
// interior links therefore reproduce the ToR-level component structure —
// the structure the component partition loses the moment two ToR-level
// components share one pinger's uplink. Rows with no interior links
// (intra-rack probes) group among themselves through their own shared
// links, yielding roughly one residual part per rack.
//
// No row is duplicated. A link whose paths span several parts has its hit
// ratio computed per part from that part's subset; for a truly failing
// link the subset ratio stays ≈ 1 in every part, which is why the
// approximation localizes, and a plane over it reports the cut set
// (Plane.CutLinks) that bounds how much evidence its merge reconciles.
func InteriorPartition(p *Probes) *Partition {
	return partition(p, func(links []topo.LinkID) []topo.LinkID {
		if len(links) >= 3 {
			return links[1 : len(links)-1]
		}
		return links
	})
}

// partition runs the decomposition kernel over view(row) of every row.
func partition(p *Probes, view func([]topo.LinkID) []topo.LinkID) *Partition {
	n := p.NumPaths()
	rows := make([][]topo.LinkID, n)
	for i, links := range p.PathLinks {
		rows[i] = view(links)
	}
	comps := DecomposeCSR(NewCSR(rows), p.NumLinks)
	pt := &Partition{Keys: make([]uint64, len(comps)), PathPart: make([]int32, n)}
	for i := range pt.PathPart {
		pt.PathPart[i] = -1
	}
	for c := range comps {
		pt.Keys[c] = comps[c].Key()
		w := comps[c].Paths.Walk()
		for range comps[c].Paths.Len() {
			pt.PathPart[w.Next()] = int32(c)
		}
	}
	return pt
}
