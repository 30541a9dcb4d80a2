package core

import (
	"laacad/internal/geom"
	"laacad/internal/voronoi"
)

// Scratch is the per-worker workspace of the deployment hot path: the
// geometry kernel's polygon arena plus the neighbor-ID, distance, vertex and
// ring-probe buffers threaded through the dominating-region → Chebyshev-center
// pipeline. One Scratch serves one goroutine; the round engine keeps one per
// worker slot. Every buffer is kept across calls and only grows, so a warm
// Scratch computes a node's outcome — ring probes included, unless message
// loss is on — without heap allocation: a round allocates here only when
// some node needs more room than any node before it. After each fan-out the engine grows every slot to
// the largest capacity any slot has reached (see nodeState.warmPool), so a
// slot the dynamic handout left idle starts the next round as warm as the
// busiest one. The zero value is ready to use.
type Scratch struct {
	vor   voronoi.Scratch
	nbrs  []int
	nbrD2 []float64 // squared distances parallel to nbrs (batch gather)
	verts []geom.Point
	ring  []geom.Point // disk-clip ring (Localized mode)
	probe []int        // IDs of the last ring probe (Localized mode)

	// searchRho is the expanding search's final (pre-tightening) radius from
	// the last Centralized region computation: the widest ball the search
	// actually read positions from. The sharded engine uses it as the read
	// radius when deciding whether a locally computed outcome can be trusted
	// (the tightened return value under-reports what was gathered).
	searchRho float64

	// msgs is the link-level message cost of the last Localized expanding-
	// ring search (see localizedSearch). The search charges nothing itself;
	// the node's turn charges this cost once the outcome counts.
	msgs int64
}

// NewScratch returns an empty workspace. Buffers grow on first use and are
// retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// reserve grows every buffer of s to at least the capacity o's has reached,
// keeping s's contents.
func (s *Scratch) reserve(o *Scratch) {
	s.vor.Reserve(&o.vor)
	s.nbrs = geom.GrowCap(s.nbrs, cap(o.nbrs))
	s.nbrD2 = geom.GrowCap(s.nbrD2, cap(o.nbrD2))
	s.verts = geom.GrowCap(s.verts, cap(o.verts))
	s.ring = geom.GrowCap(s.ring, cap(o.ring))
	s.probe = geom.GrowCap(s.probe, cap(o.probe))
}

// ChebyshevOfRegion returns the Chebyshev center and circumradius of a
// dominating region (the smallest-enclosing-circle of its vertices), using
// s's vertex buffer so the computation does not allocate.
func ChebyshevOfRegion(polys []geom.Polygon, s *Scratch) (geom.Point, float64) {
	s.verts = voronoi.VerticesInto(s.verts[:0], polys)
	return geom.ChebyshevCenterInPlace(s.verts)
}
