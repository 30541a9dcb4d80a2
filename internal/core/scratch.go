package core

import (
	"laacad/internal/geom"
	"laacad/internal/voronoi"
)

// Scratch is the per-worker workspace of the deployment hot path: the
// geometry kernel's polygon arena plus the neighbor-ID, distance and vertex
// buffers threaded through the dominating-region → Chebyshev-center
// pipeline. One Scratch serves one goroutine; the round engine keeps one per
// worker so a steady-state round performs near-zero heap allocations. The
// zero value is ready to use.
type Scratch struct {
	vor   voronoi.Scratch
	nbrs  []int
	nbrD2 []float64 // squared distances parallel to nbrs (batch gather)
	verts []geom.Point
	ring  []geom.Point // circle-sample / disk-clip ring (Localized mode)

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

// ChebyshevOfRegion returns the Chebyshev center and circumradius of a
// dominating region (the smallest-enclosing-circle of its vertices), using
// s's vertex buffer so the computation does not allocate.
func ChebyshevOfRegion(polys []geom.Polygon, s *Scratch) (geom.Point, float64) {
	s.verts = voronoi.VerticesInto(s.verts[:0], polys)
	return geom.ChebyshevCenterInPlace(s.verts)
}
