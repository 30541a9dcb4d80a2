package voronoi

import (
	"laacad/internal/geom"
)

// Scratch is the reusable workspace of the dominating-region kernel: the
// relevant-neighbor list with precomputed squared distances and a memo of
// each generator's bisector, the vertex arena of the clipping walk, and the
// survivor refs. One Scratch serves one goroutine; the round engine keeps
// one per worker so a steady-state round performs no heap allocation in the
// geometry kernel.
//
// The zero value is ready to use; buffers grow on demand and are retained
// across calls.
type Scratch struct {
	// The relevant-neighbor list is split into a sorted key pair and
	// unsorted per-entry storage: (relD2, relVal) are sorted by (distance²,
	// ID) — relVal packs the generator ID in its high 32 bits and the
	// entry's append slot in the low 32, so one int64 comparison breaks
	// distance ties and one int64 swap carries everything the sort must
	// move — while relHx/relHy/relHc/relHn stay in append (slot) order,
	// reached through the packed slot. Those four hold a lazily filled memo
	// of each generator's bisector half-plane (computed on the walk's first
	// visit, reused across recursion branches): while relHc[slot] is NaN the
	// memo is unset and (relHx, relHy) hold the generator's position; the
	// first visit overwrites them with the bisector coefficients and |N|.
	// Bisector offsets are never NaN for finite positions, so the sentinel
	// is unambiguous. Polygon vertices live in Slab, survivors are refs into
	// it.
	Slab   geom.PolySlab  // vertex arena of the clipping walk
	relD2  []float64      // squared distance to the query site (sorted)
	relVal []int64        // generator ID << 32 | append slot (sorted with relD2)
	relHx  []float64      // by slot: bisector normal X (position X while unset)
	relHy  []float64      // by slot: bisector normal Y (position Y while unset)
	relHc  []float64      // by slot: bisector offset C (NaN: memo unset)
	relHn  []float64      // by slot: bisector normal magnitude |N|
	refs   []geom.PolyRef // survivors of the current walk
	refs2  []geom.PolyRef // ClipToConvexSoA survivors
	culled int            // pieces DominatingRegionSoA skipped as dominated
}

// Reserve grows every buffer of s — the rel slabs, the survivor refs and
// the vertex slab — to at least the capacity o's has reached, keeping s's
// contents, so s serves whatever o has served without growing.
func (s *Scratch) Reserve(o *Scratch) {
	s.Slab.Reserve(&o.Slab)
	s.relD2 = geom.GrowCap(s.relD2, cap(o.relD2))
	s.relVal = geom.GrowCap(s.relVal, cap(o.relVal))
	s.relHx = geom.GrowCap(s.relHx, cap(o.relHx))
	s.relHy = geom.GrowCap(s.relHy, cap(o.relHy))
	s.relHc = geom.GrowCap(s.relHc, cap(o.relHc))
	s.relHn = geom.GrowCap(s.relHn, cap(o.relHn))
	s.refs = geom.GrowCap(s.refs, cap(o.refs))
	s.refs2 = geom.GrowCap(s.refs2, cap(o.refs2))
}

// VerticesInto appends all vertices of the given polygons to buf and returns
// it. The Chebyshev center of a dominating region is the
// smallest-enclosing-circle center of these points.
func VerticesInto(buf []geom.Point, polys []geom.Polygon) []geom.Point {
	for _, p := range polys {
		buf = append(buf, p...)
	}
	return buf
}
