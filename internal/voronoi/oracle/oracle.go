// Package oracle holds the scalar form of the dominating-region kernel: the
// reference that the production structure-of-arrays kernel
// (voronoi.DominatingRegionSoA and its callers) is tested bit-identical
// against. No production package imports it; it exists for tests only.
//
// The walk splits each clip piece by one bisector at a time, tracking how
// many "closer" generators the current branch may still tolerate — the same
// control flow, predicates and geom calls as the production kernel, over a
// free list of scattered []geom.Point buffers instead of a vertex slab, and
// with no piece culling: every clip piece is walked in full.
//
// The package imports only geom, so voronoi's in-package tests can import
// it. Site has voronoi.Site's layout, so oracle.Site(s) converts one.
package oracle

import (
	"math"

	"laacad/internal/geom"
)

// Site is a Voronoi generator: a sensor node position tagged with its
// stable index in the network. It has voronoi.Site's layout.
type Site struct {
	ID  int
	Pos geom.Point
}

// CoincidentTol is the squared distance below which two generators are
// considered coincident and index tie-breaking applies. It must equal
// voronoi's coincidentTol (a voronoi test pins the two together). A
// generator within geom.Point.Eq of the query site is given d² = 0, as the
// batch kernel does, so the walk never bisects a pair geom.Bisector rejects.
const CoincidentTol = 1e-24

// Scratch is the reusable workspace of the scalar kernel: a free list of
// polygon buffers for the half-plane clipping walk, the filtered-and-sorted
// relevant-neighbor list with precomputed squared distances, and the
// survivor accumulators. One Scratch serves one goroutine; a warmed-up
// Scratch computes a region with zero heap allocations.
//
// The zero value is ready to use; buffers grow on demand and are retained
// across calls.
type Scratch struct {
	rel  []relSite      // filtered neighbors sorted by (distance², ID)
	free []geom.Polygon // recycled polygon buffers for the clipping walk
	out  []geom.Polygon // survivors of the current call (arena-owned)
	out2 []geom.Polygon // ClipToConvex survivors (arena-owned)
}

// relSite pairs a generator with its precomputed squared distance to the
// query site, so the sort and the clipping walk never recompute distances.
type relSite struct {
	d2   float64
	site Site
}

// getPoly pops a recycled polygon buffer (or allocates a small one).
func (s *Scratch) getPoly() geom.Polygon {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p[:0]
	}
	return make(geom.Polygon, 0, 8)
}

// putPoly returns a polygon buffer to the free list.
func (s *Scratch) putPoly(p geom.Polygon) {
	if cap(p) > 0 {
		s.free = append(s.free, p[:0])
	}
}

// recycleOut returns every survivor buffer of the previous call to the free
// list. Called at the top of DominatingRegion, which is what bounds the
// returned region's lifetime to "until the next call on this Scratch".
func (s *Scratch) recycleOut() {
	for _, p := range s.out {
		s.putPoly(p)
	}
	s.out = s.out[:0]
}

// sortRel sorts s.rel by (d2, ID) ascending — the canonical total order of
// the kernel (IDs are unique, so the order is independent of the input
// order). Hand-rolled insertion+quicksort instead of sort.Slice because the
// standard library's reflection-based swapper allocates on every call.
func (s *Scratch) sortRel() { quickSortRel(s.rel) }

func relLess(a, b relSite) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.site.ID < b.site.ID
}

func quickSortRel(rel []relSite) {
	for len(rel) > 12 {
		// Median-of-three pivot, moved to the end.
		m := len(rel) / 2
		hi := len(rel) - 1
		if relLess(rel[m], rel[0]) {
			rel[m], rel[0] = rel[0], rel[m]
		}
		if relLess(rel[hi], rel[0]) {
			rel[hi], rel[0] = rel[0], rel[hi]
		}
		if relLess(rel[hi], rel[m]) {
			rel[hi], rel[m] = rel[m], rel[hi]
		}
		pivot := rel[m]
		rel[m], rel[hi-1] = rel[hi-1], rel[m]
		i := 0
		for j := 0; j < hi-1; j++ {
			if relLess(rel[j], pivot) {
				rel[i], rel[j] = rel[j], rel[i]
				i++
			}
		}
		rel[i], rel[hi-1] = rel[hi-1], rel[i]
		// Recurse into the smaller half, iterate on the larger.
		if i < len(rel)-i-1 {
			quickSortRel(rel[:i])
			rel = rel[i+1:]
		} else {
			quickSortRel(rel[i+1:])
			rel = rel[:i]
		}
	}
	// Insertion sort for short runs.
	for i := 1; i < len(rel); i++ {
		for j := i; j > 0 && relLess(rel[j], rel[j-1]); j-- {
			rel[j], rel[j-1] = rel[j-1], rel[j]
		}
	}
}

// DominatingRegion returns the dominating region of self among others,
// clipped to the polygons in clip: the points where fewer than k of the
// others are closer than self (Proposition 1), as disjoint convex pieces.
// others may contain self's ID; it is ignored. All intermediate polygons
// come from s's buffer arena and the returned region reuses s's survivor
// storage.
//
// The returned polygons are valid only until the next call on s; copy them
// out with CompactRegion to keep them.
func DominatingRegion(self Site, others []Site, k int, clip []geom.Polygon, s *Scratch) []geom.Polygon {
	if k < 1 {
		panic("oracle: DominatingRegion needs k >= 1")
	}
	s.recycleOut()

	// Filter out self and sort by distance: nearer bisectors cut away more
	// area early, which prunes the recursion fastest. The (distance², ID)
	// order is total, so the result is independent of the input order.
	rel := s.rel[:0]
	for _, o := range others {
		if o.ID == self.ID {
			continue
		}
		d2 := o.Pos.Dist2(self.Pos)
		if o.Pos.Eq(self.Pos) {
			d2 = 0 // the coincidence rule: tie-broken by ID, never bisected
		}
		rel = append(rel, relSite{d2: d2, site: o})
	}
	s.rel = rel
	s.sortRel()

	for _, piece := range clip {
		// Copy the borrowed clip piece into an arena buffer so ownership is
		// uniform inside the walk.
		poly := append(s.getPoly(), piece...)
		splitByBudget(self, s.rel, 0, k-1, poly, s)
	}
	return s.out
}

// splitByBudget owns poly (an arena buffer) and either appends it to s.out
// (survivor) or returns it to the free list. Clipping ping-pongs between
// arena buffers via ClipHalfPlaneInto. The neighbor list is sorted by
// ascending distance to self, so once a neighbor's distance d satisfies
// d ≥ 2·max_{v∈poly}‖v−self‖, every point of poly is at least as close to
// self as to that neighbor and the scan stops. The polygon's area and
// pruning bound are recomputed only when a clip changed it.
func splitByBudget(self Site, others []relSite, j, budget int, poly geom.Polygon, s *Scratch) {
	area := poly.Area()
	bound := maxDistToBBox(self.Pos, poly.BBox())
	for ; j < len(others); j++ {
		if len(poly) < 3 || area < 1e-16 {
			s.putPoly(poly)
			return
		}
		o := others[j]
		d2 := o.d2
		if d2 >= 4*bound*bound {
			break // this and all farther neighbors leave poly untouched
		}
		if d2 < CoincidentTol {
			// Coincident generator: tie broken by index uniformly over the
			// whole plane.
			if o.site.ID < self.ID {
				if budget == 0 {
					s.putPoly(poly)
					return
				}
				budget--
			}
			continue
		}
		h := geom.Bisector(self.Pos, o.site.Pos) // contains points at least as close to self
		if budget == 0 {
			// No allowance left: keep only the part where o is not closer.
			next := poly.ClipHalfPlaneInto(s.getPoly(), h)
			s.putPoly(poly)
			poly = next
		} else {
			// Branch: the part where o is closer consumes one budget unit.
			closer := poly.ClipHalfPlaneInto(s.getPoly(), h.Complement())
			if len(closer) >= 3 && closer.Area() >= 1e-16 {
				splitByBudget(self, others, j+1, budget-1, closer, s)
			} else {
				s.putPoly(closer)
			}
			next := poly.ClipHalfPlaneInto(s.getPoly(), h)
			s.putPoly(poly)
			poly = next
		}
		if len(poly) >= 3 {
			area = poly.Area()
			bound = maxDistToBBox(self.Pos, poly.BBox())
		} else {
			area = 0
		}
	}
	if len(poly) >= 3 && area >= 1e-16 {
		s.out = append(s.out, poly)
	} else {
		s.putPoly(poly)
	}
}

// maxDistToBBox returns the maximum distance from p to the corners of b,
// computed exactly as voronoi's copy computes it.
func maxDistToBBox(p geom.Point, b geom.BBox) float64 {
	dx := math.Max(math.Abs(b.Min.X-p.X), math.Abs(b.Max.X-p.X))
	dy := math.Max(math.Abs(b.Min.Y-p.Y), math.Abs(b.Max.Y-p.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

// ClipToConvex clips each polygon in polys against the convex CCW polygon
// clip (intersection of convex sets, one half-plane per clip edge), keeping
// pieces with at least 3 vertices and non-negligible area — the scalar
// reference of voronoi.Scratch.ClipToConvexSoA, on the arena. polys may be
// (and typically is) the arena-owned result of a DominatingRegion call on
// the same s; the inputs are not mutated. The returned polygons are
// arena-owned and valid only until the next DominatingRegion or
// ClipToConvex call on s.
func (s *Scratch) ClipToConvex(polys []geom.Polygon, clip geom.Polygon) []geom.Polygon {
	for _, p := range s.out2 {
		s.putPoly(p)
	}
	s.out2 = s.out2[:0]
	n := len(clip)
	for _, p := range polys {
		cur := append(s.getPoly(), p...)
		for i := 0; i < n && len(cur) >= 3; i++ {
			h := geom.HalfPlaneFromEdge(clip[i], clip[(i+1)%n])
			next := cur.ClipHalfPlaneInto(s.getPoly(), h)
			s.putPoly(cur)
			cur = next
		}
		if len(cur) >= 3 && cur.Area() > 1e-16 {
			s.out2 = append(s.out2, cur)
		} else {
			s.putPoly(cur)
		}
	}
	return s.out2
}

// CompactRegion copies polys into freshly allocated minimal storage: one
// backing vertex array shared by all pieces plus one slice of headers — two
// allocations total, regardless of piece count. Use it to keep a region
// returned by DominatingRegion beyond the next call on its Scratch. An empty
// region compacts to nil.
func CompactRegion(polys []geom.Polygon) []geom.Polygon {
	if len(polys) == 0 {
		return nil
	}
	total := 0
	for _, p := range polys {
		total += len(p)
	}
	backing := make([]geom.Point, 0, total)
	out := make([]geom.Polygon, len(polys))
	for i, p := range polys {
		start := len(backing)
		backing = append(backing, p...)
		out[i] = geom.Polygon(backing[start:len(backing):len(backing)])
	}
	return out
}
