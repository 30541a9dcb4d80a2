package voronoi

import (
	"laacad/internal/geom"
)

// Scratch is the reusable workspace of the dominating-region kernel: a
// free-list of polygon buffers for the half-plane clipping walk, the
// filtered-and-sorted relevant-neighbor list with precomputed squared
// distances, and the survivor accumulator. One Scratch serves one goroutine;
// the round engine keeps one per worker so a steady-state round performs no
// heap allocation in the geometry kernel.
//
// The zero value is ready to use; buffers grow on demand and are retained
// across calls.
type Scratch struct {
	rel  []relSite      // filtered neighbors sorted by (distance², ID)
	free []geom.Polygon // recycled polygon buffers for the clipping walk
	out  []geom.Polygon // survivors of the current call (arena-owned)
	out2 []geom.Polygon // ClipToConvex survivors (arena-owned)

	// Batch (structure-of-arrays) kernel state — see batch.go. The relevant-
	// neighbor list is split into a sorted key pair and unsorted per-entry
	// storage: (relD2, relVal) are sorted by (distance², ID) — relVal packs
	// the generator ID in its high 32 bits and the entry's append slot in
	// the low 32, so one int64 comparison breaks distance ties and one int64
	// swap carries everything the sort must move — while relHx/relHy/relHc/
	// relHn stay in append (slot) order, reached through the packed slot.
	// Those four hold a lazily filled memo of each generator's bisector
	// half-plane (computed on the walk's first visit, reused across
	// recursion branches): while relHc[slot] is NaN the memo is unset and
	// (relHx, relHy) hold the generator's position; the first visit
	// overwrites them with the bisector coefficients and |N|. Bisector
	// offsets are never NaN for finite positions, so the sentinel is
	// unambiguous. Polygon vertices live in Slab, survivors are refs into
	// it.
	Slab   geom.PolySlab  // vertex arena of the batch clipping walk
	relD2  []float64      // squared distance to the query site (sorted)
	relVal []int64        // generator ID << 32 | append slot (sorted with relD2)
	relHx  []float64      // by slot: bisector normal X (position X while unset)
	relHy  []float64      // by slot: bisector normal Y (position Y while unset)
	relHc  []float64      // by slot: bisector offset C (NaN: memo unset)
	relHn  []float64      // by slot: bisector normal magnitude |N|
	refs   []geom.PolyRef // survivors of the current batch walk
	refs2  []geom.PolyRef // ClipToConvexSoA survivors
	culled int            // pieces DominatingRegionSoA skipped as dominated
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
// list. Called at the top of DominatingRegionScratch, which is what bounds
// the returned region's lifetime to "until the next call on this Scratch".
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

// DominatingRegionScratch is the scalar form of the kernel: all
// intermediate polygons come from s's buffer arena and the returned region
// reuses s's survivor storage, so a warmed-up Scratch computes a region with
// zero heap allocations. It has no production caller — it is the reference
// the batch kernel (DominatingRegionBatch) is tested bit-identical against.
//
// The returned polygons are valid only until the next call on s; copy them
// out with CompactRegion to keep them.
func DominatingRegionScratch(self Site, others []Site, k int, clip []geom.Polygon, s *Scratch) []geom.Polygon {
	if k < 1 {
		panic("voronoi: DominatingRegionScratch needs k >= 1")
	}
	s.recycleOut()

	// Filter out self and sort by distance: nearer bisectors cut away more
	// area early, which prunes the recursion fastest. The (distance², ID)
	// order is total, so the result is independent of the input order — a
	// prerequisite for cache-equivalence in the round engine.
	rel := s.rel[:0]
	for _, o := range others {
		if o.ID == self.ID {
			continue
		}
		rel = append(rel, relSite{d2: o.Pos.Dist2(self.Pos), site: o})
	}
	s.rel = rel
	s.sortRel()

	for _, piece := range clip {
		// Copy the borrowed clip piece into an arena buffer so ownership is
		// uniform inside the walk.
		poly := append(s.getPoly(), piece...)
		splitByBudgetScratch(self, s.rel, 0, k-1, poly, s)
	}
	return s.out
}

// splitByBudgetScratch is splitByBudget on the buffer arena: it owns poly
// (an arena buffer) and either appends it to s.out (survivor) or returns it
// to the free list. Clipping ping-pongs between arena buffers via
// ClipHalfPlaneInto; the arithmetic is identical to the allocating walk.
// The polygon's area and pruning bound are recomputed only when a clip
// actually changed it, not on every bisector scan iteration — same values,
// computed once.
func splitByBudgetScratch(self Site, others []relSite, j, budget int, poly geom.Polygon, s *Scratch) {
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
		if d2 < coincidentTol {
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
				splitByBudgetScratch(self, others, j+1, budget-1, closer, s)
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

// ClipToConvex clips each polygon in polys against the convex CCW polygon
// clip (intersection of convex sets, one half-plane per clip edge), keeping
// pieces with at least 3 vertices and non-negligible area — the scalar
// reference of ClipToConvexSoA, on the arena. polys may be (and typically
// is) the arena-owned result of a DominatingRegionScratch call on the same
// s; the inputs are not mutated. The returned polygons are arena-owned and
// valid only until the next DominatingRegionScratch or ClipToConvex call on
// s.
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
// returned by DominatingRegionScratch beyond the next call on its Scratch.
// An empty region compacts to nil.
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

// VerticesInto appends all vertices of the given polygons to buf and returns
// it — the allocation-free form of Vertices for callers with a scratch
// buffer.
func VerticesInto(buf []geom.Point, polys []geom.Polygon) []geom.Point {
	for _, p := range polys {
		buf = append(buf, p...)
	}
	return buf
}
