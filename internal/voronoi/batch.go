package voronoi

import (
	"math"

	"laacad/internal/geom"
)

// Batch (structure-of-arrays) form of the dominating-region kernel.
//
// The scalar kernel (oracle.DominatingRegion, in package
// laacad/internal/voronoi/oracle) re-derives everything per call: it rebuilds and re-sorts the whole relevant-neighbor list, computes
// each bisector's coefficients at every recursion visit, and ping-pongs
// vertices through a free-list of scattered []Point buffers. The batch form
// keeps the neighbor list as parallel slabs that survive across the
// expanding-search ρ-doublings of one node (only the new suffix is appended
// and sorted — everything nearer is already in canonical (distance², ID)
// order), memoizes each bisector's half-plane coefficients on the walk's
// first visit (so recursion branches never recompute them, and generators
// the distance-sorted walk prunes never pay for one), and clips through the
// geom.PolySlab vertex arena.
//
// Every geometric operation routes through the same geom functions as the
// scalar walk, in the same order, so the survivor polygons are bitwise equal
// to the scalar kernel's. The batch form is the only production path; the
// scalar kernel lives in the oracle package as the reference tests diff it
// against, and no production package imports it.

// ResetRel clears the relevant-neighbor slabs for a new query site.
func (s *Scratch) ResetRel() {
	s.relD2 = s.relD2[:0]
	s.relVal = s.relVal[:0]
	s.relHx = s.relHx[:0]
	s.relHy = s.relHy[:0]
	s.relHc = s.relHc[:0]
	s.relHn = s.relHn[:0]
}

// RelLen returns the number of entries in the relevant-neighbor slabs.
func (s *Scratch) RelLen() int { return len(s.relD2) }

// AppendRel appends one generator with its precomputed squared distance to
// the query site self. Entries with o.ID == self.ID are ignored (same filter
// as the scalar oracle), and a generator within geom.Point.Eq of self gets
// d² = 0, so the walk tie-breaks it by ID instead of asking geom.Bisector
// for a bisector it cannot draw (the coincidence rule). The bisector memo
// starts unset — (relHx, relHy) carry the generator position, relHc the NaN
// sentinel; the walk fills the memo on first visit, so generators beyond the
// pruning bound never pay for a bisector. IDs must be non-negative and fit 32 bits (node indices), so
// the packed key is positive and orders by ID within equal distances.
func (s *Scratch) AppendRel(self, o Site, d2 float64) {
	if o.ID == self.ID {
		return
	}
	if o.Pos.Eq(self.Pos) {
		d2 = 0
	}
	if len(s.relD2) == cap(s.relD2) {
		s.growRel()
	}
	slot := len(s.relHx)
	s.relD2 = append(s.relD2, d2)
	s.relVal = append(s.relVal, int64(o.ID)<<32|int64(slot))
	s.relHx = append(s.relHx, o.Pos.X)
	s.relHy = append(s.relHy, o.Pos.Y)
	s.relHc = append(s.relHc, math.NaN())
	s.relHn = append(s.relHn, 0)
}

// relMinCap is the capacity a fresh Scratch's rel slabs start at: room for
// the generators a typical search gathers, so a cold slab grows a few times
// rather than once per doubling from one entry.
const relMinCap = 64

// growRel grows the six rel slabs together, which AppendRel keeps equally
// long, to twice their capacity (at least relMinCap).
func (s *Scratch) growRel() {
	c := max(2*cap(s.relD2), relMinCap)
	s.relD2 = geom.GrowCap(s.relD2, c)
	s.relVal = geom.GrowCap(s.relVal, c)
	s.relHx = geom.GrowCap(s.relHx, c)
	s.relHy = geom.GrowCap(s.relHy, c)
	s.relHc = geom.GrowCap(s.relHc, c)
	s.relHn = geom.GrowCap(s.relHn, c)
}

// SortRelTail sorts rel[start:] by (distance², ID) ascending. The expanding
// search appends only generators at distance ≥ the previous search radius —
// strictly beyond every existing entry — so sorting the new suffix alone
// leaves the whole list in the canonical total order the kernel requires.
// Pass start = 0 to sort everything.
//
// Only the key pair (relD2, relVal) moves; the per-entry storage stays in
// append order and is reached through the slot packed into relVal's low
// bits, so the sort touches half the memory of a full-slab permutation and
// the bisector memo (including its NaN sentinels) is untouched.
func (s *Scratch) SortRelTail(start int) {
	quickSortRelSlab(s.relD2, s.relVal, start, len(s.relD2))
}

// relSlabLess orders by (d², packed key). IDs are unique, so comparing the
// packed ID<<32|slot value whole is equivalent to comparing IDs: the high
// bits decide.
func relSlabLess(d2 []float64, val []int64, i, j int) bool {
	if d2[i] != d2[j] {
		return d2[i] < d2[j]
	}
	return val[i] < val[j]
}

func relSlabSwap(d2 []float64, val []int64, i, j int) {
	d2[i], d2[j] = d2[j], d2[i]
	val[i], val[j] = val[j], val[i]
}

// quickSortRelSlab sorts the index range [lo, hi) of the rel key slabs — a
// median-of-three quicksort with an insertion-sort tail, over parallel
// arrays (the oracle sorts an AoS slice the same way). (d², ID) is a total order
// with unique IDs, so any comparison sort yields the same sequence. The
// slabs are passed as locals so the hot compare/swap paths never reload
// slice headers through the Scratch pointer.
func quickSortRelSlab(d2 []float64, val []int64, lo, hi int) {
	for hi-lo > 12 {
		m := lo + (hi-lo)/2
		last := hi - 1
		if relSlabLess(d2, val, m, lo) {
			relSlabSwap(d2, val, m, lo)
		}
		if relSlabLess(d2, val, last, lo) {
			relSlabSwap(d2, val, last, lo)
		}
		if relSlabLess(d2, val, last, m) {
			relSlabSwap(d2, val, last, m)
		}
		relSlabSwap(d2, val, m, last-1)
		pivot := last - 1
		i := lo
		for j := lo; j < last-1; j++ {
			if relSlabLess(d2, val, j, pivot) {
				relSlabSwap(d2, val, i, j)
				i++
			}
		}
		relSlabSwap(d2, val, i, last-1)
		if i-lo < hi-i-1 {
			quickSortRelSlab(d2, val, lo, i)
			lo = i + 1
		} else {
			quickSortRelSlab(d2, val, i+1, hi)
			hi = i
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && relSlabLess(d2, val, j, j-1); j-- {
			relSlabSwap(d2, val, j, j-1)
		}
	}
}

// DominatingRegionSoA runs the dominating-region walk for self over the
// prepared rel slabs (ResetRel / AppendRel / SortRelTail), clipping to the
// given pieces, and returns the survivor polygons as refs into s.Slab. boxes
// holds the bounding box of each piece, index-aligned with clip. The refs
// are valid until the next DominatingRegionSoA call on s; callers that keep
// the region must copy it out with CompactRefs first.
//
// A piece is skipped without a walk when k rel generators each place the
// whole piece clear of their bisector's tolerance band on the generator's
// side (see dominated). That is exact: every polygon the walk derives from a
// piece lies inside the piece, up to rounding far below the band, so at each
// such generator every recursion branch is clipped wholly to its closer side
// — it consumes one budget unit, or is clipped away at budget 0 — and after k
// of them no branch survives. The surviving pieces, their vertices and their
// order are the same as the full walk's; oracle.DominatingRegion, the scalar
// reference, walks every piece.
func DominatingRegionSoA(self Site, k int, clip []geom.Polygon, boxes []geom.BBox, s *Scratch) []geom.PolyRef {
	if k < 1 {
		panic("voronoi: DominatingRegionSoA needs k >= 1")
	}
	if len(boxes) != len(clip) {
		panic("voronoi: DominatingRegionSoA needs one box per clip piece")
	}
	s.Slab.Reset()
	s.refs = s.refs[:0]
	for pi, piece := range clip {
		if s.dominated(self, k, piece, boxes[pi]) {
			s.culled++
			continue
		}
		poly := s.Slab.Append(piece)
		area, bb := s.Slab.AreaBBox(poly)
		// Entry pieces come from outside the kernel and are not known to be
		// dedupe-stable — the first clip of each must go through the dedupe
		// verification (trusted=false).
		s.splitByBudgetSoA(self, 0, k-1, poly, area, bb, false)
	}
	return s.refs
}

// dominated reports whether k rel generators each place the whole convex
// piece (bounding box bb) on their closer side, clear of the tolerance band
// (geom.Polygon.ClearlyOutside of the bisector half-plane). Such a generator
// g is closer than self at every point p of the piece, so
// ‖g−self‖ ≤ ‖g−p‖ + ‖p−self‖ < 2‖p−self‖ for every p, and in particular
// below twice self's distance to the box: the scan, in the rel list's sorted
// order, stops there. A piece whose box holds self has distance 0 and is
// never scanned — no generator is closer than self at self.
//
// The scan never calls geom.Bisector where the walk would not. Coincident
// entries (d² < coincidentTol, which AppendRel gives every generator within
// Point.Eq of self) are tie-broken by the walk, not cut, and are passed
// over. Bisectors the scan computes fill the same memo the walk reads, with
// the same values.
func (s *Scratch) dominated(self Site, k int, piece geom.Polygon, bb geom.BBox) bool {
	dx := math.Max(math.Max(bb.Min.X-self.Pos.X, self.Pos.X-bb.Max.X), 0)
	dy := math.Max(math.Max(bb.Min.Y-self.Pos.Y, self.Pos.Y-bb.Max.Y), 0)
	stop := 4 * (dx*dx + dy*dy)
	for j := 0; j < len(s.relD2); j++ {
		d2 := s.relD2[j]
		if d2 >= stop {
			return false
		}
		if d2 < coincidentTol {
			continue
		}
		slot := int(s.relVal[j] & 0xffffffff)
		if math.IsNaN(s.relHc[slot]) {
			s.memoBisector(self, slot)
		}
		h := geom.HalfPlane{N: geom.Point{X: s.relHx[slot], Y: s.relHy[slot]}, C: s.relHc[slot]}
		if piece.ClearlyOutside(h, s.relHn[slot], bb) {
			if k--; k == 0 {
				return true
			}
		}
	}
	return false
}

// memoBisector fills the bisector memo of rel slot from the generator
// position it holds while unset — the same geom.Bisector call the scalar
// walk makes. AppendRel's coincidence rule keeps every generator within
// Point.Eq of self out of here.
func (s *Scratch) memoBisector(self Site, slot int) {
	b := geom.Bisector(self.Pos, geom.Point{X: s.relHx[slot], Y: s.relHy[slot]})
	s.relHx[slot], s.relHy[slot], s.relHc[slot] = b.N.X, b.N.Y, b.C
	s.relHn[slot] = b.N.Norm()
}

// DominatingRegionBatch is the self-contained batch entry: it rebuilds the
// rel slabs from others and runs DominatingRegionSoA, for callers that carry
// no incremental rel state. The engine's expanding search uses the
// incremental API directly.
func DominatingRegionBatch(self Site, others []Site, k int, clip []geom.Polygon, boxes []geom.BBox, s *Scratch) []geom.PolyRef {
	s.ResetRel()
	for _, o := range others {
		if o.ID == self.ID {
			continue
		}
		s.AppendRel(self, o, o.Pos.Dist2(self.Pos))
	}
	s.SortRelTail(0)
	return DominatingRegionSoA(self, k, clip, boxes, s)
}

// splitByBudgetSoA is the oracle package's scalar walk on the slabs:
// identical control flow, identical predicates, bitwise-identical survivors. The bisector
// coefficients come from the same geom.Bisector call the scalar walk makes
// (computed on first visit, memoized for revisits along with |N|), and the
// clips run through the fast entries (geom.PolySlab.ClipHalfPlaneFast /
// ClipSplitFast), which screen out provably no-op clips in O(1) using the
// polygon's caller-tracked area and bounding box and fall back to the exact
// scalar-equivalent emission otherwise. Identity clips leave the polygon ref
// — and therefore its area, bbox, pruning bound, and corner norm — unchanged,
// so the recomputation the scalar walk does after every clip is skipped
// exactly when it would reproduce the same values over the same vertices.
//
// Callers pass area, bb = Slab.AreaBBox(poly) and whether poly is known
// dedupe-stable (trusted). Recursion branches are always trusted: every
// polygon a clip emission builds has been through dedupeTail, and later
// clips see equal-or-smaller bounding boxes, hence equal-or-smaller dedupe
// tolerances.
func (s *Scratch) splitByBudgetSoA(self Site, j, budget int, poly geom.PolyRef, area float64, bb geom.BBox, trusted bool) {
	bound := maxDistToBBox(self.Pos, bb)
	mN := bb.MaxCornerNorm()
	for ; j < len(s.relD2); j++ {
		if poly.N < 3 || area < 1e-16 {
			return
		}
		d2 := s.relD2[j]
		if d2 >= 4*bound*bound {
			break // this and all farther neighbors leave poly untouched
		}
		if d2 < coincidentTol {
			// Coincident generator: tie broken by index uniformly over the
			// whole plane.
			if int(s.relVal[j]>>32) < self.ID {
				if budget == 0 {
					return
				}
				budget--
			}
			continue
		}
		slot := int(s.relVal[j] & 0xffffffff)
		if math.IsNaN(s.relHc[slot]) {
			s.memoBisector(self, slot) // first visit, memoized for revisits
		}
		h := geom.HalfPlane{N: geom.Point{X: s.relHx[slot], Y: s.relHy[slot]}, C: s.relHc[slot]}
		nNorm := s.relHn[slot]
		var same bool
		if budget == 0 {
			// No allowance left: keep only the part where o is not closer.
			poly, same = s.Slab.ClipHalfPlaneFast(poly, h, nNorm, bb, mN, trusted)
		} else {
			// Branch: the part where o is closer consumes one budget unit.
			var closer geom.PolyRef
			poly, closer, same = s.Slab.ClipSplitFast(poly, h, nNorm, bb, mN, trusted)
			if closer.N >= 3 {
				ca, cbb := s.Slab.AreaBBox(closer)
				if ca >= 1e-16 {
					s.splitByBudgetSoA(self, j+1, budget-1, closer, ca, cbb, true)
				}
			}
		}
		trusted = true // any clip output (or verified identity) is dedupe-stable
		if !same {
			if poly.N >= 3 {
				area, bb = s.Slab.AreaBBox(poly)
				bound = maxDistToBBox(self.Pos, bb)
				mN = bb.MaxCornerNorm()
			} else {
				area = 0
			}
		}
	}
	if poly.N >= 3 && area >= 1e-16 {
		s.refs = append(s.refs, poly)
	}
}

// ClipToConvexSoA clips each survivor ref against the convex CCW polygon
// clip — the batch form of the oracle's Scratch.ClipToConvex. Each ref is
// clipped through all of clip's edges in turn, via the walk's fast entry
// (geom.PolySlab.ClipHalfPlaneFast) with its bounding box, corner norm and
// area tracked across the edges, so an edge whose clip provably keeps the
// whole piece costs O(1). As in the walk, a piece is untrusted until its
// first clip (it may come straight from the region's decomposition) and
// trusted after. A ref that collapses below 3 vertices is clipped no
// further, as in the scalar pipeline. The returned refs (the pieces with
// ≥ 3 vertices and non-negligible area, in input order) are valid until the
// next DominatingRegionSoA call on s.
func (s *Scratch) ClipToConvexSoA(refs []geom.PolyRef, clip geom.Polygon) []geom.PolyRef {
	s.refs2 = s.refs2[:0]
	for _, r := range refs {
		if r.N < 3 {
			continue
		}
		area, bb := s.Slab.AreaBBox(r)
		mN := bb.MaxCornerNorm()
		trusted := false
		for i := 0; i < len(clip) && r.N >= 3; i++ {
			j := i + 1
			if j == len(clip) {
				j = 0
			}
			h := geom.HalfPlaneFromEdge(clip[i], clip[j])
			var same bool
			r, same = s.Slab.ClipHalfPlaneFast(r, h, h.N.Norm(), bb, mN, trusted)
			trusted = true
			if !same && r.N >= 3 {
				area, bb = s.Slab.AreaBBox(r)
				mN = bb.MaxCornerNorm()
			}
		}
		if r.N >= 3 && area > 1e-16 {
			s.refs2 = append(s.refs2, r)
		}
	}
	return s.refs2
}

// CompactRefs copies the referenced polygons out of the slab into freshly
// allocated minimal storage — one backing vertex array plus one header
// slice, two allocations total — the ref-space analogue of
// oracle.CompactRegion.
// An empty region compacts to nil.
func CompactRefs(slab *geom.PolySlab, refs []geom.PolyRef) []geom.Polygon {
	if len(refs) == 0 {
		return nil
	}
	total := 0
	for _, r := range refs {
		total += r.N
	}
	backing := make([]geom.Point, 0, total)
	out := make([]geom.Polygon, len(refs))
	for i, r := range refs {
		start := len(backing)
		backing = slab.AppendTo(backing, r)
		out[i] = geom.Polygon(backing[start:len(backing):len(backing)])
	}
	return out
}

// MaxDistFromRefs returns the farthest distance from q to any vertex of the
// referenced polygons — MaxDistFrom on the slab.
func MaxDistFromRefs(q geom.Point, slab *geom.PolySlab, refs []geom.PolyRef) float64 {
	var m float64
	for _, r := range refs {
		if d := slab.MaxDistFrom(r, q); d > m {
			m = d
		}
	}
	return m
}

// VerticesOfRefsInto appends all vertices of the referenced polygons to buf
// and returns it — VerticesInto on the slab.
func VerticesOfRefsInto(buf []geom.Point, slab *geom.PolySlab, refs []geom.PolyRef) []geom.Point {
	for _, r := range refs {
		buf = slab.AppendTo(buf, r)
	}
	return buf
}
