package geom

// Contains reports whether p lies in the closed half-plane, within a
// tolerance scaled by the normal's magnitude. Production code tests
// half-plane membership through the clipping walk; tests use this to check
// the half-planes themselves.
func (h HalfPlane) Contains(p Point) bool {
	return h.N.Dot(p)-h.C <= Eps*(1+h.N.Norm()*(1+p.Norm()))
}

// ClipHalfPlane clips the convex polygon r against the closed half-plane h,
// writing the result at the slab tail and returning its ref, with no
// shortcut screens: the reference the fast entries (ClipHalfPlaneFast,
// ClipSplitFast) are checked against. It is the slab form of
// Polygon.ClipHalfPlaneInto: same classification tolerances, same
// intersection arithmetic, same consecutive-duplicate removal, so the output
// vertices are bitwise equal to the scalar clip of the same input. The input
// polygon is not modified.
func (s *PolySlab) ClipHalfPlane(r PolyRef, h HalfPlane) PolyRef {
	out := PolyRef{Off: len(s.XS)}
	n := r.N
	if n == 0 {
		return out
	}
	// Pre-grow for the worst case (each edge emits an intersection plus a
	// kept vertex) so the emission loop never reallocates, then pin the input
	// window — growth copies, so the offsets stay valid either way.
	s.XS = growFloats(s.XS, out.Off+2*n)
	s.YS = growFloats(s.YS, out.Off+2*n)
	xs := s.XS[r.Off : r.Off+n]
	ys := s.YS[r.Off : r.Off+n]
	// Tolerance scaled by normal magnitude and coordinate size keeps the
	// classification stable for raw (unnormalized) bisector coefficients.
	// The pre-dedupe bounding box is accumulated while emitting (the scalar
	// path recomputes it afterward; Expand order is identical).
	prev := Point{xs[n-1], ys[n-1]}
	prevVal := h.Eval(prev)
	nNorm := h.N.Norm()
	prevIn := prevVal <= Eps*(1+nNorm*(1+prev.Norm()))
	bb := EmptyBBox()
	for i := 0; i < n; i++ {
		cur := Point{xs[i], ys[i]}
		curVal := h.Eval(cur)
		curIn := curVal <= Eps*(1+nNorm*(1+cur.Norm()))
		switch {
		case prevIn && curIn:
			bb = bb.Expand(cur)
			s.push(cur)
		case prevIn && !curIn:
			v := intersectEdgePlane(prev, cur, prevVal, curVal)
			bb = bb.Expand(v)
			s.push(v)
		case !prevIn && curIn:
			v := intersectEdgePlane(prev, cur, prevVal, curVal)
			bb = bb.Expand(v)
			s.push(v)
			bb = bb.Expand(cur)
			s.push(cur)
		}
		prev, prevVal, prevIn = cur, curVal, curIn
	}
	out.N = len(s.XS) - out.Off
	return s.dedupeTail(out, bb)
}
