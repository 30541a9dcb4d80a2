package geom

import "math"

// Structure-of-arrays polygon arena: the batch form of the half-plane
// clipping kernel. Vertices of many polygons live in two parallel []float64
// slabs (X and Y), and a polygon is a PolyRef — an (offset, length) window
// into the slabs. Clipping appends its output at the slab tail, so a whole
// color class of dominating-region walks runs against one pair of hot,
// contiguous arrays instead of a free-list of scattered []Point buffers.
//
// Every predicate and every arithmetic step routes through the exact same
// functions as the scalar pipeline (HalfPlane.Eval, Point.Norm,
// intersectEdgePlane, BBox.Expand, Point.Cross), in the exact same order, so
// a clip of the same vertices against the same half-plane produces bitwise-
// identical output — the property the engine's bit-identity matrices gate
// on. The scalar path (Polygon.ClipHalfPlaneInto) stays as the oracle.

// PolyRef is a polygon stored in a PolySlab: vertices i ∈ [Off, Off+N).
type PolyRef struct {
	Off int // index of the first vertex in the slab
	N   int // vertex count
}

// PolySlab is a reusable structure-of-arrays vertex arena. One PolySlab
// serves one goroutine; the zero value is ready to use, and buffers grow on
// demand and are retained across Resets.
type PolySlab struct {
	XS, YS []float64

	// Classification scratch of the fast clip entries: the signed half-plane
	// value and the scalar pipeline's per-vertex tolerance for each vertex of
	// the polygon last classified. Stored so the emission passes (and the
	// complement's, whose value is the exact negation) never re-evaluate.
	vals, tols []float64
}

// Reserve grows every buffer of s to at least the capacity o's has reached,
// keeping s's contents, so s serves whatever o has served without growing.
func (s *PolySlab) Reserve(o *PolySlab) {
	s.XS = GrowCap(s.XS, cap(o.XS))
	s.YS = GrowCap(s.YS, cap(o.YS))
	s.vals = GrowCap(s.vals, cap(o.vals))
	s.tols = GrowCap(s.tols, cap(o.tols))
}

// Reset discards all polygons while keeping the slab capacity.
func (s *PolySlab) Reset() {
	s.XS = s.XS[:0]
	s.YS = s.YS[:0]
}

// Vertex returns vertex i of the polygon r.
func (s *PolySlab) Vertex(r PolyRef, i int) Point {
	return Point{s.XS[r.Off+i], s.YS[r.Off+i]}
}

func (s *PolySlab) push(p Point) {
	s.XS = append(s.XS, p.X)
	s.YS = append(s.YS, p.Y)
}

// Append copies the vertices of p into the slab and returns its ref.
func (s *PolySlab) Append(p Polygon) PolyRef {
	r := PolyRef{Off: len(s.XS), N: len(p)}
	for _, v := range p {
		s.push(v)
	}
	return r
}

// AppendTo appends the vertices of r to dst and returns it.
func (s *PolySlab) AppendTo(dst []Point, r PolyRef) []Point {
	for i := 0; i < r.N; i++ {
		dst = append(dst, s.Vertex(r, i))
	}
	return dst
}

// dedupeTail is dedupeInPlace on the slab tail: it removes consecutive
// (near-)duplicate vertices of the just-emitted polygon out (which must end
// at the slab tail), truncates the slab to the compacted length, and returns
// the shortened ref. bb is the bounding box of the pre-dedupe vertices —
// exactly what dedupeInPlace derives its tolerance from.
func (s *PolySlab) dedupeTail(out PolyRef, bb BBox) PolyRef {
	if out.N == 0 {
		return out
	}
	// Tolerance proportional to polygon size avoids collapsing legitimate
	// short edges of tiny cells while removing clip artifacts.
	tol := Eps * (1 + bb.Diagonal())
	w := 0
	for i := 0; i < out.N; i++ {
		v := s.Vertex(out, i)
		if w == 0 || !s.Vertex(out, w-1).EqTol(v, tol) {
			s.XS[out.Off+w] = v.X
			s.YS[out.Off+w] = v.Y
			w++
		}
	}
	for w >= 2 && s.Vertex(out, 0).EqTol(Point{s.XS[out.Off+w-1], s.YS[out.Off+w-1]}, tol) {
		w--
	}
	out.N = w
	s.XS = s.XS[:out.Off+w]
	s.YS = s.YS[:out.Off+w]
	return out
}

// AreaBBox returns the (positive) shoelace area and the bounding box of r in
// one pass. The area accumulates p[i] × p[(i+1) mod n] in index order and
// the box expands in index order — bitwise identical to Polygon.Area and
// BBoxOf computed separately.
func (s *PolySlab) AreaBBox(r PolyRef) (float64, BBox) {
	bb := EmptyBBox()
	xs := s.XS[r.Off : r.Off+r.N]
	ys := s.YS[r.Off : r.Off+r.N]
	if r.N < 3 {
		for i := range xs {
			bb = bb.Expand(Point{xs[i], ys[i]})
		}
		return 0, bb
	}
	var sum float64
	for i := 0; i < r.N; i++ {
		j := i + 1
		if j == r.N {
			j = 0
		}
		v := Point{xs[i], ys[i]}
		sum += v.Cross(Point{xs[j], ys[j]})
		bb = bb.Expand(v)
	}
	return math.Abs(sum / 2), bb
}

// MaxDistFrom returns the largest distance from q to any vertex of r —
// Polygon.MaxDistFrom on the slab.
func (s *PolySlab) MaxDistFrom(r PolyRef, q Point) float64 {
	var m float64
	xs := s.XS[r.Off : r.Off+r.N]
	ys := s.YS[r.Off : r.Off+r.N]
	for i := range xs {
		if d := q.Dist(Point{xs[i], ys[i]}); d > m {
			m = d
		}
	}
	return m
}

// growFloats ensures cap(b) >= need without changing b's contents or length.
func growFloats(b []float64, need int) []float64 {
	if cap(b) >= need {
		return b
	}
	c := 2 * cap(b)
	if c < need {
		c = need
	}
	nb := make([]float64, len(b), c)
	copy(nb, b)
	return nb
}

// GrowCap returns b with capacity at least need, keeping its contents and
// length. When b must grow, the new capacity is exactly need, so growing
// one buffer to another's capacity never overshoots it.
func GrowCap[T any](b []T, need int) []T {
	if cap(b) >= need {
		return b
	}
	nb := make([]T, len(b), need)
	copy(nb, b)
	return nb
}

// Fast clip entries: the dominating-region walk clips the same shrinking
// polygon against one bisector per visited generator, and in the converged
// regime nearly every one of those clips is a no-op — the polygon lies
// entirely on the kept side. The entries below recognize those cases without
// touching the vertices, via two O(1) screens over the polygon's (caller-
// tracked) bounding box, and fall back to an exact per-vertex classification
// whose values are computed once and shared by the kept-side and complement
// emissions. Every accepted shortcut is bitwise-equivalent to running the
// full scalar pipeline (classify → emit → dedupe): the screens only fire when
// the scalar outcome is forced, with a wide float-error margin on top of the
// scalar tolerance band (Eps-scaled, ~10⁶ × the double-precision rounding
// error of the evaluations involved), and ambiguous polygons take the exact
// path.
//
// "Trusted" inputs are polygons known to be dedupe-stable: running the scalar
// dedupe pass over them removes nothing. Every polygon built by a clip
// emission is trusted from then on — dedupeTail leaves no consecutive pair
// within its tolerance, and every later clip of the polygon (or of any piece
// of it) sees an equal or smaller bounding box, hence an equal or smaller
// tolerance. For a trusted input a provably all-inside clip can return the
// input ref unchanged; an untrusted input (the walk's entry pieces) must
// still be copied through the dedupe pass, because the scalar pipeline would
// dedupe it.

// MaxCornerNorm returns an upper bound on the distance from the origin to
// any point of b: the norm of the componentwise farthest corner.
func (b BBox) MaxCornerNorm() float64 {
	mx := math.Max(math.Abs(b.Min.X), math.Abs(b.Max.X))
	my := math.Max(math.Abs(b.Min.Y), math.Abs(b.Max.Y))
	return math.Sqrt(mx*mx + my*my)
}

// outsideMargin is the clear-of-the-band margin of the fast clip screens:
// twice the largest per-vertex classification tolerance any point of a box
// with corner norm ≤ mN can get against a half-plane with |N| = nNorm. A
// point evaluating above it is outside h in every clip, whatever its exact
// tolerance.
func outsideMargin(nNorm, mN float64) float64 {
	return 2 * (Eps * (1 + nNorm*(1+mN)))
}

// ClearlyOutside reports whether the convex polygon p lies entirely outside
// the half-plane h, clear of the clip tolerance band by the same margin as
// ClipSplitFast's outside screen: the fast clips classify every vertex of p,
// and of any convex polygon inside p, as outside h. nNorm is h.N.Norm() and
// bb is p's bounding box. The box decides in O(1) when it lies wholly beyond
// the margin or wholly short of it; otherwise every vertex is tested, which
// is exact for a convex polygon because h.Eval is linear.
func (p Polygon) ClearlyOutside(h HalfPlane, nNorm float64, bb BBox) bool {
	hi := bbMaxEval(h, bb)
	if hi <= 0 {
		return false // no point of bb is outside h at all
	}
	margin := outsideMargin(nNorm, bb.MaxCornerNorm())
	if hi <= margin {
		return false // no vertex can clear the margin
	}
	if bbMinEval(h, bb) > margin {
		return true
	}
	for _, v := range p {
		if h.Eval(v) <= margin {
			return false
		}
	}
	return true
}

// bbMaxEval returns h.Eval at the bounding-box corner that maximizes it;
// no point inside bb evaluates (meaningfully) higher. bbMinEval likewise.
func bbMaxEval(h HalfPlane, bb BBox) float64 {
	c := bb.Min
	if h.N.X >= 0 {
		c.X = bb.Max.X
	}
	if h.N.Y >= 0 {
		c.Y = bb.Max.Y
	}
	return h.Eval(c)
}

func bbMinEval(h HalfPlane, bb BBox) float64 {
	c := bb.Max
	if h.N.X >= 0 {
		c.X = bb.Min.X
	}
	if h.N.Y >= 0 {
		c.Y = bb.Min.Y
	}
	return h.Eval(c)
}

// classify evaluates h at every vertex of r with the scalar clip's exact
// per-vertex tolerance, caching values and tolerances in the slab scratch.
// It reports the four aggregate facts the fast clips dispatch on: every
// vertex inside h (allIn), none inside h (allOut), every vertex inside the
// complement (cAllIn), and none inside the complement (cEmpty). The
// complement's value is the exact negation of h's and its tolerance is
// identical (|−N| = |N| bitwise), so one pass decides both sides.
func (s *PolySlab) classify(r PolyRef, h HalfPlane, nNorm float64) (allIn, allOut, cAllIn, cEmpty bool) {
	n := r.N
	s.vals = growFloats(s.vals[:0], n)[:n]
	s.tols = growFloats(s.tols[:0], n)[:n]
	xs := s.XS[r.Off : r.Off+n]
	ys := s.YS[r.Off : r.Off+n]
	allIn, allOut, cAllIn, cEmpty = true, true, true, true
	for i := 0; i < n; i++ {
		v := Point{xs[i], ys[i]}
		val := h.Eval(v)
		tol := Eps * (1 + nNorm*(1+v.Norm()))
		s.vals[i], s.tols[i] = val, tol
		if val <= tol {
			allOut = false
		} else {
			allIn = false
		}
		if -val <= tol {
			cEmpty = false
		} else {
			cAllIn = false
		}
	}
	return allIn, allOut, cAllIn, cEmpty
}

// emitClip emits the clip of r against the classified half-plane (neg=false)
// or its complement (neg=true) from the cached classification — the same
// emission and dedupe the scalar pipeline performs, with the evaluations
// read back instead of recomputed. Negating a cached value is exact, and the
// complement's intersection parameter t = (−va)/((−va)−(−vb)) equals
// va/(va−vb) bitwise, so the emitted vertices match a from-scratch complement
// clip bit for bit.
func (s *PolySlab) emitClip(r PolyRef, neg bool) PolyRef {
	out := PolyRef{Off: len(s.XS)}
	n := r.N
	if n == 0 {
		return out
	}
	s.XS = growFloats(s.XS, out.Off+2*n)
	s.YS = growFloats(s.YS, out.Off+2*n)
	xs := s.XS[r.Off : r.Off+n]
	ys := s.YS[r.Off : r.Off+n]
	vals := s.vals[:n]
	tols := s.tols[:n]
	sign := 1.0
	if neg {
		sign = -1.0
	}
	prev := Point{xs[n-1], ys[n-1]}
	prevVal := sign * vals[n-1]
	prevIn := prevVal <= tols[n-1]
	bb := EmptyBBox()
	for i := 0; i < n; i++ {
		cur := Point{xs[i], ys[i]}
		curVal := sign * vals[i]
		curIn := curVal <= tols[i]
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

// copyDedupe runs the scalar pipeline's all-inside outcome for an untrusted
// input: copy the vertices and dedupe them with the tolerance derived from
// bb (the exact bounding box of r's vertices — what the scalar dedupe would
// compute over the emitted copy). If nothing is removed the copy is rewound
// and the input ref returned with same=true; the input was dedupe-stable
// after all.
func (s *PolySlab) copyDedupe(r PolyRef, bb BBox) (PolyRef, bool) {
	out := PolyRef{Off: len(s.XS), N: r.N}
	s.XS = append(s.XS, s.XS[r.Off:r.Off+r.N]...)
	s.YS = append(s.YS, s.YS[r.Off:r.Off+r.N]...)
	out = s.dedupeTail(out, bb)
	if out.N == r.N {
		s.XS = s.XS[:out.Off]
		s.YS = s.YS[:out.Off]
		return r, true
	}
	return out, false
}

// ClipHalfPlaneFast clips the convex polygon r against the closed
// half-plane h, writing any new polygon at the slab tail: the slab form of
// Polygon.ClipHalfPlaneInto, bitwise, for the walk's budget-0 step and the
// ring closure. It returns (out, true) with out == r untouched when the clip
// is provably the identity. The caller supplies nNorm = h.N.Norm(), r's exact
// bounding box bb, and mN = bb.MaxCornerNorm() (an upper bound on any
// vertex's distance from the origin), all tracked across the walk; trusted
// marks r dedupe-stable.
func (s *PolySlab) ClipHalfPlaneFast(r PolyRef, h HalfPlane, nNorm float64, bb BBox, mN float64, trusted bool) (PolyRef, bool) {
	// Screen 1: every bb point is inside h by at least half the minimum
	// vertex tolerance — the clip keeps every vertex.
	if bbMaxEval(h, bb) <= 0.5*Eps*(1+nNorm) {
		if trusted {
			return r, true
		}
		return s.copyDedupe(r, bb)
	}
	// Screen 2: every bb point is outside h by at least twice the maximum
	// vertex tolerance — the clip keeps nothing.
	if bbMinEval(h, bb) > outsideMargin(nNorm, mN) {
		return PolyRef{Off: len(s.XS)}, false
	}
	allIn, allOut, _, _ := s.classify(r, h, nNorm)
	if allOut {
		return PolyRef{Off: len(s.XS)}, false
	}
	if allIn && trusted {
		return r, true
	}
	out := s.emitClip(r, false)
	if allIn && out.N == r.N {
		// The emission was the input verbatim and the dedupe removed nothing:
		// rewind the copy, the input ref is the result.
		s.XS = s.XS[:out.Off]
		s.YS = s.YS[:out.Off]
		return r, true
	}
	return out, false
}

// ClipSplitFast serves the walk's budget branch: one classification yields
// both the kept side (clip against h) and the closer side (clip against the
// complement), each with the identity/empty shortcuts of ClipHalfPlaneFast.
// keptSame reports kept == r untouched. The bbox screens here use the strict
// band-free margins in both directions, because a polygon hugging the
// bisector line legitimately produces a sliver on the complement side that
// the scalar pipeline goes on to area-test — only polygons clear of the
// whole tolerance band may skip that.
func (s *PolySlab) ClipSplitFast(r PolyRef, h HalfPlane, nNorm float64, bb BBox, mN float64, trusted bool) (kept, closer PolyRef, keptSame bool) {
	margin := outsideMargin(nNorm, mN)
	if bbMaxEval(h, bb) < -margin {
		// Strictly inside h, clear of the band: kept is r, closer is empty.
		closer = PolyRef{Off: len(s.XS)}
		if trusted {
			return r, closer, true
		}
		kept, same := s.copyDedupe(r, bb)
		return kept, PolyRef{Off: len(s.XS)}, same
	}
	if bbMinEval(h, bb) > margin {
		// Strictly outside h: kept is empty, closer is r.
		if trusted {
			return PolyRef{Off: len(s.XS)}, r, false
		}
		closer, _ = s.copyDedupe(r, bb)
		return PolyRef{Off: len(s.XS)}, closer, false
	}
	allIn, allOut, cAllIn, cEmpty := s.classify(r, h, nNorm)
	// Closer side first — the order the scalar walk emits in. The two
	// emissions read only the input window and the cached classification, so
	// the order cannot affect any value.
	switch {
	case cEmpty:
		closer = PolyRef{Off: len(s.XS)}
	case cAllIn && trusted:
		closer = r
	case cAllIn:
		closer, _ = s.copyDedupe(r, bb)
	default:
		closer = s.emitClip(r, true)
	}
	switch {
	case allOut:
		kept = PolyRef{Off: len(s.XS)}
	case allIn && trusted:
		kept, keptSame = r, true
	default:
		kept = s.emitClip(r, false)
		if allIn && kept.N == r.N {
			s.XS = s.XS[:kept.Off]
			s.YS = s.YS[:kept.Off]
			kept, keptSame = r, true
		}
	}
	return kept, closer, keptSame
}
