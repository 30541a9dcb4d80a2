package geom

import (
	"math"
)

// Polygon is a simple polygon given by its vertices in counter-clockwise
// order. Most operations in this package produce and consume convex
// polygons (Voronoi cells and their clips), but Area, Centroid, Contains and
// bounding boxes are valid for any simple polygon.
type Polygon []Point

// Clone returns a deep copy of the polygon.
func (p Polygon) Clone() Polygon {
	out := make(Polygon, len(p))
	copy(out, p)
	return out
}

// Area returns the (positive) area of the polygon via the shoelace formula.
// It returns the absolute value so it is orientation-agnostic.
func (p Polygon) Area() float64 { return math.Abs(p.SignedArea()) }

// SignedArea returns the signed shoelace area: positive for counter-
// clockwise orientation, negative for clockwise.
func (p Polygon) SignedArea() float64 {
	if len(p) < 3 {
		return 0
	}
	var s float64
	for i := range p {
		j := (i + 1) % len(p)
		s += p[i].Cross(p[j])
	}
	return s / 2
}

// IsCCW reports whether the polygon is counter-clockwise oriented.
func (p Polygon) IsCCW() bool { return p.SignedArea() >= 0 }

// Reverse reverses vertex order in place and returns p.
func (p Polygon) Reverse() Polygon {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// EnsureCCW returns the polygon with counter-clockwise orientation,
// reversing in place if necessary.
func (p Polygon) EnsureCCW() Polygon {
	if !p.IsCCW() {
		p.Reverse()
	}
	return p
}

// Centroid returns the area centroid of the polygon. For degenerate
// (zero-area) polygons it falls back to the vertex mean.
func (p Polygon) Centroid() Point {
	if len(p) == 0 {
		panic("geom: Centroid of empty polygon")
	}
	a := p.SignedArea()
	if math.Abs(a) < Eps {
		return Centroid(p)
	}
	var cx, cy float64
	for i := range p {
		j := (i + 1) % len(p)
		w := p[i].Cross(p[j])
		cx += (p[i].X + p[j].X) * w
		cy += (p[i].Y + p[j].Y) * w
	}
	return Point{cx / (6 * a), cy / (6 * a)}
}

// BBox returns the axis-aligned bounding box of the polygon.
func (p Polygon) BBox() BBox { return BBoxOf(p) }

// Contains reports whether q lies inside or on the boundary of the simple
// polygon, using the crossing rule with boundary tolerance. The answer is
// OnBoundary(q) || crossing(q); the crossing test runs first because it is
// cheap and decides most points, and the boundary test (a square root per
// edge) runs only for points the crossing test places outside.
func (p Polygon) Contains(q Point) bool {
	if len(p) < 3 {
		return false
	}
	return p.crossing(q) || p.OnBoundary(q)
}

// ContainsStrictly reports whether q lies inside the simple polygon and not
// on its boundary within tolerance: Contains(q) && !OnBoundary(q), with the
// boundary test run only for points inside by the crossing rule. A region
// excludes exactly these points of an obstacle hole.
func (p Polygon) ContainsStrictly(q Point) bool {
	if len(p) < 3 {
		return false
	}
	return p.crossing(q) && !p.OnBoundary(q)
}

// crossing is the even-odd crossing test: whether a ray from q toward +x
// crosses the polygon's edges an odd number of times.
func (p Polygon) crossing(q Point) bool {
	inside := false
	a := p[len(p)-1]
	for _, b := range p {
		if (a.Y > q.Y) != (b.Y > q.Y) {
			xCross := a.X + (q.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if q.X < xCross {
				inside = !inside
			}
		}
		a = b
	}
	return inside
}

// OnBoundary reports whether q lies on an edge of the polygon within
// tolerance.
func (p Polygon) OnBoundary(q Point) bool {
	n := len(p)
	for i := 0; i < n; i++ {
		if PointOnSegment(q, p[i], p[(i+1)%n]) {
			return true
		}
	}
	return false
}

// Perimeter returns the total edge length of the polygon.
func (p Polygon) Perimeter() float64 {
	var s float64
	n := len(p)
	for i := 0; i < n; i++ {
		s += p[i].Dist(p[(i+1)%n])
	}
	return s
}

// MaxDistFrom returns the largest distance from q to any vertex of the
// polygon. For a convex polygon this is the farthest distance from q to any
// point of the polygon; LAACAD uses it as the circumradius of a dominating
// region about a node position.
func (p Polygon) MaxDistFrom(q Point) float64 {
	var m float64
	for _, v := range p {
		if d := q.Dist(v); d > m {
			m = d
		}
	}
	return m
}

// ClipHalfPlane clips the convex polygon against the closed half-plane h
// (Sutherland–Hodgman, single plane). The result is convex and CCW if the
// input was. An empty result means the polygon lies strictly outside h.
func (p Polygon) ClipHalfPlane(h HalfPlane) Polygon {
	out := p.ClipHalfPlaneInto(make(Polygon, 0, len(p)+2), h)
	if len(out) < 3 {
		return nil
	}
	return out
}

// ClipHalfPlaneInto is the allocation-free form of ClipHalfPlane: it writes
// the clipped polygon into dst[:0] (growing it only if its capacity is too
// small) and returns the result, which may have fewer than 3 vertices when
// the polygon is clipped away. dst must not alias p. Reusing dst across
// calls lets hot loops (the dominating-region kernel) clip without heap
// allocation.
func (p Polygon) ClipHalfPlaneInto(dst Polygon, h HalfPlane) Polygon {
	dst = dst[:0]
	n := len(p)
	if n == 0 {
		return dst
	}
	// Tolerance scaled by normal magnitude and coordinate size keeps the
	// classification stable for raw (unnormalized) bisector coefficients.
	prev := p[n-1]
	prevVal := h.Eval(prev)
	nNorm := h.N.Norm()
	prevIn := prevVal <= Eps*(1+nNorm*(1+prev.Norm()))
	for i := 0; i < n; i++ {
		cur := p[i]
		curVal := h.Eval(cur)
		curIn := curVal <= Eps*(1+nNorm*(1+cur.Norm()))
		switch {
		case prevIn && curIn:
			dst = append(dst, cur)
		case prevIn && !curIn:
			dst = append(dst, intersectEdgePlane(prev, cur, prevVal, curVal))
		case !prevIn && curIn:
			dst = append(dst, intersectEdgePlane(prev, cur, prevVal, curVal), cur)
		}
		prev, prevVal, prevIn = cur, curVal, curIn
	}
	return dedupeInPlace(dst)
}

// ClipConvex clips the convex polygon against another convex polygon
// (intersection of convex sets). Both inputs must be CCW.
func (p Polygon) ClipConvex(clip Polygon) Polygon {
	out := p
	n := len(clip)
	for i := 0; i < n && len(out) > 0; i++ {
		out = out.ClipHalfPlane(HalfPlaneFromEdge(clip[i], clip[(i+1)%n]))
	}
	return out
}

// intersectEdgePlane returns the point where segment a→b crosses the
// half-plane boundary, given the precomputed signed values va, vb at the
// endpoints (which must have opposite signs).
func intersectEdgePlane(a, b Point, va, vb float64) Point {
	t := va / (va - vb)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Lerp(b, t)
}

// dedupeInPlace removes consecutive (near-)duplicate vertices, compacting p
// in place. The result may have fewer than 3 vertices (a polygon clipped
// away); it always shares p's backing array, so capacity is preserved for
// buffer reuse.
func dedupeInPlace(p Polygon) Polygon {
	if len(p) == 0 {
		return p
	}
	// Tolerance proportional to polygon size avoids collapsing legitimate
	// short edges of tiny cells while removing clip artifacts.
	tol := Eps * (1 + p.BBox().Diagonal())
	out := p[:0]
	for _, v := range p {
		if len(out) == 0 || !out[len(out)-1].EqTol(v, tol) {
			out = append(out, v)
		}
	}
	for len(out) >= 2 && out[0].EqTol(out[len(out)-1], tol) {
		out = out[:len(out)-1]
	}
	return out
}

// RectPolygon returns the CCW rectangle polygon for the bounding box b.
func RectPolygon(b BBox) Polygon {
	return Polygon{
		{b.Min.X, b.Min.Y},
		{b.Max.X, b.Min.Y},
		{b.Max.X, b.Max.Y},
		{b.Min.X, b.Max.Y},
	}
}

// RegularPolygon returns an n-gon inscribed in the circle c, starting at
// angle phase. It panics if n < 3.
func RegularPolygon(c Circle, n int, phase float64) Polygon {
	if n < 3 {
		panic("geom: RegularPolygon needs n >= 3")
	}
	return Polygon(SamplePointsOnCircle(c, n, phase))
}

// PointOnSegment reports whether q lies on the closed segment a–b within
// tolerance.
func PointOnSegment(q, a, b Point) bool {
	d := b.Sub(a)
	l2 := d.Norm2()
	if l2 < Eps*Eps {
		return q.EqTol(a, Eps)
	}
	t := q.Sub(a).Dot(d) / l2
	if t < -Eps || t > 1+Eps {
		return false
	}
	proj := a.Add(d.Scale(t))
	return q.Dist(proj) <= Eps*(1+math.Sqrt(l2))
}

// SegmentIntersection returns the intersection point of closed segments
// a1–a2 and b1–b2 and ok=false if they do not intersect or are (nearly)
// parallel.
func SegmentIntersection(a1, a2, b1, b2 Point) (Point, bool) {
	r := a2.Sub(a1)
	s := b2.Sub(b1)
	denom := r.Cross(s)
	scale := r.Norm()*s.Norm() + 1
	if math.Abs(denom) <= Eps*scale {
		return Point{}, false
	}
	qp := b1.Sub(a1)
	t := qp.Cross(s) / denom
	u := qp.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return Point{}, false
	}
	return a1.Add(r.Scale(t)), true
}
