// Package region models the targeted area A that a wireless sensor network
// must k-cover: a simple (possibly non-convex) outer polygon with optional
// convex obstacle holes that mobile nodes cannot move onto (Fig. 8 in the
// paper).
//
// Internally a Region is decomposed once into disjoint convex pieces
// (ear-clipping triangulation of the outer polygon followed by sequential
// convex-hole subtraction). All geometric queries — containment, area,
// clipping a convex Voronoi cell to the region — run against that
// decomposition, which keeps every downstream computation in the convex
// world where half-plane clipping is exact.
package region

import (
	"fmt"
	"math"
	"math/rand"

	"laacad/internal/geom"
)

// Region is a targeted area: an outer boundary polygon minus a set of convex
// holes (obstacles). Construct with New; the zero value is not usable.
type Region struct {
	outer  geom.Polygon
	holes  []geom.Polygon
	pieces []geom.Polygon // disjoint convex decomposition of outer − holes
	boxes  []geom.BBox    // boxes[i] is the bounding box of pieces[i]
	bbox   geom.BBox
	area   float64
}

// New builds a Region from a simple outer polygon and optional holes.
// The outer polygon may be non-convex; orientation is normalized. Each hole
// must be convex (non-convex obstacles can be modeled as several overlapping
// convex holes). New returns an error if the outer polygon is degenerate or
// a hole is not convex.
func New(outer geom.Polygon, holes ...geom.Polygon) (*Region, error) {
	if len(outer) < 3 {
		return nil, fmt.Errorf("region: outer polygon needs >= 3 vertices, got %d", len(outer))
	}
	o := outer.Clone().EnsureCCW()
	if o.Area() <= geom.Eps {
		return nil, fmt.Errorf("region: outer polygon has zero area")
	}
	tris, err := Triangulate(o)
	if err != nil {
		return nil, fmt.Errorf("region: triangulating outer polygon: %w", err)
	}
	pieces := tris
	normHoles := make([]geom.Polygon, 0, len(holes))
	for i, h := range holes {
		hc := h.Clone().EnsureCCW()
		if len(hc) < 3 {
			return nil, fmt.Errorf("region: hole %d needs >= 3 vertices", i)
		}
		if !isConvex(hc) {
			return nil, fmt.Errorf("region: hole %d is not convex", i)
		}
		normHoles = append(normHoles, hc)
		pieces = subtractConvex(pieces, hc)
	}
	var area float64
	boxes := make([]geom.BBox, len(pieces))
	for i, p := range pieces {
		area += p.Area()
		boxes[i] = p.BBox()
	}
	r := &Region{
		outer:  o,
		holes:  normHoles,
		pieces: pieces,
		boxes:  boxes,
		bbox:   o.BBox(),
		area:   area,
	}
	return r, nil
}

// MustNew is New but panics on error; convenient for static region literals
// in examples and tests.
func MustNew(outer geom.Polygon, holes ...geom.Polygon) *Region {
	r, err := New(outer, holes...)
	if err != nil {
		panic(err)
	}
	return r
}

// Rect returns the rectangular region [x0,x1]×[y0,y1].
func Rect(x0, y0, x1, y1 float64) *Region {
	return MustNew(geom.RectPolygon(geom.BBox{Min: geom.Pt(x0, y0), Max: geom.Pt(x1, y1)}))
}

// UnitSquareKm returns the 1 km² targeted area used throughout the paper's
// evaluation (coordinates in km).
func UnitSquareKm() *Region { return Rect(0, 0, 1, 1) }

// Outer returns the outer boundary polygon (CCW). Callers must not modify
// the returned slice.
func (r *Region) Outer() geom.Polygon { return r.outer }

// Holes returns the obstacle polygons (CCW). Callers must not modify them.
func (r *Region) Holes() []geom.Polygon { return r.holes }

// Pieces returns the disjoint convex decomposition of the region. Callers
// must not modify the returned polygons.
func (r *Region) Pieces() []geom.Polygon { return r.pieces }

// PieceBoxes returns the bounding boxes of the pieces, index-aligned with
// Pieces. Callers must not modify the returned slice.
func (r *Region) PieceBoxes() []geom.BBox { return r.boxes }

// BBox returns the bounding box of the outer polygon.
func (r *Region) BBox() geom.BBox { return r.bbox }

// Area returns the area of the region (outer minus holes).
func (r *Region) Area() float64 { return r.area }

// Contains reports whether p lies in the region: inside the outer polygon
// and not strictly inside any hole. Points on hole boundaries count as
// inside the region.
func (r *Region) Contains(p geom.Point) bool {
	if !r.bbox.Contains(p) {
		return false
	}
	if !r.outer.Contains(p) {
		return false
	}
	for _, h := range r.holes {
		if h.ContainsStrictly(p) {
			return false
		}
	}
	return true
}

// ClipConvex intersects the convex polygon cell with the region and returns
// the (disjoint) convex pieces of the intersection. The result is empty if
// the cell lies outside the region.
func (r *Region) ClipConvex(cell geom.Polygon) []geom.Polygon {
	if len(cell) < 3 {
		return nil
	}
	cb := cell.BBox()
	var out []geom.Polygon
	for i, piece := range r.pieces {
		pb := r.boxes[i]
		if cb.Min.X > pb.Max.X || cb.Max.X < pb.Min.X ||
			cb.Min.Y > pb.Max.Y || cb.Max.Y < pb.Min.Y {
			continue
		}
		if clipped := cell.ClipConvex(piece); len(clipped) >= 3 && clipped.Area() > areaEps(r) {
			out = append(out, clipped)
		}
	}
	return out
}

// areaEps is the area below which a clip fragment is considered numerical
// noise, scaled to the region size.
func areaEps(r *Region) float64 { return 1e-12 * (1 + r.area) }

// DistToBoundary returns the distance from p to the nearest boundary of the
// region (outer edges or hole edges). It does not require p to be inside.
func (r *Region) DistToBoundary(p geom.Point) float64 {
	best := math.Inf(1)
	scan := func(poly geom.Polygon) {
		n := len(poly)
		for i := 0; i < n; i++ {
			if d := distToSegment(p, poly[i], poly[(i+1)%n]); d < best {
				best = d
			}
		}
	}
	scan(r.outer)
	for _, h := range r.holes {
		scan(h)
	}
	return best
}

// ClampInside returns p if p is in the region; otherwise the nearest point
// of the region's convex decomposition to p. It is used to keep node motion
// targets legal (a Chebyshev center can fall inside an obstacle).
func (r *Region) ClampInside(p geom.Point) geom.Point {
	if r.Contains(p) {
		return p
	}
	best := p
	bestD := math.Inf(1)
	for _, piece := range r.pieces {
		q := nearestPointInConvex(p, piece)
		if d := p.Dist2(q); d < bestD {
			bestD = d
			best = q
		}
	}
	return best
}

// RandomPoint returns a uniformly distributed point inside the region, via
// piece-area-weighted triangle sampling.
func (r *Region) RandomPoint(rng *rand.Rand) geom.Point {
	target := rng.Float64() * r.area
	var acc float64
	for _, piece := range r.pieces {
		acc += piece.Area()
		if target <= acc {
			return randomPointInConvex(piece, rng)
		}
	}
	return randomPointInConvex(r.pieces[len(r.pieces)-1], rng)
}

// GridPoints returns the points of a resolution×resolution grid over the
// region bounding box that fall inside the region. It is the sampling basis
// for coverage verification.
func (r *Region) GridPoints(resolution int) []geom.Point {
	if resolution < 2 {
		resolution = 2
	}
	pts := make([]geom.Point, 0, resolution*resolution)
	w, h := r.bbox.Width(), r.bbox.Height()
	for i := 0; i < resolution; i++ {
		// Offset by half a cell so samples sit at cell centers, away from
		// boundary degeneracies.
		x := r.bbox.Min.X + (float64(i)+0.5)*w/float64(resolution)
		for j := 0; j < resolution; j++ {
			y := r.bbox.Min.Y + (float64(j)+0.5)*h/float64(resolution)
			p := geom.Pt(x, y)
			if r.Contains(p) {
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// isConvex reports whether the CCW polygon p is convex (allowing collinear
// vertices).
func isConvex(p geom.Polygon) bool {
	n := len(p)
	for i := 0; i < n; i++ {
		if geom.Orientation(p[i], p[(i+1)%n], p[(i+2)%n]) < 0 {
			return false
		}
	}
	return true
}

// subtractConvex removes the convex hole h from each convex piece, returning
// a new list of disjoint convex pieces covering pieces − h.
func subtractConvex(pieces []geom.Polygon, h geom.Polygon) []geom.Polygon {
	var out []geom.Polygon
	for _, piece := range pieces {
		remaining := piece
		for i := 0; i < len(h) && len(remaining) >= 3; i++ {
			edge := geom.HalfPlaneFromEdge(h[i], h[(i+1)%len(h)])
			// The part of `remaining` outside this hole edge is definitely
			// outside the hole: keep it as a final piece.
			if outside := remaining.ClipHalfPlane(edge.Complement()); len(outside) >= 3 && outside.Area() > 1e-14 {
				out = append(out, outside)
			}
			remaining = remaining.ClipHalfPlane(edge)
		}
		// Whatever survived all edges lies inside the hole: discard.
	}
	return out
}

// distToSegment returns the distance from p to the closed segment a–b.
func distToSegment(p, a, b geom.Point) float64 {
	d := b.Sub(a)
	l2 := d.Norm2()
	if l2 < geom.Eps*geom.Eps {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(d.Scale(t)))
}

// nearestPointInConvex returns the point of the convex polygon nearest to p.
func nearestPointInConvex(p geom.Point, poly geom.Polygon) geom.Point {
	if poly.Contains(p) {
		return p
	}
	best := poly[0]
	bestD := math.Inf(1)
	n := len(poly)
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		d := b.Sub(a)
		l2 := d.Norm2()
		var q geom.Point
		if l2 < geom.Eps*geom.Eps {
			q = a
		} else {
			t := p.Sub(a).Dot(d) / l2
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			q = a.Add(d.Scale(t))
		}
		if dd := p.Dist2(q); dd < bestD {
			bestD = dd
			best = q
		}
	}
	return best
}

// randomPointInConvex samples uniformly from a convex polygon via fan
// triangulation + triangle sampling.
func randomPointInConvex(poly geom.Polygon, rng *rand.Rand) geom.Point {
	total := poly.Area()
	target := rng.Float64() * total
	var acc float64
	for i := 1; i < len(poly)-1; i++ {
		a, b, c := poly[0], poly[i], poly[i+1]
		triArea := math.Abs(b.Sub(a).Cross(c.Sub(a))) / 2
		acc += triArea
		if target <= acc || i == len(poly)-2 {
			// Uniform point in triangle abc.
			u, v := rng.Float64(), rng.Float64()
			if u+v > 1 {
				u, v = 1-u, 1-v
			}
			return a.Add(b.Sub(a).Scale(u)).Add(c.Sub(a).Scale(v))
		}
	}
	return poly[0]
}
