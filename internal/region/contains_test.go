package region_test

import (
	"math/rand"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/scenario"
)

// crossingRef is the even-odd crossing rule, written out as the reference
// for the containment tests below.
func crossingRef(p geom.Polygon, q geom.Point) bool {
	n := len(p)
	inside := false
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			if q.X < a.X+(q.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X) {
				inside = !inside
			}
		}
	}
	return inside
}

// containsRef is Polygon.Contains in its boundary-first form.
func containsRef(p geom.Polygon, q geom.Point) bool {
	if len(p) < 3 {
		return false
	}
	if p.OnBoundary(q) {
		return true
	}
	return crossingRef(p, q)
}

// regionContainsRef is Region.Contains with every polygon test in its
// boundary-first form.
func regionContainsRef(r *region.Region, q geom.Point) bool {
	if !r.BBox().Contains(q) || !containsRef(r.Outer(), q) {
		return false
	}
	for _, h := range r.Holes() {
		if containsRef(h, q) && !h.OnBoundary(q) {
			return false
		}
	}
	return true
}

// containmentProbes returns test points for the polygons polys: every
// vertex, every edge midpoint, points within 1e-12 of each edge on both
// sides (at the midpoint and at a random parameter), and uniform points
// over the box b grown by a tenth of its size.
func containmentProbes(rng *rand.Rand, polys []geom.Polygon, b geom.BBox) []geom.Point {
	var pts []geom.Point
	for _, p := range polys {
		n := len(p)
		for i := 0; i < n; i++ {
			a, c := p[i], p[(i+1)%n]
			d := c.Sub(a)
			nrm := geom.Pt(-d.Y, d.X).Scale(1 / d.Norm())
			pts = append(pts, a, a.Mid(c))
			for _, s := range []float64{0.5, rng.Float64()} {
				on := a.Add(d.Scale(s))
				for _, off := range []float64{-1e-12, -3e-13, 3e-13, 1e-12} {
					pts = append(pts, on.Add(nrm.Scale(off)))
				}
			}
		}
	}
	w, h := b.Width(), b.Height()
	for i := 0; i < 2000; i++ {
		pts = append(pts, geom.Pt(b.Min.X-0.1*w+1.2*w*rng.Float64(), b.Min.Y-0.1*h+1.2*h*rng.Float64()))
	}
	return pts
}

// TestContainsMatchesBoundaryFirst requires Polygon.Contains,
// Polygon.ContainsStrictly and Region.Contains to answer exactly as the
// boundary-first forms do, for every registered region's outer polygon,
// holes and convex pieces, at vertices, edge midpoints, points within
// 1e-12 of edges and hole boundaries, and random points.
func TestContainsMatchesBoundaryFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, name := range scenario.RegionNames() {
		r, err := scenario.LookupRegion(name)
		if err != nil {
			t.Fatal(err)
		}
		polys := append([]geom.Polygon{r.Outer()}, r.Holes()...)
		pts := containmentProbes(rng, polys, r.BBox())
		// Boundary points the crossing rule places outside (Contains must
		// still say yes) and inside (ContainsStrictly must say no).
		var outside, inside int
		for _, q := range pts {
			for pi, p := range append(polys, r.Pieces()...) {
				if got, want := p.Contains(q), containsRef(p, q); got != want {
					t.Fatalf("%s polygon %d at %v: Contains %v, boundary-first %v", name, pi, q, got, want)
				}
				if got, want := p.ContainsStrictly(q), containsRef(p, q) && !p.OnBoundary(q); got != want {
					t.Fatalf("%s polygon %d at %v: ContainsStrictly %v, reference %v", name, pi, q, got, want)
				}
				if p.OnBoundary(q) {
					if crossingRef(p, q) {
						inside++
					} else {
						outside++
					}
				}
			}
			if got, want := r.Contains(q), regionContainsRef(r, q); got != want {
				t.Fatalf("%s at %v: Region.Contains %v, boundary-first %v", name, q, got, want)
			}
		}
		if outside == 0 || inside == 0 {
			t.Fatalf("%s: boundary probes %d outside and %d inside by crossing, want both", name, outside, inside)
		}
	}
}
