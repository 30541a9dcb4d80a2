package geom

import "math"

// SmallestEnclosingCircle computes the minimum enclosing circle of pts using
// Welzl's randomized incremental algorithm [Welzl 1991], the method the
// LAACAD paper prescribes for computing Chebyshev centers of dominating
// regions (the Chebyshev center of a polygon is the center of the smallest
// circle enclosing its vertices).
//
// The insertion order that gives the algorithm its expected-O(n) running
// time is a deterministic permutation derived purely from the input
// vertices (a splitmix64-keyed Fisher–Yates shuffle seeded by hashing the
// coordinate bits), so the function is a pure value-level function of pts:
// the same vertex sequence always produces the bit-identical circle, on any
// machine, with no RNG state threaded through callers. This is what makes
// the deployment engine's round outcomes cacheable.
//
// Degenerate inputs are handled: an empty slice yields the zero circle and a
// single point yields a zero-radius circle at that point.
func SmallestEnclosingCircle(pts []Point) Circle {
	switch len(pts) {
	case 0:
		return Circle{}
	case 1:
		return Circle{Center: pts[0]}
	case 2:
		return CircleFrom2(pts[0], pts[1])
	}
	shuffled := make([]Point, len(pts))
	copy(shuffled, pts)
	return SmallestEnclosingCircleInPlace(shuffled)
}

// SmallestEnclosingCircleInPlace is the allocation-free form of
// SmallestEnclosingCircle: it permutes pts in place (the deterministic
// insertion-order shuffle) and computes the circle directly over the
// permuted slice. Callers that own a scratch copy of the vertices — the
// dominating-region hot path — use this to avoid the defensive copy.
func SmallestEnclosingCircleInPlace(pts []Point) Circle {
	switch len(pts) {
	case 0:
		return Circle{}
	case 1:
		return Circle{Center: pts[0]}
	case 2:
		return CircleFrom2(pts[0], pts[1])
	}
	permuteDeterministic(pts)
	c := Circle{Center: pts[0]}
	for i := 1; i < len(pts); i++ {
		if !c.Contains(pts[i]) {
			c = secWithOnePoint(pts[:i], pts[i])
		}
	}
	return c
}

// permuteDeterministic applies a Fisher–Yates shuffle to pts whose swap
// indices come from a splitmix64 stream seeded by hashing the coordinate
// bits of the input. The permutation is a pure function of the vertex
// sequence: statistically random enough to preserve Welzl's expected-O(n)
// bound, yet bit-reproducible without any external RNG.
func permuteDeterministic(pts []Point) {
	state := Mix64(0x9E3779B97F4A7C15 ^ uint64(len(pts)))
	for _, p := range pts {
		state = Mix64(state ^ math.Float64bits(p.X))
		state = Mix64(state ^ math.Float64bits(p.Y))
	}
	for i := len(pts) - 1; i > 0; i-- {
		state += 0x9E3779B97F4A7C15
		j := int(Finalize64(state) % uint64(i+1))
		pts[i], pts[j] = pts[j], pts[i]
	}
}

// Mix64 is the splitmix64 increment-then-finalize step — a bijective
// avalanche mix. It seeds the deterministic-Welzl shuffle here and the
// per-node RNG streams in the deployment engine (one shared definition, so
// the two can never drift).
func Mix64(x uint64) uint64 { return Finalize64(x + 0x9E3779B97F4A7C15) }

// Finalize64 is the splitmix64 output finalizer [Steele, Lea, Flood 2014].
func Finalize64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// secWithOnePoint returns the smallest circle enclosing pts that has q on
// its boundary.
func secWithOnePoint(pts []Point, q Point) Circle {
	c := Circle{Center: q}
	for i := 0; i < len(pts); i++ {
		if !c.Contains(pts[i]) {
			c = secWithTwoPoints(pts[:i], pts[i], q)
		}
	}
	return c
}

// secWithTwoPoints returns the smallest circle enclosing pts that has both
// q1 and q2 on its boundary.
func secWithTwoPoints(pts []Point, q1, q2 Point) Circle {
	c := CircleFrom2(q1, q2)
	for i := 0; i < len(pts); i++ {
		if !c.Contains(pts[i]) {
			c = CircleFrom3(q1, q2, pts[i])
		}
	}
	return c
}

// ChebyshevCenterInPlace returns the Chebyshev center (Definition 2 in the
// paper) of the point set pts — the point minimizing the maximum distance to
// any point of the set — together with that maximum distance. It is the
// center and radius of the smallest enclosing circle, computed by
// SmallestEnclosingCircleInPlace: pts is permuted in place, so pass a
// scratch buffer (callers copy a region's vertices into one with
// voronoi.VerticesInto). Like SmallestEnclosingCircle it is a pure,
// deterministic function of the point set.
func ChebyshevCenterInPlace(pts []Point) (Point, float64) {
	c := SmallestEnclosingCircleInPlace(pts)
	return c.Center, c.R
}
