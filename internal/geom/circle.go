package geom

import (
	"fmt"
	"math"
)

// Circle is a disk described by its center and radius. The zero value is the
// degenerate disk {origin}.
type Circle struct {
	Center Point
	R      float64
}

// Contains reports whether p lies inside or on the circle, within tolerance.
func (c Circle) Contains(p Point) bool {
	return c.Center.Dist2(p) <= (c.R+Eps)*(c.R+Eps)
}

// ContainsAll reports whether every point in pts lies inside or on c.
func (c Circle) ContainsAll(pts []Point) bool {
	for _, p := range pts {
		if !c.Contains(p) {
			return false
		}
	}
	return true
}

// Area returns the disk area πR².
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// String implements fmt.Stringer.
func (c Circle) String() string {
	return fmt.Sprintf("circle{c=%v r=%.6g}", c.Center, c.R)
}

// CircleFrom2 returns the smallest circle through a and b (diameter circle).
func CircleFrom2(a, b Point) Circle {
	return Circle{Center: a.Mid(b), R: a.Dist(b) / 2}
}

// CircleFrom3 returns the circumcircle of the triangle abc. If the points
// are (nearly) collinear it falls back to the smallest circle spanning the
// two farthest of the three points, which is the correct smallest enclosing
// circle for a degenerate triple.
func CircleFrom3(a, b, c Point) Circle {
	// Solve for the circumcenter via the perpendicular-bisector linear
	// system expressed relative to a for numerical stability.
	bx, by := b.X-a.X, b.Y-a.Y
	cx, cy := c.X-a.X, c.Y-a.Y
	d := 2 * (bx*cy - by*cx)
	scale := (math.Abs(bx)+math.Abs(by))*(math.Abs(cx)+math.Abs(cy)) + 1
	if math.Abs(d) <= Eps*scale {
		// Degenerate: collinear points. The smallest enclosing circle is the
		// diameter circle of the farthest pair.
		ab, ac, bc := a.Dist2(b), a.Dist2(c), b.Dist2(c)
		switch {
		case ab >= ac && ab >= bc:
			return CircleFrom2(a, b)
		case ac >= bc:
			return CircleFrom2(a, c)
		default:
			return CircleFrom2(b, c)
		}
	}
	b2 := bx*bx + by*by
	c2 := cx*cx + cy*cy
	ux := (cy*b2 - by*c2) / d
	uy := (bx*c2 - cx*b2) / d
	center := Point{a.X + ux, a.Y + uy}
	return Circle{Center: center, R: center.Dist(a)}
}

// SamplePointsOnCircle returns n points evenly spaced on the circle boundary
// starting at angle phase (radians).
func SamplePointsOnCircle(c Circle, n int, phase float64) []Point {
	if n <= 0 {
		return nil
	}
	return AppendCirclePoints(make([]Point, 0, n), c, n, phase)
}

// AppendCirclePoints appends n points evenly spaced on the circle boundary
// to dst and returns it — the allocation-free form of SamplePointsOnCircle
// for callers with a reusable buffer.
func AppendCirclePoints(dst []Point, c Circle, n int, phase float64) []Point {
	pts := dst
	for i := 0; i < n; i++ {
		th := phase + 2*math.Pi*float64(i)/float64(n)
		pts = append(pts, Point{
			X: c.Center.X + c.R*math.Cos(th),
			Y: c.Center.Y + c.R*math.Sin(th),
		})
	}
	return pts
}

// CircleTable holds the unit directions of n points evenly spaced on a
// circle from angle phase — the cosines and sines AppendCirclePoints
// evaluates on every call, computed once. It is read-only after
// construction, so goroutines share one table without locking.
type CircleTable struct {
	dirs []Point // (cos θ_i, sin θ_i)
}

// NewCircleTable returns the table of n directions starting at angle phase
// (radians), with the angles computed exactly as AppendCirclePoints
// computes them.
func NewCircleTable(n int, phase float64) CircleTable {
	dirs := make([]Point, n)
	for i := range dirs {
		th := phase + 2*math.Pi*float64(i)/float64(n)
		dirs[i] = Point{math.Cos(th), math.Sin(th)}
	}
	return CircleTable{dirs: dirs}
}

// Len returns the number of directions in the table.
func (t CircleTable) Len() int { return len(t.dirs) }

// Point returns sample i on the circle c — bitwise equal to the i-th point
// AppendCirclePoints(dst, c, t.Len(), phase) appends, because it evaluates
// the same expression over the same direction values.
func (t CircleTable) Point(c Circle, i int) Point {
	d := t.dirs[i]
	return Point{
		X: c.Center.X + c.R*d.X,
		Y: c.Center.Y + c.R*d.Y,
	}
}

// AppendPoints appends every sample on the circle c to dst and returns it —
// AppendCirclePoints(dst, c, t.Len(), phase) without the trigonometry.
func (t CircleTable) AppendPoints(dst []Point, c Circle) []Point {
	for i := range t.dirs {
		dst = append(dst, t.Point(c, i))
	}
	return dst
}
