package geom

import "fmt"

// HalfPlane represents the closed half-plane {p : N·p ≤ C}, i.e. the set of
// points on the non-positive side of the directed line N·p = C. N need not
// be normalized, but predicates scale tolerances with ‖N‖ so callers may
// pass raw bisector coefficients.
type HalfPlane struct {
	N Point   // outward normal
	C float64 // offset: interior satisfies N·p ≤ C
}

// String implements fmt.Stringer.
func (h HalfPlane) String() string {
	return fmt.Sprintf("halfplane{%.6g·x + %.6g·y ≤ %.6g}", h.N.X, h.N.Y, h.C)
}

// Eval returns the signed value N·p − C (negative inside, positive outside).
func (h HalfPlane) Eval(p Point) float64 { return h.N.Dot(p) - h.C }

// Complement returns the closed complement half-plane {p : N·p ≥ C},
// expressed as {p : (−N)·p ≤ −C}. The shared boundary line belongs to both,
// which is the correct convention for partitioning by a bisector: measure-
// zero overlap does not affect any area computation.
func (h HalfPlane) Complement() HalfPlane {
	return HalfPlane{N: h.N.Scale(-1), C: -h.C}
}

// HalfPlaneFromEdge returns the half-plane to the left of the directed edge
// a→b. A counter-clockwise polygon is the intersection of the half-planes of
// its directed edges.
func HalfPlaneFromEdge(a, b Point) HalfPlane {
	d := b.Sub(a)
	// Left of a→b means cross(d, p−a) ≥ 0  ⇔  (−d.Y, d.X)·p ≥ (−d.Y, d.X)·a
	// ⇔ (d.Y, −d.X)·p ≤ (d.Y, −d.X)·a.
	n := Point{d.Y, -d.X}
	return HalfPlane{N: n, C: n.Dot(a)}
}

// Bisector returns the half-plane of points at least as close to a as to b:
// {p : ‖p−a‖ ≤ ‖p−b‖}. It panics if a and b coincide (the bisector is
// undefined).
func Bisector(a, b Point) HalfPlane {
	if a.Eq(b) {
		panic(fmt.Sprintf("geom: Bisector of coincident points %v", a))
	}
	// ‖p−a‖² ≤ ‖p−b‖²  ⇔  2(b−a)·p ≤ ‖b‖² − ‖a‖²
	n := b.Sub(a).Scale(2)
	return HalfPlane{N: n, C: b.Norm2() - a.Norm2()}
}
