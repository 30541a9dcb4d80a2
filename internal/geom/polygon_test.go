package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func unitSquare() Polygon {
	return Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
}

func TestPolygonArea(t *testing.T) {
	tests := []struct {
		name string
		p    Polygon
		want float64
	}{
		{"unit square", unitSquare(), 1},
		{"triangle", Polygon{Pt(0, 0), Pt(2, 0), Pt(0, 2)}, 2},
		{"clockwise square", Polygon{Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0)}, 1},
		{"degenerate 2pt", Polygon{Pt(0, 0), Pt(1, 1)}, 0},
		{"empty", nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Area(); math.Abs(got-tt.want) > Eps {
				t.Errorf("Area = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSignedAreaOrientation(t *testing.T) {
	ccw := unitSquare()
	if ccw.SignedArea() <= 0 || !ccw.IsCCW() {
		t.Error("CCW square misclassified")
	}
	cw := ccw.Clone().Reverse()
	if cw.SignedArea() >= 0 || cw.IsCCW() {
		t.Error("CW square misclassified")
	}
	if !cw.EnsureCCW().IsCCW() {
		t.Error("EnsureCCW failed")
	}
}

func TestPolygonCentroid(t *testing.T) {
	if got := unitSquare().Centroid(); !got.Eq(Pt(0.5, 0.5)) {
		t.Errorf("square centroid = %v", got)
	}
	tri := Polygon{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	if got := tri.Centroid(); !got.Eq(Pt(1, 1)) {
		t.Errorf("triangle centroid = %v", got)
	}
	// Degenerate polygon falls back to vertex mean.
	line := Polygon{Pt(0, 0), Pt(2, 0), Pt(4, 0)}
	if got := line.Centroid(); !got.Eq(Pt(2, 0)) {
		t.Errorf("degenerate centroid = %v", got)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := unitSquare()
	tests := []struct {
		name string
		q    Point
		want bool
	}{
		{"center", Pt(0.5, 0.5), true},
		{"outside right", Pt(1.5, 0.5), false},
		{"outside diag", Pt(-0.1, -0.1), false},
		{"on edge", Pt(1, 0.5), true},
		{"on vertex", Pt(0, 0), true},
		{"just inside", Pt(0.999999, 0.5), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sq.Contains(tt.q); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.q, got, tt.want)
			}
		})
	}
}

func TestPolygonPerimeterAndMaxDist(t *testing.T) {
	sq := unitSquare()
	if got := sq.Perimeter(); math.Abs(got-4) > Eps {
		t.Errorf("Perimeter = %v, want 4", got)
	}
	if got := sq.MaxDistFrom(Pt(0, 0)); math.Abs(got-math.Sqrt2) > Eps {
		t.Errorf("MaxDistFrom = %v, want sqrt2", got)
	}
}

func TestClipHalfPlane(t *testing.T) {
	sq := unitSquare()
	// Keep the left half: x <= 0.5.
	h := HalfPlane{N: Pt(1, 0), C: 0.5}
	clipped := sq.ClipHalfPlane(h)
	if math.Abs(clipped.Area()-0.5) > 1e-9 {
		t.Errorf("clipped area = %v, want 0.5", clipped.Area())
	}
	for _, v := range clipped {
		if v.X > 0.5+Eps {
			t.Errorf("vertex %v violates clip plane", v)
		}
	}
	// Clip that removes everything.
	gone := sq.ClipHalfPlane(HalfPlane{N: Pt(1, 0), C: -1})
	if len(gone) != 0 {
		t.Errorf("expected empty polygon, got %v", gone)
	}
	// Clip that keeps everything.
	all := sq.ClipHalfPlane(HalfPlane{N: Pt(1, 0), C: 2})
	if math.Abs(all.Area()-1) > 1e-9 {
		t.Errorf("full keep area = %v", all.Area())
	}
}

func TestClipHalfPlaneDiagonal(t *testing.T) {
	sq := unitSquare()
	// Keep below the diagonal y <= x: half the square.
	h := HalfPlane{N: Pt(-1, 1), C: 0}
	clipped := sq.ClipHalfPlane(h)
	if math.Abs(clipped.Area()-0.5) > 1e-9 {
		t.Errorf("diagonal clip area = %v, want 0.5", clipped.Area())
	}
}

func TestClipConvex(t *testing.T) {
	sq := unitSquare()
	tri := Polygon{Pt(0, 0), Pt(2, 0), Pt(0, 2)}
	inter := sq.ClipConvex(tri)
	// Square ∩ triangle(0,0)-(2,0)-(0,2) = square minus top-right triangle
	// above x+y=2... actually x+y<=2 cuts corner (1,1): area = 1 - 0 = 1?
	// x+y <= 2 holds everywhere in the unit square except nowhere (max=2 at
	// corner). So intersection is the whole square.
	if math.Abs(inter.Area()-1) > 1e-9 {
		t.Errorf("intersection area = %v, want 1", inter.Area())
	}
	tri2 := Polygon{Pt(0, 0), Pt(1, 0), Pt(0, 1)}
	inter2 := sq.ClipConvex(tri2)
	if math.Abs(inter2.Area()-0.5) > 1e-9 {
		t.Errorf("intersection2 area = %v, want 0.5", inter2.Area())
	}
}

func TestBisector(t *testing.T) {
	a, b := Pt(0, 0), Pt(2, 0)
	h := Bisector(a, b)
	if !h.Contains(Pt(0.5, 7)) {
		t.Error("point nearer a should be in bisector half-plane of a")
	}
	if h.Contains(Pt(1.5, -3)) {
		t.Error("point nearer b should not be in a's half-plane")
	}
	if !h.Contains(Pt(1, 5)) {
		t.Error("equidistant point should be contained (closed half-plane)")
	}
	comp := h.Complement()
	if !comp.Contains(Pt(1.5, -3)) || comp.Contains(Pt(0.5, 7)) {
		t.Error("complement misclassifies")
	}
}

func TestBisectorPanicsOnCoincident(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Bisector(Pt(1, 1), Pt(1, 1))
}

func TestHalfPlaneFromEdge(t *testing.T) {
	// Left of edge (0,0)->(1,0) is the upper half-plane y >= 0.
	h := HalfPlaneFromEdge(Pt(0, 0), Pt(1, 0))
	if !h.Contains(Pt(0.5, 1)) || h.Contains(Pt(0.5, -1)) {
		t.Error("HalfPlaneFromEdge misclassifies")
	}
	if !h.Contains(Pt(0.5, 0)) {
		t.Error("boundary should be contained")
	}
}

func TestSegmentIntersection(t *testing.T) {
	tests := []struct {
		name           string
		a1, a2, b1, b2 Point
		want           Point
		wantOK         bool
	}{
		{"cross", Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0), Pt(1, 1), true},
		{"miss", Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1), Point{}, false},
		{"parallel", Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1), Point{}, false},
		{"touch endpoint", Pt(0, 0), Pt(1, 1), Pt(1, 1), Pt(2, 0), Pt(1, 1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, ok := SegmentIntersection(tt.a1, tt.a2, tt.b1, tt.b2)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && !p.Eq(tt.want) {
				t.Errorf("p = %v, want %v", p, tt.want)
			}
		})
	}
}

func TestPointOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(2, 2)
	if !PointOnSegment(Pt(1, 1), a, b) {
		t.Error("midpoint should be on segment")
	}
	if PointOnSegment(Pt(3, 3), a, b) {
		t.Error("point beyond endpoint should not be on segment")
	}
	if PointOnSegment(Pt(1, 1.1), a, b) {
		t.Error("off-line point should not be on segment")
	}
	if !PointOnSegment(Pt(0, 0), Pt(0, 0), Pt(0, 0)) {
		t.Error("degenerate segment should contain its point")
	}
}

func TestRectPolygon(t *testing.T) {
	p := RectPolygon(BBox{Min: Pt(0, 0), Max: Pt(2, 3)})
	if math.Abs(p.Area()-6) > Eps || !p.IsCCW() {
		t.Errorf("rect polygon area = %v ccw=%v", p.Area(), p.IsCCW())
	}
}

func TestRegularPolygon(t *testing.T) {
	c := Circle{Center: Pt(1, 1), R: 2}
	p := RegularPolygon(c, 64, 0)
	// Area should be close to but below the disk area.
	if p.Area() >= c.Area() || p.Area() < 0.98*c.Area() {
		t.Errorf("64-gon area %v vs disk %v", p.Area(), c.Area())
	}
	defer func() {
		if recover() == nil {
			t.Error("RegularPolygon(n<3) should panic")
		}
	}()
	RegularPolygon(c, 2, 0)
}

// Property: clipping never increases area and the result stays inside the
// half-plane.
func TestClipNeverGrowsArea(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		poly := randomConvexPolygon(rng)
		h := HalfPlane{
			N: Pt(rng.Float64()*2-1, rng.Float64()*2-1),
			C: rng.Float64()*2 - 1,
		}
		if h.N.Norm() < 1e-3 {
			continue
		}
		clipped := poly.ClipHalfPlane(h)
		if clipped.Area() > poly.Area()+1e-9 {
			t.Fatalf("trial %d: clip grew area %v -> %v", trial, poly.Area(), clipped.Area())
		}
		for _, v := range clipped {
			if h.Eval(v) > 1e-6*(1+h.N.Norm()) {
				t.Fatalf("trial %d: vertex %v outside half-plane by %v", trial, v, h.Eval(v))
			}
		}
	}
}

// Property: areas of the two halves of a bisector split sum to the whole.
func TestBisectorSplitPartitionsArea(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		poly := randomConvexPolygon(rng)
		a := Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		b := Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		if a.Dist(b) < 1e-6 {
			continue
		}
		h := Bisector(a, b)
		a1 := poly.ClipHalfPlane(h).Area()
		a2 := poly.ClipHalfPlane(h.Complement()).Area()
		if math.Abs(a1+a2-poly.Area()) > 1e-6*(1+poly.Area()) {
			t.Fatalf("trial %d: %v + %v != %v", trial, a1, a2, poly.Area())
		}
	}
}

func randomConvexPolygon(rng *rand.Rand) Polygon {
	n := 3 + rng.Intn(10)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*10-5, rng.Float64()*10-5)
	}
	h := ConvexHull(pts)
	if len(h) < 3 {
		return unitSquare()
	}
	return h
}

// Property (quick): polygon containment is invariant under translation.
func TestContainsTranslationInvariance(t *testing.T) {
	sq := unitSquare()
	f := func(qx, qy, dx, dy float64) bool {
		q := clampPt(qx, qy)
		d := clampPt(dx, dy)
		moved := make(Polygon, len(sq))
		for i, v := range sq {
			moved[i] = v.Add(d)
		}
		return sq.Contains(q) == moved.Contains(q.Add(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
