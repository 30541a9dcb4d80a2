package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSmallestEnclosingCircleSmallCases(t *testing.T) {
	tests := []struct {
		name  string
		pts   []Point
		wantC Point
		wantR float64
	}{
		{"empty", nil, Pt(0, 0), 0},
		{"single", []Point{Pt(3, 4)}, Pt(3, 4), 0},
		{"pair", []Point{Pt(0, 0), Pt(2, 0)}, Pt(1, 0), 1},
		{"equilateral-ish", []Point{Pt(0, 0), Pt(2, 0), Pt(1, math.Sqrt(3))}, Pt(1, math.Sqrt(3)/3), 2 / math.Sqrt(3)},
		{"square", []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}, Pt(0.5, 0.5), math.Sqrt2 / 2},
		{"obtuse triangle", []Point{Pt(0, 0), Pt(4, 0), Pt(1, 0.1)}, Pt(2, 0.05), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := SmallestEnclosingCircle(tt.pts)
			if !c.ContainsAll(tt.pts) {
				t.Fatalf("circle %v does not contain all input points", c)
			}
			if tt.name == "obtuse triangle" {
				// For an obtuse triangle, the SEC is the diameter circle of
				// the longest side; just verify radius ≈ half that side.
				want := Pt(0, 0).Dist(Pt(4, 0)) / 2
				if math.Abs(c.R-want) > 1e-6 {
					t.Errorf("R = %v, want %v", c.R, want)
				}
				return
			}
			if !c.Center.EqTol(tt.wantC, 1e-9) {
				t.Errorf("center = %v, want %v", c.Center, tt.wantC)
			}
			if math.Abs(c.R-tt.wantR) > 1e-9 {
				t.Errorf("R = %v, want %v", c.R, tt.wantR)
			}
		})
	}
}

func TestSmallestEnclosingCircleDuplicates(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(1, 1), Pt(1, 1), Pt(3, 1), Pt(3, 1)}
	c := SmallestEnclosingCircle(pts)
	if !c.Center.EqTol(Pt(2, 1), 1e-9) || math.Abs(c.R-1) > 1e-9 {
		t.Errorf("got %v", c)
	}
}

func TestSmallestEnclosingCircleCollinear(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(5, 0), Pt(3, 0)}
	c := SmallestEnclosingCircle(pts)
	if !c.Center.EqTol(Pt(2.5, 0), 1e-9) || math.Abs(c.R-2.5) > 1e-9 {
		t.Errorf("got %v", c)
	}
}

// Property: the SEC contains every input point and no circle through a
// brute-force search over pairs/triples is smaller.
func TestSmallestEnclosingCircleVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(12)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		}
		got := SmallestEnclosingCircle(pts)
		if !got.ContainsAll(pts) {
			t.Fatalf("trial %d: SEC %v misses a point", trial, got)
		}
		want := bruteForceSEC(pts)
		if got.R > want.R+1e-7*(1+want.R) {
			t.Fatalf("trial %d: SEC R=%v > brute-force R=%v", trial, got.R, want.R)
		}
		// It also cannot be smaller than the true minimum.
		if got.R < want.R-1e-7*(1+want.R) {
			t.Fatalf("trial %d: SEC R=%v < brute-force min R=%v (circle misses a point?)", trial, got.R, want.R)
		}
	}
}

// bruteForceSEC finds the minimum enclosing circle by trying all circles
// determined by pairs (as diameter) and triples (circumcircle). O(n⁴) but
// exact; for tests only.
func bruteForceSEC(pts []Point) Circle {
	best := Circle{R: math.Inf(1)}
	consider := func(c Circle) {
		// Tolerant containment for the candidate check.
		for _, p := range pts {
			if c.Center.Dist(p) > c.R+1e-9*(1+c.R) {
				return
			}
		}
		if c.R < best.R {
			best = c
		}
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			consider(CircleFrom2(pts[i], pts[j]))
			for k := j + 1; k < len(pts); k++ {
				consider(CircleFrom3(pts[i], pts[j], pts[k]))
			}
		}
	}
	if math.IsInf(best.R, 1) {
		// Degenerate: all points coincide.
		return Circle{Center: pts[0]}
	}
	return best
}

func TestChebyshevCenterMatchesSEC(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 3), Pt(0, 3)}
	center, r := ChebyshevCenterInPlace(append([]Point(nil), pts...))
	if !center.EqTol(Pt(2, 1.5), 1e-9) {
		t.Errorf("center = %v", center)
	}
	if math.Abs(r-2.5) > 1e-9 {
		t.Errorf("r = %v, want 2.5", r)
	}
}

func TestSECDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Pt(rng.Float64(), rng.Float64())
	}
	a := SmallestEnclosingCircle(pts)
	b := SmallestEnclosingCircle(pts)
	if a != b {
		t.Errorf("SEC not deterministic: %v vs %v", a, b)
	}
	// The in-place variant computes the same circle and must not allocate.
	scratch := append([]Point(nil), pts...)
	if c := SmallestEnclosingCircleInPlace(scratch); c != a {
		t.Errorf("in-place SEC differs: %v vs %v", c, a)
	}
	copy(scratch, pts)
	if allocs := testing.AllocsPerRun(100, func() {
		copy(scratch, pts)
		SmallestEnclosingCircleInPlace(scratch)
	}); allocs > 0 {
		t.Errorf("SmallestEnclosingCircleInPlace allocates %v/op, want 0", allocs)
	}
}

func TestCircleFrom3RightTriangle(t *testing.T) {
	// Circumcircle of a right triangle is centered at the hypotenuse midpoint.
	c := CircleFrom3(Pt(0, 0), Pt(4, 0), Pt(0, 3))
	if !c.Center.EqTol(Pt(2, 1.5), 1e-9) || math.Abs(c.R-2.5) > 1e-9 {
		t.Errorf("got %v", c)
	}
}

func TestCircleFrom3Collinear(t *testing.T) {
	c := CircleFrom3(Pt(0, 0), Pt(1, 0), Pt(2, 0))
	if !c.Center.EqTol(Pt(1, 0), 1e-9) || math.Abs(c.R-1) > 1e-9 {
		t.Errorf("collinear fallback got %v", c)
	}
}

func TestConvexHull(t *testing.T) {
	tests := []struct {
		name     string
		pts      []Point
		wantLen  int
		wantArea float64
	}{
		{"square with interior", []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2), Pt(1, 1)}, 4, 4},
		{"triangle", []Point{Pt(0, 0), Pt(1, 0), Pt(0, 1)}, 3, 0.5},
		{"collinear", []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0)}, 2, 0},
		{"duplicates", []Point{Pt(0, 0), Pt(0, 0), Pt(1, 1)}, 2, 0},
		{"single", []Point{Pt(5, 5)}, 1, 0},
		{"empty", nil, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := ConvexHull(tt.pts)
			if len(h) != tt.wantLen {
				t.Fatalf("hull len = %d (%v), want %d", len(h), h, tt.wantLen)
			}
			if math.Abs(h.Area()-tt.wantArea) > Eps {
				t.Errorf("hull area = %v, want %v", h.Area(), tt.wantArea)
			}
			if len(h) >= 3 && !h.IsCCW() {
				t.Error("hull not CCW")
			}
		})
	}
}

// Property: every input point is inside the hull and hull vertices are a
// subset of the input.
func TestConvexHullContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*10, rng.Float64()*10)
		}
		h := ConvexHull(pts)
		if len(h) < 3 {
			continue
		}
		for _, p := range pts {
			if !h.Contains(p) {
				t.Fatalf("trial %d: hull does not contain input point %v", trial, p)
			}
		}
		set := make(map[Point]bool, n)
		for _, p := range pts {
			set[p] = true
		}
		for _, v := range h {
			if !set[v] {
				t.Fatalf("trial %d: hull vertex %v not an input point", trial, v)
			}
		}
	}
}

func TestSamplePointsOnCircle(t *testing.T) {
	c := Circle{Center: Pt(2, 3), R: 5}
	pts := SamplePointsOnCircle(c, 16, 0.1)
	if len(pts) != 16 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Dist(c.Center)-5) > 1e-9 {
			t.Errorf("sample %v not on circle", p)
		}
	}
	if SamplePointsOnCircle(c, 0, 0) != nil {
		t.Error("n=0 should return nil")
	}
}
