package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randConvexish returns a polygon whose vertices lie on a jittered circle —
// convex for the clip kernel's purposes (the scalar kernel is the oracle, so
// mild non-convexity only has to be handled identically, not correctly).
func randConvexish(rng *rand.Rand, n int, scale float64) Polygon {
	p := make(Polygon, 0, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * (float64(i) + 0.8*rng.Float64()) / float64(n)
		r := scale * (0.3 + rng.Float64())
		p = append(p, Point{r * math.Cos(ang), r * math.Sin(ang)})
	}
	return p
}

func polyEqualBits(t *testing.T, want Polygon, s *PolySlab, got PolyRef) {
	t.Helper()
	if len(want) != got.N {
		t.Fatalf("vertex count: scalar %d, slab %d", len(want), got.N)
	}
	for i, v := range want {
		g := s.Vertex(got, i)
		if math.Float64bits(v.X) != math.Float64bits(g.X) ||
			math.Float64bits(v.Y) != math.Float64bits(g.Y) {
			t.Fatalf("vertex %d: scalar %v (bits %x,%x), slab %v (bits %x,%x)",
				i, v, math.Float64bits(v.X), math.Float64bits(v.Y),
				g, math.Float64bits(g.X), math.Float64bits(g.Y))
		}
	}
}

// TestClipHalfPlaneSlabMatchesScalar sweeps random polygons and bisector-like
// half-planes and requires the slab clip to be bitwise equal to the scalar
// ClipHalfPlaneInto pipeline, including the dedupe pass.
func TestClipHalfPlaneSlabMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var slab PolySlab
	dst := make(Polygon, 0, 16)
	for trial := 0; trial < 5000; trial++ {
		n := 3 + rng.Intn(8)
		scale := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
		p := randConvexish(rng, n, scale)
		a := Point{scale * (rng.Float64() - 0.5), scale * (rng.Float64() - 0.5)}
		b := Point{scale * (rng.Float64() - 0.5), scale * (rng.Float64() - 0.5)}
		if a.Eq(b) {
			continue
		}
		h := Bisector(a, b)
		if rng.Intn(2) == 0 {
			h = h.Complement()
		}
		want := p.ClipHalfPlaneInto(dst, h)
		slab.Reset()
		r := slab.Append(p)
		got := slab.ClipHalfPlane(r, h)
		polyEqualBits(t, want, &slab, got)
	}
}

// TestClipHalfPlaneSlabDegenerate covers the chains the dedupe pass produces:
// empty input, fully-clipped polygons, and near-duplicate vertices.
func TestClipHalfPlaneSlabDegenerate(t *testing.T) {
	var slab PolySlab
	h := Bisector(Point{0, 0}, Point{1, 0}) // keep x <= 0.5
	cases := []Polygon{
		nil,
		{{2, 0}, {3, 0}, {2.5, 1}},                   // fully outside
		{{0, 0}, {0.1, 0}, {0.1, 0.1}, {0, 0.1}},     // fully inside
		{{0, 0}, {1, 0}, {1, 1}, {0, 1}},             // straddles
		{{0, 0}, {0, 0}, {1, 0}, {1, 1}, {0, 1}},     // duplicate vertex
		{{0.5, 0}, {0.5, 1}, {0.4999999999, 0.5}},    // sliver on the boundary
		{{0, 0}, {1e-12, 1e-12}, {1, 0}, {0.5, 0.5}}, // near-duplicate
	}
	dst := make(Polygon, 0, 16)
	for ci, p := range cases {
		want := p.ClipHalfPlaneInto(dst, h)
		slab.Reset()
		r := slab.Append(p)
		got := slab.ClipHalfPlane(r, h)
		if len(want) != got.N {
			t.Fatalf("case %d: scalar %d verts, slab %d", ci, len(want), got.N)
		}
		polyEqualBits(t, want, &slab, got)
	}
}

// TestAreaBBoxMatchesScalar checks the fused area+bbox pass against the
// separate scalar computations, bit for bit.
func TestAreaBBoxMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var slab PolySlab
	for trial := 0; trial < 2000; trial++ {
		p := randConvexish(rng, 3+rng.Intn(9), math.Pow(10, float64(rng.Intn(5)-2)))
		slab.Reset()
		r := slab.Append(p)
		area, bb := slab.AreaBBox(r)
		if math.Float64bits(area) != math.Float64bits(p.Area()) {
			t.Fatalf("area: scalar %v, slab %v", p.Area(), area)
		}
		want := p.BBox()
		if bb != want {
			t.Fatalf("bbox: scalar %+v, slab %+v", want, bb)
		}
		if m := slab.MaxDistFrom(r, p[0]); math.Float64bits(m) != math.Float64bits(p.MaxDistFrom(p[0])) {
			t.Fatalf("maxdist: scalar %v, slab %v", p.MaxDistFrom(p[0]), m)
		}
	}
}

// FuzzBatchClipMatchesScalar fuzzes raw polygon coordinates and half-plane
// coefficients and requires the slab clip to match the scalar
// ClipHalfPlaneInto bitwise — vertex count and every coordinate.
func FuzzBatchClipMatchesScalar(f *testing.F) {
	f.Add(int64(1), 4, 0.0, 0.0, 1.0, 0.0)
	f.Add(int64(2), 6, -3.5, 2.25, 0.5, -0.5)
	f.Add(int64(3), 3, 1e-12, 1e-12, 2e-12, 0.0)
	f.Add(int64(4), 8, 1e6, -1e6, 0.0, 12345.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, ax, ay, bx, by float64) {
		if n < 0 || n > 32 {
			return
		}
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return
			}
		}
		rng := rand.New(rand.NewSource(seed))
		p := make(Polygon, 0, n)
		for i := 0; i < n; i++ {
			p = append(p, Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10})
		}
		a, b := Point{ax, ay}, Point{bx, by}
		var h HalfPlane
		if a.Eq(b) {
			h = HalfPlane{N: Point{1, 1}, C: ax} // coincident: use a raw plane instead
		} else {
			h = Bisector(a, b)
		}
		want := p.ClipHalfPlaneInto(make(Polygon, 0, n+2), h)
		var slab PolySlab
		r := slab.Append(p)
		got := slab.ClipHalfPlane(r, h)
		if len(want) != got.N {
			t.Fatalf("vertex count: scalar %d, slab %d", len(want), got.N)
		}
		for i, v := range want {
			g := slab.Vertex(got, i)
			if math.Float64bits(v.X) != math.Float64bits(g.X) ||
				math.Float64bits(v.Y) != math.Float64bits(g.Y) {
				t.Fatalf("vertex %d differs: scalar %v slab %v", i, v, g)
			}
		}

		// The fast entries (screens + cached classification) must be bitwise
		// equal to the same scalar pipeline, on untrusted input.
		nNorm := h.N.Norm()
		var slab2 PolySlab
		r2 := slab2.Append(p)
		_, bb := slab2.AreaBBox(r2)
		mN := bb.MaxCornerNorm()
		fast, _ := slab2.ClipHalfPlaneFast(r2, h, nNorm, bb, mN, false)
		if len(want) != fast.N {
			t.Fatalf("fast vertex count: scalar %d, slab %d", len(want), fast.N)
		}
		for i, v := range want {
			g := slab2.Vertex(fast, i)
			if math.Float64bits(v.X) != math.Float64bits(g.X) ||
				math.Float64bits(v.Y) != math.Float64bits(g.Y) {
				t.Fatalf("fast vertex %d differs: scalar %v slab %v", i, v, g)
			}
		}

		wantC := p.ClipHalfPlaneInto(make(Polygon, 0, n+2), h.Complement())
		var slab3 PolySlab
		r3 := slab3.Append(p)
		kept, closer, _ := slab3.ClipSplitFast(r3, h, nNorm, bb, mN, false)
		polyEqualBits(t, want, &slab3, kept)
		polyEqualBits(t, wantC, &slab3, closer)
	})
}

// TestClipFastTrustedMatchesScalar exercises the fast entries the way the
// dominating-region walk does: the input of each clip is the (dedupe-stable)
// output of a previous clip emission, passed with trusted=true alongside its
// tracked bounding box. Every step must stay bitwise equal to the scalar
// ClipHalfPlaneInto chain.
func TestClipFastTrustedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var slab PolySlab
	for trial := 0; trial < 3000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(5)-2))
		p := randConvexish(rng, 3+rng.Intn(8), scale)
		slab.Reset()
		r := slab.Append(p)

		// First clip establishes a trusted polygon on both paths.
		a := Point{scale * (rng.Float64() - 0.5), scale * (rng.Float64() - 0.5)}
		b := Point{scale * (rng.Float64() - 0.5), scale * (rng.Float64() - 0.5)}
		if a.Eq(b) {
			continue
		}
		h0 := Bisector(a, b)
		want := p.ClipHalfPlaneInto(make(Polygon, 0, 16), h0)
		r = slab.ClipHalfPlane(r, h0)
		polyEqualBits(t, want, &slab, r)
		if r.N < 3 {
			continue
		}
		_, bb := slab.AreaBBox(r)

		// Chain of trusted fast clips, mixing the single and split entries.
		for step := 0; step < 4; step++ {
			c := Point{scale * (rng.Float64() - 0.5), scale * (rng.Float64() - 0.5)}
			d := Point{scale * 3 * (rng.Float64() - 0.5), scale * 3 * (rng.Float64() - 0.5)}
			if c.Eq(d) {
				continue
			}
			h := Bisector(c, d)
			nNorm := h.N.Norm()
			mN := bb.MaxCornerNorm()
			if step%2 == 0 {
				got, _ := slab.ClipHalfPlaneFast(r, h, nNorm, bb, mN, true)
				want = Polygon(want).ClipHalfPlaneInto(make(Polygon, 0, 16), h)
				polyEqualBits(t, want, &slab, got)
				r = got
			} else {
				kept, closer, _ := slab.ClipSplitFast(r, h, nNorm, bb, mN, true)
				wantC := Polygon(want).ClipHalfPlaneInto(make(Polygon, 0, 16), h.Complement())
				want = Polygon(want).ClipHalfPlaneInto(make(Polygon, 0, 16), h)
				polyEqualBits(t, want, &slab, kept)
				polyEqualBits(t, wantC, &slab, closer)
				r = kept
			}
			if r.N < 3 {
				break
			}
			_, bb = slab.AreaBBox(r)
		}
	}
}

// TestClearlyOutsideEmptiesClips: ClearlyOutside agrees with its per-vertex
// definition whichever box shortcut decides it, and a polygon it accepts —
// or any convex piece of one — clips to nothing against h and passes whole
// to h's complement. The half-planes are placed so their lines run within a
// few tolerance bands of the polygon, where the shortcuts are tightest.
func TestClearlyOutsideEmptiesClips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	accepted := 0
	for trial := 0; trial < 5000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(4)-2))
		c := Point{scale * (rng.Float64() - 0.5), scale * (rng.Float64() - 0.5)}
		p := RegularPolygon(Circle{Center: c, R: scale * (0.1 + rng.Float64())}, 3+rng.Intn(6), rng.Float64())
		bb := p.BBox()
		ang := 2 * math.Pi * rng.Float64()
		n := Point{math.Cos(ang), math.Sin(ang)}.Scale(scale * (0.5 + rng.Float64()))
		nNorm := n.Norm()
		margin := outsideMargin(nNorm, bb.MaxCornerNorm())
		lo := math.Inf(1)
		for _, v := range p {
			lo = math.Min(lo, n.Dot(v))
		}
		// Put the line at lo − δ, with δ spanning a few margins either side
		// of the band, or well clear of it.
		delta := margin * (6*rng.Float64() - 3)
		if trial%4 == 0 {
			delta = scale * scale * rng.Float64()
		}
		h := HalfPlane{N: n, C: lo - delta}

		want := true
		for _, v := range p {
			if h.Eval(v) <= margin {
				want = false
			}
		}
		got := p.ClearlyOutside(h, nNorm, bb)
		if got != want {
			t.Fatalf("trial %d: ClearlyOutside = %v, per-vertex test %v", trial, got, want)
		}
		if !got {
			continue
		}
		accepted++
		piece := p
		if cut := p.ClipHalfPlaneInto(nil, Bisector(c, p[0])); len(cut) >= 3 {
			piece = cut // a convex polygon inside p
		}
		for _, q := range []Polygon{p, piece} {
			if kept := q.ClipHalfPlaneInto(nil, h); len(kept) >= 3 {
				t.Fatalf("trial %d: clip of an accepted polygon kept %d vertices", trial, len(kept))
			}
			if closer := q.ClipHalfPlaneInto(nil, h.Complement()); len(closer) != len(q) {
				t.Fatalf("trial %d: complement clip changed %d vertices to %d", trial, len(q), len(closer))
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no polygon was accepted")
	}
}
