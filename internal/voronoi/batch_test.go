package voronoi

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi/oracle"
)

// oracleSites converts sites to the oracle's Site type, which has the same
// layout. Call it once per site set, outside any allocation-measured loop.
func oracleSites(sites []Site) []oracle.Site {
	out := make([]oracle.Site, len(sites))
	for i, s := range sites {
		out[i] = oracle.Site(s)
	}
	return out
}

// TestCoincidentTolMatchesOracle pins the oracle's copy of the coincidence
// tolerance to the kernel's: the bitwise comparisons below assume both walks
// tie-break the same generators.
func TestCoincidentTolMatchesOracle(t *testing.T) {
	if coincidentTol != oracle.CoincidentTol {
		t.Fatalf("coincidentTol %v, oracle.CoincidentTol %v", coincidentTol, oracle.CoincidentTol)
	}
}

// refsEqualBits fails unless the referenced slab polygons are bitwise equal
// to the scalar region — piece count, vertex counts, and every coordinate.
func refsEqualBits(t *testing.T, want []geom.Polygon, slab *geom.PolySlab, got []geom.PolyRef) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("piece count: scalar %d, batch %d", len(want), len(got))
	}
	for pi, p := range want {
		r := got[pi]
		if len(p) != r.N {
			t.Fatalf("piece %d: scalar %d verts, batch %d", pi, len(p), r.N)
		}
		for i, v := range p {
			g := slab.Vertex(r, i)
			if math.Float64bits(v.X) != math.Float64bits(g.X) ||
				math.Float64bits(v.Y) != math.Float64bits(g.Y) {
				t.Fatalf("piece %d vertex %d: scalar %v, batch %v", pi, i, v, g)
			}
		}
	}
}

// TestDominatingRegionBatchMatchesScalar sweeps random site sets, coverage
// orders and every query site, requiring the batch kernel to be bitwise equal
// to the scalar oracle kernel — including with coincident site clusters that
// exercise the index tie-break.
func TestDominatingRegionBatchMatchesScalar(t *testing.T) {
	reg := region.UnitSquareKm()
	var sc oracle.Scratch
	var sb Scratch
	for _, seed := range []int64{1, 7, 42} {
		for _, n := range []int{5, 30, 80} {
			sites := scratchSites(n, seed)
			if n > 6 {
				// Coincident cluster: exact duplicates tie-break by ID.
				sites[4].Pos = sites[2].Pos
				sites[6].Pos = sites[2].Pos
			}
			osites := oracleSites(sites)
			for _, k := range []int{1, 2, 4} {
				for _, self := range sites {
					want := oracle.DominatingRegion(oracle.Site(self), osites, k, reg.Pieces(), &sc)
					got := DominatingRegionBatch(self, sites, k, reg.Pieces(), reg.PieceBoxes(), &sb)
					refsEqualBits(t, want, &sb.Slab, got)
				}
			}
		}
	}
}

// TestDominatingRegionBatchWithHoles runs the comparison over a multi-piece
// clip region (square with a hole → pieces), so the per-piece walk and the
// survivor ordering across pieces are covered.
func TestDominatingRegionBatchWithHoles(t *testing.T) {
	hole := geom.RectPolygon(geom.BBox{Min: geom.Pt(0.4, 0.4), Max: geom.Pt(0.6, 0.6)})
	reg := region.MustNew(geom.RectPolygon(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}), hole)
	sites := scratchSites(40, 13)
	osites := oracleSites(sites)
	var sc oracle.Scratch
	var sb Scratch
	for _, self := range sites {
		want := oracle.DominatingRegion(oracle.Site(self), osites, 3, reg.Pieces(), &sc)
		got := DominatingRegionBatch(self, sites, 3, reg.Pieces(), reg.PieceBoxes(), &sb)
		refsEqualBits(t, want, &sb.Slab, got)
	}
}

// TestIncrementalRelMatchesRebuild feeds the rel slabs in radius chunks —
// the engine's expanding-search pattern: append only the suffix beyond the
// previous radius, sort the tail — and requires the result to be bitwise
// equal to a full rebuild-and-sort (and to the scalar kernel).
func TestIncrementalRelMatchesRebuild(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(23))
	var sc oracle.Scratch
	var sb Scratch
	for trial := 0; trial < 30; trial++ {
		sites := scratchSites(60, int64(trial))
		self := sites[rng.Intn(len(sites))]
		k := 1 + rng.Intn(3)

		// Incremental build over three expanding radii.
		radii := []float64{0.2, 0.4, 1.6}
		sb.ResetRel()
		prevRho2 := 0.0
		for _, rho := range radii {
			rho2 := rho * rho
			start := sb.RelLen()
			for _, o := range sites {
				d2 := o.Pos.Dist2(self.Pos)
				if d2 < rho2 && d2 >= prevRho2 {
					sb.AppendRel(self, o, d2)
				}
			}
			sb.SortRelTail(start)
			prevRho2 = rho2
		}
		got := DominatingRegionSoA(self, k, reg.Pieces(), reg.PieceBoxes(), &sb)

		// Oracle: scalar kernel over the same final neighbor set.
		final := sites[:0:0]
		for _, o := range sites {
			if o.Pos.Dist2(self.Pos) < prevRho2 {
				final = append(final, o)
			}
		}
		want := oracle.DominatingRegion(oracle.Site(self), oracleSites(final), k, reg.Pieces(), &sc)
		refsEqualBits(t, want, &sb.Slab, got)
	}
}

// cullRegions are the obstacle regions of the scenarios: many convex pieces,
// most of them far from any one node, so the batch kernel's k-dominance cull
// skips pieces that the scalar oracle walks in full.
var cullRegions = []struct {
	name string
	reg  func() *region.Region
}{
	{"campus", region.Campus},
	{"obstacles2", region.SquareWithTwoObstacles},
}

// regionSites places n sites uniformly inside reg (off the obstacles).
func regionSites(reg *region.Region, n int, seed int64) []Site {
	pts := region.PlaceUniform(reg, n, rand.New(rand.NewSource(seed)))
	sites := make([]Site, n)
	for i, p := range pts {
		sites[i] = Site{ID: i, Pos: p}
	}
	return sites
}

// TestDominatingRegionBatchCullMatchesScalar diffs the culled batch kernel
// against the un-culled scalar oracle on the multi-piece regions, with dense
// sites and every query site, and requires the cull to have fired — so the
// comparison covers culled pieces, not only walked ones.
func TestDominatingRegionBatchCullMatchesScalar(t *testing.T) {
	for _, rc := range cullRegions {
		reg := rc.reg()
		sites := regionSites(reg, 400, 5)
		osites := oracleSites(sites)
		var sc oracle.Scratch
		var sb Scratch
		for _, k := range []int{1, 2, 3} {
			before := culledPieces(&sb)
			for _, self := range sites {
				want := oracle.DominatingRegion(oracle.Site(self), osites, k, reg.Pieces(), &sc)
				got := DominatingRegionBatch(self, sites, k, reg.Pieces(), reg.PieceBoxes(), &sb)
				refsEqualBits(t, want, &sb.Slab, got)
			}
			if culledPieces(&sb) == before {
				t.Fatalf("%s k=%d: no piece culled over %d sites", rc.name, k, len(sites))
			}
		}
	}
}

// TestIncrementalRelCullMatchesScalar is the engine's expanding-search
// pattern on the multi-piece regions: the rel slabs grow radius by radius
// and the kernel runs after each growth, so a cull on a short list memoizes
// bisectors a later, longer walk reuses. Every intermediate region must be
// bitwise equal to the scalar oracle over the same neighbor set.
func TestIncrementalRelCullMatchesScalar(t *testing.T) {
	for _, rc := range cullRegions {
		reg := rc.reg()
		sites := regionSites(reg, 400, 9)
		var sc oracle.Scratch
		var sb Scratch
		culled := culledPieces(&sb)
		for _, k := range []int{1, 2, 3} {
			for si := k; si < len(sites); si += 7 {
				self := sites[si]
				sb.ResetRel()
				prevRho2 := 0.0
				for _, rho := range []float64{0.06, 0.12, 0.24, 1.6} {
					rho2 := rho * rho
					start := sb.RelLen()
					final := sites[:0:0]
					for _, o := range sites {
						d2 := o.Pos.Dist2(self.Pos)
						if d2 < rho2 && d2 >= prevRho2 {
							sb.AppendRel(self, o, d2)
						}
						if d2 < rho2 {
							final = append(final, o)
						}
					}
					sb.SortRelTail(start)
					prevRho2 = rho2
					got := DominatingRegionSoA(self, k, reg.Pieces(), reg.PieceBoxes(), &sb)
					want := oracle.DominatingRegion(oracle.Site(self), oracleSites(final), k, reg.Pieces(), &sc)
					refsEqualBits(t, want, &sb.Slab, got)
				}
			}
		}
		if culledPieces(&sb) == culled {
			t.Fatalf("%s: no piece culled", rc.name)
		}
	}
}

// TestClipToConvexSoAMatchesScalar checks the ring closure against the
// oracle's scalar ClipToConvex, bitwise: dominating regions cut by the ring,
// untrusted entry pieces straight from a region's decomposition (some with a
// near-duplicate vertex the first clip's dedupe must drop), collapsed refs
// mixed into the input, and regions that already lie inside the ring, whose
// every edge clip is the identity.
func TestClipToConvexSoAMatchesScalar(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := scratchSites(20, 5)
	osites := oracleSites(sites)
	ring := geom.RegularPolygon(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.3}, 48, 0.065)
	wide := geom.RegularPolygon(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 2}, 48, 0.065)
	var sc oracle.Scratch
	var sb Scratch
	for _, clip := range []geom.Polygon{ring, wide} {
		for _, self := range sites {
			polys := oracle.DominatingRegion(oracle.Site(self), osites, 2, reg.Pieces(), &sc)
			want := sc.ClipToConvex(polys, clip)
			refs := DominatingRegionBatch(self, sites, 2, reg.Pieces(), reg.PieceBoxes(), &sb)
			got := sb.ClipToConvexSoA(refs, clip)
			refsEqualBits(t, want, &sb.Slab, got)
		}
	}
	for _, r := range []*region.Region{region.Campus(), region.LShape(), region.SquareWithTwoObstacles()} {
		var entry []geom.Polygon
		for pi, piece := range r.Pieces() {
			p := piece.Clone()
			if pi%3 == 0 {
				// A vertex within the dedupe tolerance of its predecessor:
				// an untrusted piece the scalar clip shortens.
				p = append(p[:1], append(geom.Polygon{p[0].Add(geom.Pt(1e-13, 0))}, p[1:]...)...)
			}
			entry = append(entry, p)
			if pi%4 == 1 {
				entry = append(entry, p[:2]) // a collapsed ref
			}
		}
		for _, clip := range []geom.Polygon{ring, wide} {
			want := sc.ClipToConvex(entry, clip)
			sb.Slab.Reset()
			refs := make([]geom.PolyRef, len(entry))
			for i, p := range entry {
				refs[i] = sb.Slab.Append(p)
			}
			got := sb.ClipToConvexSoA(refs, clip)
			refsEqualBits(t, want, &sb.Slab, got)
		}
	}
}

// TestClipToConvexSoAMatchesPerPolyClips checks the closure over random
// convex-ish polygons at scales from 10⁻³ to 10³ against clipping each one
// alone with the scalar Polygon.ClipHalfPlaneInto, edge by edge, stopping at
// collapse: the same sequence of clips, the same carry-through of collapsed
// polygons and the same final filter.
func TestClipToConvexSoAMatchesPerPolyClips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sb Scratch
	for trial := 0; trial < 200; trial++ {
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		clip := geom.RegularPolygon(geom.Circle{R: scale * (0.2 + rng.Float64())}, 3+rng.Intn(46), rng.Float64())
		polys := make([]geom.Polygon, 1+rng.Intn(6))
		sb.Slab.Reset()
		refs := make([]geom.PolyRef, len(polys))
		for i := range polys {
			n := 3 + rng.Intn(6)
			c := geom.Pt(scale*(rng.Float64()-0.5), scale*(rng.Float64()-0.5))
			p := make(geom.Polygon, 0, n)
			for j := 0; j < n; j++ {
				ang := 2 * math.Pi * (float64(j) + 0.8*rng.Float64()) / float64(n)
				r := scale * (0.05 + 0.5*rng.Float64())
				p = append(p, geom.Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang)))
			}
			polys[i] = p
			refs[i] = sb.Slab.Append(p)
		}
		var want []geom.Polygon
		for _, p := range polys {
			for e := 0; e < len(clip) && len(p) >= 3; e++ {
				h := geom.HalfPlaneFromEdge(clip[e], clip[(e+1)%len(clip)])
				p = p.ClipHalfPlaneInto(make(geom.Polygon, 0, len(p)+2), h)
			}
			if len(p) >= 3 && p.Area() > 1e-16 {
				want = append(want, p)
			}
		}
		refsEqualBits(t, want, &sb.Slab, sb.ClipToConvexSoA(refs, clip))
	}
}

// TestCompactRefs mirrors TestCompactRegion for the ref-space copy-out.
func TestCompactRefs(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := scratchSites(25, 9)
	var sc oracle.Scratch
	var sb Scratch
	want := oracle.CompactRegion(oracle.DominatingRegion(oracle.Site(sites[0]), oracleSites(sites), 3, reg.Pieces(), &sc))
	refs := DominatingRegionBatch(sites[0], sites, 3, reg.Pieces(), reg.PieceBoxes(), &sb)
	compact := CompactRefs(&sb.Slab, refs)
	if !reflect.DeepEqual(asValues(compact), asValues(want)) {
		t.Fatal("CompactRefs differs from CompactRegion of the scalar result")
	}
	for i, p := range compact {
		if cap(p) != len(p) {
			t.Errorf("piece %d: cap %d != len %d (not minimal)", i, cap(p), len(p))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { CompactRefs(&sb.Slab, refs) }); allocs > 2 {
		t.Errorf("CompactRefs allocates %v/op, want <= 2", allocs)
	}
	if CompactRefs(&sb.Slab, nil) != nil {
		t.Error("CompactRefs of no refs should be nil")
	}
	// Mutating the scratch afterwards must not disturb the compacted copy.
	before := asValues(compact)
	for _, self := range sites {
		DominatingRegionBatch(self, sites, 3, reg.Pieces(), reg.PieceBoxes(), &sb)
	}
	if !reflect.DeepEqual(asValues(compact), before) {
		t.Error("compacted region aliases slab storage")
	}
}

// TestRefHelpersMatchScalar checks MaxDistFromRefs and VerticesOfRefsInto
// against their scalar counterparts.
func TestRefHelpersMatchScalar(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := scratchSites(15, 11)
	var sc oracle.Scratch
	var sb Scratch
	self := sites[0]
	polys := oracle.DominatingRegion(oracle.Site(self), oracleSites(sites), 2, reg.Pieces(), &sc)
	refs := DominatingRegionBatch(self, sites, 2, reg.Pieces(), reg.PieceBoxes(), &sb)
	wantD := MaxDistFrom(self.Pos, polys)
	gotD := MaxDistFromRefs(self.Pos, &sb.Slab, refs)
	if math.Float64bits(wantD) != math.Float64bits(gotD) {
		t.Fatalf("max dist: scalar %v, batch %v", wantD, gotD)
	}
	buf := make([]geom.Point, 0, 64)
	wantV := VerticesInto(buf[:0], polys)
	gotV := VerticesOfRefsInto(make([]geom.Point, 0, 64), &sb.Slab, refs)
	if !reflect.DeepEqual(wantV, gotV) {
		t.Fatal("VerticesOfRefsInto differs from VerticesInto")
	}
}

// TestBatchCoincidentPanicParity: generators inside the Bisector Eq tolerance
// but outside the index tie-break band once made both walks panic. The
// coincidence rule (AppendRel and the oracle give such a generator d² = 0)
// makes both tie-break it by ID instead, so neither kernel panics and both
// return the same region. The campus cases run on a multi-piece region,
// where the cull scans the rel list before each walk: it must pass the
// near-coincident generator over, as the walk does.
func TestBatchCoincidentPanicParity(t *testing.T) {
	reg := region.UnitSquareKm()
	self := Site{ID: 0, Pos: geom.Pt(0.5, 0.5)}
	near := Site{ID: 1, Pos: geom.Pt(0.5+4e-10, 0.5)} // within Eq, above coincidentTol
	others := []Site{self, near, {ID: 2, Pos: geom.Pt(0.2, 0.8)}}
	var sc oracle.Scratch
	var sb Scratch
	want := oracle.DominatingRegion(oracle.Site(self), oracleSites(others), 1, reg.Pieces(), &sc)
	got := DominatingRegionBatch(self, others, 1, reg.Pieces(), reg.PieceBoxes(), &sb)
	refsEqualBits(t, want, &sb.Slab, got)

	// Campus: dense generators, so most pieces have k dominators in the rel
	// list behind the near-coincident generator.
	campus := region.Campus()
	self = Site{ID: 3, Pos: geom.Pt(0.5, 0.5)}
	near = Site{ID: 4, Pos: geom.Pt(0.5+4e-10, 0.5)}
	dense := append(regionSites(campus, 200, 3)[10:], self, near)
	odense := oracleSites(dense)
	for _, k := range []int{1, 2} {
		want := oracle.DominatingRegion(oracle.Site(self), odense, k, campus.Pieces(), &sc)
		got := DominatingRegionBatch(self, dense, k, campus.Pieces(), campus.PieceBoxes(), &sb)
		refsEqualBits(t, want, &sb.Slab, got)
	}
	// A coincident generator with a lower ID (inside the tie-break band)
	// exhausts k=1 before the walk reaches the near one: neither kernel may
	// panic, and both return the same (empty) region.
	tie := Site{ID: 0, Pos: self.Pos}
	withTie := append(dense[:len(dense):len(dense)], tie)
	want = oracle.DominatingRegion(oracle.Site(self), oracleSites(withTie), 1, campus.Pieces(), &sc)
	got = DominatingRegionBatch(self, withTie, 1, campus.Pieces(), campus.PieceBoxes(), &sb)
	refsEqualBits(t, want, &sb.Slab, got)
}

// TestKernelNearCoincidentGaps: the region kernels are total on generator
// pairs from far inside the tie-break band (1e-13) to just outside
// geom.Point.Eq (2e-9), along each axis, with the near generator on either
// side of self in ID order and at k = 1, 2. The SoA kernel must match the
// scalar oracle bit for bit, and KOrderDiagram, which applies the same
// coincidence rule, must build without a panic.
func TestKernelNearCoincidentGaps(t *testing.T) {
	reg := region.UnitSquareKm()
	base := scratchSites(30, 5)
	for _, gap := range []float64{1e-13, 1e-11, 1e-10, 1e-9, 2e-9} {
		for _, axis := range []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1)} {
			for _, nearID := range []int{1, 100} {
				self := Site{ID: 50, Pos: geom.Pt(0.4, 0.6)}
				near := Site{ID: nearID, Pos: self.Pos.Add(axis.Scale(gap))}
				sites := append(append([]Site(nil), base[2:]...), self, near)
				osites := oracleSites(sites)
				var sc oracle.Scratch
				var sb Scratch
				for _, k := range []int{1, 2} {
					for _, q := range []Site{self, near} {
						want := oracle.DominatingRegion(oracle.Site(q), osites, k, reg.Pieces(), &sc)
						got := DominatingRegionBatch(q, sites, k, reg.Pieces(), reg.PieceBoxes(), &sb)
						refsEqualBits(t, want, &sb.Slab, got)
					}
					if _, err := KOrderDiagram(sites, k, reg); err != nil {
						t.Fatalf("gap %g axis %v: KOrderDiagram: %v", gap, axis, err)
					}
				}
			}
		}
	}
}

// TestDominatingRegionBatchZeroAllocs: a warmed batch scratch computes
// regions with zero heap allocations, like the scalar kernel — on the
// two-piece square and on the 85-piece campus, where the cull runs.
func TestDominatingRegionBatchZeroAllocs(t *testing.T) {
	campus := region.Campus()
	for _, reg := range []*region.Region{region.UnitSquareKm(), campus} {
		sites := scratchSites(60, 3)
		if reg == campus {
			sites = regionSites(campus, 60, 3)
		}
		s := &Scratch{}
		pieces, boxes := reg.Pieces(), reg.PieceBoxes()
		for _, self := range sites {
			DominatingRegionBatch(self, sites, 2, pieces, boxes, s)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for _, self := range sites {
				DominatingRegionBatch(self, sites, 2, pieces, boxes, s)
			}
		})
		if allocs > 0 {
			t.Errorf("%d pieces: warmed DominatingRegionBatch allocates %v/run over %d sites, want 0", len(pieces), allocs, len(sites))
		}
	}
}

// BenchmarkBatchKernelDominatingRegion compares the batch and scalar kernels
// on the same workload: every site's dominating region over a uniform field —
// on the two-piece square, and at n=400 on the multi-piece obstacle regions,
// where the batch kernel culls the pieces no branch can reach.
func BenchmarkBatchKernelDominatingRegion(b *testing.B) {
	run := func(prefix string, reg *region.Region, sites []Site) {
		pieces, boxes := reg.Pieces(), reg.PieceBoxes()
		osites := oracleSites(sites)
		b.Run(prefix+benchName("batch", len(sites)), func(b *testing.B) {
			s := &Scratch{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, self := range sites {
					DominatingRegionBatch(self, sites, 2, pieces, boxes, s)
				}
			}
		})
		b.Run(prefix+benchName("scalar", len(sites)), func(b *testing.B) {
			s := &oracle.Scratch{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, self := range osites {
					oracle.DominatingRegion(self, osites, 2, pieces, s)
				}
			}
		})
	}
	for _, n := range []int{100, 400} {
		run("", region.UnitSquareKm(), scratchSites(n, 3))
	}
	for _, rc := range cullRegions {
		reg := rc.reg()
		run(rc.name+"/", reg, regionSites(reg, 400, 3))
	}
}

// BenchmarkBatchKernelClipToConvex compares the slab ring closure against
// the scalar per-piece path.
func BenchmarkBatchKernelClipToConvex(b *testing.B) {
	reg := region.UnitSquareKm()
	pieces, boxes := reg.Pieces(), reg.PieceBoxes()
	sites := scratchSites(100, 5)
	osites := oracleSites(sites)
	ring := geom.RegularPolygon(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.3}, 48, 0.065)
	b.Run("batch", func(b *testing.B) {
		s := &Scratch{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, self := range sites {
				refs := DominatingRegionBatch(self, sites, 2, pieces, boxes, s)
				s.ClipToConvexSoA(refs, ring)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		s := &oracle.Scratch{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, self := range osites {
				polys := oracle.DominatingRegion(self, osites, 2, pieces, s)
				s.ClipToConvex(polys, ring)
			}
		}
	})
}

func benchName(kind string, n int) string {
	switch n {
	case 100:
		return kind + "/n=100"
	case 400:
		return kind + "/n=400"
	default:
		return kind
	}
}
