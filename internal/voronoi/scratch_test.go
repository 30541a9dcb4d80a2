package voronoi

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi/oracle"
)

func scratchSites(n int, seed int64) []Site {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = Site{ID: i, Pos: geom.Pt(rng.Float64(), rng.Float64())}
	}
	return sites
}

// The scalar oracle must produce bit-identical regions to the convenience
// wrapper, for every site and coverage order, with the oracle's Scratch
// reused (dirty) across calls — reuse must not leak state between
// computations.
func TestDominatingRegionScratchMatchesWrapper(t *testing.T) {
	reg := region.UnitSquareKm()
	var s oracle.Scratch
	for _, seed := range []int64{1, 7, 42} {
		sites := scratchSites(30, seed)
		osites := oracleSites(sites)
		for _, k := range []int{1, 2, 4} {
			for _, self := range sites {
				want := DominatingRegion(self, sites, k, reg.Pieces())
				got := oracle.DominatingRegion(oracle.Site(self), osites, k, reg.Pieces(), &s)
				if !reflect.DeepEqual(oracle.CompactRegion(got), oracle.CompactRegion(want)) {
					t.Fatalf("seed=%d k=%d site=%d: scratch result differs", seed, k, self.ID)
				}
			}
		}
	}
}

// A warmed-up oracle Scratch computes dominating regions with zero heap
// allocations, like the production kernel.
func TestDominatingRegionScratchZeroAllocs(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := oracleSites(scratchSites(60, 3))
	s := &oracle.Scratch{}
	pieces := reg.Pieces()
	// Warm up every buffer (all sites, so the arena high-water mark is hit).
	for _, self := range sites {
		oracle.DominatingRegion(self, sites, 2, pieces, s)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, self := range sites {
			oracle.DominatingRegion(self, sites, 2, pieces, s)
		}
	})
	if allocs > 0 {
		t.Errorf("warmed oracle.DominatingRegion allocates %v/run over %d sites, want 0", allocs, len(sites))
	}
}

// oracle.CompactRegion preserves values exactly, shares one backing array
// across pieces, and costs at most two allocations.
func TestCompactRegion(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := oracleSites(scratchSites(25, 9))
	var s oracle.Scratch
	polys := oracle.DominatingRegion(sites[0], sites, 3, reg.Pieces(), &s)
	if len(polys) == 0 {
		t.Fatal("expected a non-empty region")
	}
	compact := oracle.CompactRegion(polys)
	if !reflect.DeepEqual(asValues(compact), asValues(polys)) {
		t.Fatal("compacted region changed vertex values")
	}
	for i, p := range compact {
		if cap(p) != len(p) {
			t.Errorf("piece %d: cap %d != len %d (not minimal)", i, cap(p), len(p))
		}
	}
	allocs := testing.AllocsPerRun(100, func() { oracle.CompactRegion(polys) })
	if allocs > 2 {
		t.Errorf("CompactRegion allocates %v/op, want <= 2", allocs)
	}
	if oracle.CompactRegion(nil) != nil {
		t.Error("CompactRegion(nil) should be nil")
	}
	// Mutating the scratch afterwards must not disturb the compacted copy.
	before := asValues(compact)
	for _, self := range sites {
		oracle.DominatingRegion(self, sites, 3, reg.Pieces(), &s)
	}
	if !reflect.DeepEqual(asValues(compact), before) {
		t.Error("compacted region aliases scratch storage")
	}
}

func asValues(polys []geom.Polygon) [][]geom.Point {
	out := make([][]geom.Point, len(polys))
	for i, p := range polys {
		out[i] = append([]geom.Point(nil), p...)
	}
	return out
}

// The oracle's ClipToConvex must agree with the allocating ClipConvex path.
func TestClipToConvexMatchesClipConvex(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := oracleSites(scratchSites(20, 5))
	ring := geom.RegularPolygon(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.3}, 48, 0.065)
	var s oracle.Scratch
	for _, self := range sites {
		polys := oracle.DominatingRegion(self, sites, 2, reg.Pieces(), &s)
		var want []geom.Polygon
		for _, p := range polys {
			if c := p.ClipConvex(ring); len(c) >= 3 && c.Area() > 1e-16 {
				want = append(want, c)
			}
		}
		got := s.ClipToConvex(polys, ring)
		if !reflect.DeepEqual(asValues(got), asValues(want)) {
			t.Fatalf("site %d: ClipToConvex differs from ClipConvex", self.ID)
		}
	}
}

// VerticesInto lists every piece's vertices in order and reuses the buffer.
func TestVerticesInto(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := scratchSites(15, 11)
	polys := DominatingRegion(sites[0], sites, 2, reg.Pieces())
	var want []geom.Point
	for _, p := range polys {
		want = append(want, p...)
	}
	buf := make([]geom.Point, 0, len(want))
	got := VerticesInto(buf[:0], polys)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("VerticesInto differs from the concatenated pieces")
	}
	if allocs := testing.AllocsPerRun(100, func() { VerticesInto(buf[:0], polys) }); allocs > 0 {
		t.Errorf("VerticesInto with sufficient capacity allocates %v/op", allocs)
	}
}

// KNearest's partial selection must agree with a full sort for every k,
// including the tie-breaking rule.
func TestKNearestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		sites := scratchSites(n, int64(trial))
		// Inject duplicates to exercise ID tie-breaking.
		if n > 4 {
			sites[3].Pos = sites[1].Pos
		}
		v := geom.Pt(rng.Float64(), rng.Float64())
		for _, k := range []int{0, 1, 2, n / 2, n, n + 3} {
			got := KNearest(sites, v, k)
			want := kNearestRef(sites, v, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d k=%d: got %v, want %v", trial, n, k, got, want)
			}
		}
	}
}

// kNearestRef is the original full-sort implementation, kept as the oracle.
func kNearestRef(sites []Site, v geom.Point, k int) []int {
	type ds struct {
		d  float64
		id int
	}
	all := make([]ds, len(sites))
	for i, s := range sites {
		all[i] = ds{d: s.Pos.Dist2(v), id: s.ID}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	if k < 0 {
		k = 0
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	sort.Ints(out)
	return out
}
