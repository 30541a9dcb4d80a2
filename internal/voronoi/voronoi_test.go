package voronoi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
)

func sitesFromPoints(pts []geom.Point) []Site {
	out := make([]Site, len(pts))
	for i, p := range pts {
		out[i] = Site{ID: i, Pos: p}
	}
	return out
}

func randomSites(n int, rng *rand.Rand) []Site {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return sitesFromPoints(pts)
}

func TestOrder1DiagramTwoSites(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := sitesFromPoints([]geom.Point{geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5)})
	d, err := KOrderDiagram(sites, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(d.Cells))
	}
	for _, c := range d.Cells {
		if math.Abs(c.Area()-0.5) > 1e-9 {
			t.Errorf("cell %v area = %v, want 0.5", c.Generators, c.Area())
		}
	}
	if math.Abs(d.TotalArea()-1) > 1e-9 {
		t.Errorf("total area = %v", d.TotalArea())
	}
}

func TestKOrderDiagramErrors(t *testing.T) {
	reg := region.UnitSquareKm()
	sites := randomSites(3, rand.New(rand.NewSource(1)))
	if _, err := KOrderDiagram(sites, 0, reg); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KOrderDiagram(sites, 4, reg); err == nil {
		t.Error("k > len(sites) should error")
	}
}

func TestKOrderDiagramPartition(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(2))
	sites := randomSites(12, rng)
	for k := 1; k <= 4; k++ {
		d, err := KOrderDiagram(sites, k, reg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := d.TotalArea(); math.Abs(got-reg.Area()) > 1e-6 {
			t.Errorf("k=%d: cells cover %v, want %v", k, got, reg.Area())
		}
		for _, c := range d.Cells {
			if len(c.Generators) != k {
				t.Errorf("k=%d: cell with %d generators", k, len(c.Generators))
			}
		}
	}
}

// Every sampled point's k nearest sites must equal the generator set of the
// cell containing it.
func TestKOrderCellsMatchKNearest(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(3))
	sites := randomSites(10, rng)
	for k := 1; k <= 3; k++ {
		d, err := KOrderDiagram(sites, k, reg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			v := geom.Pt(rng.Float64(), rng.Float64())
			want := KNearest(sites, v, k)
			cell := locate(d, v)
			if cell == nil {
				// Point can fall on a cell boundary; skip rare misses.
				continue
			}
			if !equalInts(cell.Generators, want) {
				// Boundary-adjacent points can legitimately disagree when
				// distances tie; verify the disagreement is a near-tie.
				if !nearTie(sites, v, cell.Generators, want) {
					t.Fatalf("k=%d: point %v in cell %v but k-nearest = %v",
						k, v, cell.Generators, want)
				}
			}
		}
	}
}

// locate returns the cell containing v, preferring cells where v is interior.
func locate(d *Diagram, v geom.Point) *Cell {
	for i := range d.Cells {
		for _, p := range d.Cells[i].Polys {
			if p.Contains(v) {
				return &d.Cells[i]
			}
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nearTie reports whether the symmetric difference of the two generator sets
// consists of sites nearly equidistant from v (numerical boundary case).
func nearTie(sites []Site, v geom.Point, a, b []int) bool {
	inA := map[int]bool{}
	for _, x := range a {
		inA[x] = true
	}
	inB := map[int]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var da, db []float64
	for _, x := range a {
		if !inB[x] {
			da = append(da, sites[x].Pos.Dist(v))
		}
	}
	for _, x := range b {
		if !inA[x] {
			db = append(db, sites[x].Pos.Dist(v))
		}
	}
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if math.Abs(da[i]-db[i]) > 1e-6 {
			return false
		}
	}
	return true
}

// Sum over all sites of the dominating-region area must equal k·|A|:
// every point is in exactly k dominating regions.
func TestDominatingRegionsCoverKTimes(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(4))
	sites := randomSites(15, rng)
	for k := 1; k <= 4; k++ {
		var total float64
		for _, s := range sites {
			polys := DominatingRegion(s, sites, k, reg.Pieces())
			total += RegionArea(polys)
		}
		want := float64(k) * reg.Area()
		if math.Abs(total-want) > 1e-6 {
			t.Errorf("k=%d: dominating regions total %v, want %v", k, total, want)
		}
	}
}

// The direct dominating-region algorithm and the k-order diagram must agree
// per site (equal areas; and direct pieces lie inside the diagram's region).
func TestDominatingRegionMatchesDiagram(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(5))
	sites := randomSites(9, rng)
	for k := 1; k <= 3; k++ {
		d, err := KOrderDiagram(sites, k, reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			direct := DominatingRegion(s, sites, k, reg.Pieces())
			fromDiagram := d.DominatingRegionOf(s.ID)
			a1, a2 := RegionArea(direct), RegionArea(fromDiagram)
			if math.Abs(a1-a2) > 1e-6 {
				t.Errorf("k=%d site %d: direct area %v != diagram area %v", k, s.ID, a1, a2)
			}
		}
	}
}

// Dominating region membership check against the Prop. 1 definition on
// random interior points.
func TestDominatingRegionPointwise(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(6))
	sites := randomSites(12, rng)
	k := 3
	for _, s := range sites {
		polys := DominatingRegion(s, sites, k, reg.Pieces())
		for trial := 0; trial < 100; trial++ {
			v := geom.Pt(rng.Float64(), rng.Float64())
			// Count how many others are strictly closer.
			closer := 0
			for _, o := range sites {
				if o.ID != s.ID && o.Pos.Dist2(v) < s.Pos.Dist2(v) {
					closer++
				}
			}
			inRegion := false
			for _, p := range polys {
				if p.Contains(v) {
					inRegion = true
					break
				}
			}
			want := closer <= k-1
			if inRegion != want {
				// Allow boundary cases where the closer-count flips within
				// numerical tolerance of a bisector.
				if !bisectorBoundary(sites, s, v) {
					t.Fatalf("site %d point %v: in=%v want=%v (closer=%d)",
						s.ID, v, inRegion, want, closer)
				}
			}
		}
	}
}

// bisectorBoundary reports whether v is within tolerance of a bisector
// between s and some other site.
func bisectorBoundary(sites []Site, s Site, v geom.Point) bool {
	ds := s.Pos.Dist(v)
	for _, o := range sites {
		if o.ID == s.ID {
			continue
		}
		if math.Abs(o.Pos.Dist(v)-ds) < 1e-6 {
			return true
		}
	}
	return false
}

func TestDominatingRegionCoincidentSites(t *testing.T) {
	// Two nodes stacked at the same point plus one elsewhere: ties broken by
	// index, and areas must still sum to k·|A|.
	reg := region.UnitSquareKm()
	sites := []Site{
		{ID: 0, Pos: geom.Pt(0.3, 0.3)},
		{ID: 1, Pos: geom.Pt(0.3, 0.3)},
		{ID: 2, Pos: geom.Pt(0.7, 0.7)},
	}
	for k := 1; k <= 2; k++ {
		var total float64
		for _, s := range sites {
			total += RegionArea(DominatingRegion(s, sites, k, reg.Pieces()))
		}
		want := float64(k) * reg.Area()
		if math.Abs(total-want) > 1e-6 {
			t.Errorf("k=%d: total %v, want %v", k, total, want)
		}
	}
	// With k=1, the lower-index coincident node wins the shared half.
	r0 := RegionArea(DominatingRegion(sites[0], sites, 1, reg.Pieces()))
	r1 := RegionArea(DominatingRegion(sites[1], sites, 1, reg.Pieces()))
	if r0 <= 0 || r1 > 1e-9 {
		t.Errorf("tie-break: r0=%v r1=%v", r0, r1)
	}
}

func TestDominatingRegionPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	DominatingRegion(Site{}, nil, 0, nil)
}

func TestDominatingRegionWithHoles(t *testing.T) {
	hole := geom.RectPolygon(geom.BBox{Min: geom.Pt(0.4, 0.4), Max: geom.Pt(0.6, 0.6)})
	reg := region.MustNew(geom.RectPolygon(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}), hole)
	rng := rand.New(rand.NewSource(8))
	var sites []Site
	for len(sites) < 10 {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if reg.Contains(p) {
			sites = append(sites, Site{ID: len(sites), Pos: p})
		}
	}
	k := 2
	var total float64
	for _, s := range sites {
		polys := DominatingRegion(s, sites, k, reg.Pieces())
		for _, p := range polys {
			if !reg.Contains(p.Centroid()) {
				t.Fatalf("piece centroid inside hole or outside region")
			}
		}
		total += RegionArea(polys)
	}
	want := float64(k) * reg.Area()
	if math.Abs(total-want) > 1e-6 {
		t.Errorf("total %v, want %v", total, want)
	}
}

func TestVerticesAndMaxDist(t *testing.T) {
	polys := []geom.Polygon{
		{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)},
		{geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(2, 3)},
	}
	vs := VerticesInto(nil, polys)
	if len(vs) != 6 {
		t.Fatalf("len = %d", len(vs))
	}
	if d := MaxDistFrom(geom.Pt(0, 0), polys); math.Abs(d-math.Hypot(2, 3)) > 1e-9 {
		t.Errorf("MaxDistFrom = %v", d)
	}
	if MaxDistFrom(geom.Pt(0, 0), nil) != 0 {
		t.Error("empty polys should give 0")
	}
}

// KNearest returns the IDs of the k generators nearest to v, using the same
// index tie-breaking as the diagram construction — the reference the k-order
// cells are checked against. It keeps a bounded selection buffer of the k
// best candidates instead of sorting all n sites — O(n·k) worst case but
// O(n + k²) on typical inputs, versus O(n log n) for the full sort.
func KNearest(sites []Site, v geom.Point, k int) []int {
	if k > len(sites) {
		k = len(sites)
	}
	if k <= 0 {
		return []int{}
	}
	type ds struct {
		d  float64
		id int
	}
	less := func(a, b ds) bool {
		if a.d != b.d {
			return a.d < b.d
		}
		return a.id < b.id
	}
	best := make([]ds, 0, k)
	for _, s := range sites {
		c := ds{d: s.Pos.Dist2(v), id: s.ID}
		if len(best) == k && !less(c, best[k-1]) {
			continue
		}
		// Insert c at its sorted position, dropping the current worst when
		// the buffer is full.
		if len(best) < k {
			best = append(best, c)
		} else {
			best[k-1] = c
		}
		for i := len(best) - 1; i > 0 && less(best[i], best[i-1]); i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
	}
	out := make([]int, len(best))
	for i, b := range best {
		out[i] = b.id
	}
	sort.Ints(out)
	return out
}

func TestKNearest(t *testing.T) {
	sites := sitesFromPoints([]geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0),
	})
	got := KNearest(sites, geom.Pt(0.1, 0), 2)
	if !equalInts(got, []int{0, 1}) {
		t.Errorf("KNearest = %v", got)
	}
	got = KNearest(sites, geom.Pt(2.9, 0), 10) // k larger than n clamps
	if len(got) != 4 {
		t.Errorf("clamped KNearest len = %d", len(got))
	}
}

// The dominating region of every site must contain the site itself (a
// generator is always among the k nearest to its own position).
func TestDominatingRegionContainsSelf(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(10))
	sites := randomSites(20, rng)
	for k := 1; k <= 3; k++ {
		for _, s := range sites {
			polys := DominatingRegion(s, sites, k, reg.Pieces())
			found := false
			for _, p := range polys {
				if p.Contains(s.Pos) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("k=%d: site %d not inside its dominating region", k, s.ID)
			}
		}
	}
}

// For k = N (every generator dominates everywhere), each dominating region
// is the whole region.
func TestDominatingRegionKEqualsN(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(11))
	sites := randomSites(5, rng)
	for _, s := range sites {
		polys := DominatingRegion(s, sites, len(sites), reg.Pieces())
		if math.Abs(RegionArea(polys)-reg.Area()) > 1e-9 {
			t.Errorf("site %d: area %v, want full region", s.ID, RegionArea(polys))
		}
	}
}
