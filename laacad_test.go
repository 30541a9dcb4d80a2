package laacad

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// These tests exercise the public façade end to end, the way a downstream
// user would.

func TestPublicQuickstartFlow(t *testing.T) {
	reg := UnitSquareKm()
	rng := rand.New(rand.NewSource(1))
	start := PlaceUniform(reg, 40, rng)

	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 250
	eng, err := NewEngine(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge in %d rounds", res.Rounds)
	}
	rep := VerifyCoverage(res.Positions, res.Radii, reg, 80)
	if !rep.KCovered(2) {
		t.Errorf("not 2-covered: %v", rep)
	}
	if res.MaxRadius() < res.MinRadius() {
		t.Error("radius extrema inverted")
	}
	model := DiskAreaEnergy{}
	if MaxLoad(res.Radii, model) <= 0 || TotalLoad(res.Radii, model) <= MaxLoad(res.Radii, model) {
		t.Error("load metrics inconsistent")
	}
	loads := make([]float64, len(res.Radii))
	for i, r := range res.Radii {
		loads[i] = model.Cost(r)
	}
	if j := JainIndex(loads); j < 0.5 || j > 1 {
		t.Errorf("Jain index %v out of expected range", j)
	}
}

func TestPublicRegions(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *Region
	}{
		{"unit", UnitSquareKm()},
		{"rect", RectRegion(0, 0, 2, 1)},
		{"lshape", LShapeRegion()},
		{"cross", CrossRegion()},
		{"obstacle1", SquareWithCircularObstacle(Pt(0.5, 0.5), 0.1)},
		{"obstacles2", SquareWithTwoObstacles()},
	} {
		if tc.reg.Area() <= 0 {
			t.Errorf("%s: non-positive area", tc.name)
		}
	}
	if _, err := NewRegion(Polygon{Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("degenerate region should error")
	}
	custom, err := NewRegion(Polygon{Pt(0, 0), Pt(2, 0), Pt(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(custom.Area()-2) > 1e-9 {
		t.Errorf("custom region area %v", custom.Area())
	}
}

func TestPublicVoronoi(t *testing.T) {
	reg := UnitSquareKm()
	sites := benchSites(12, 2)
	d, err := KOrderVoronoi(sites, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.TotalArea()-reg.Area()) > 1e-6 {
		t.Errorf("diagram does not partition: %v", d.TotalArea())
	}
	var sum float64
	for _, s := range sites {
		sum += polysArea(DominatingRegion(s, sites, 2, reg))
	}
	if math.Abs(sum-2*reg.Area()) > 1e-6 {
		t.Errorf("dominating regions sum %v, want %v", sum, 2*reg.Area())
	}
}

func polysArea(polys []Polygon) float64 {
	var a float64
	for _, p := range polys {
		a += p.Area()
	}
	return a
}

func TestPublicSmallestEnclosingCircle(t *testing.T) {
	c := SmallestEnclosingCircle([]Point{Pt(0, 0), Pt(2, 0)})
	if !c.Center.Eq(Pt(1, 0)) || math.Abs(c.R-1) > 1e-9 {
		t.Errorf("got %v", c)
	}
}

func TestPublicBaselines(t *testing.T) {
	if v := BaiMinNodes2Coverage(1e4, 3.035); math.Abs(v-836) > 1 {
		t.Errorf("Bai formula = %v, want ≈836 (paper Table I)", v)
	}
	if v := AmmariLensNodes(3, 1e4, 8.77); math.Abs(v-318) > 2 {
		t.Errorf("Ammari formula = %v, want ≈318 (paper Table II)", v)
	}
	reg := UnitSquareKm()
	pts := TriangularCover(reg, 0.15)
	if len(pts) == 0 {
		t.Error("no lattice points")
	}
	radii := make([]float64, len(pts))
	for i := range radii {
		radii[i] = 0.15
	}
	if rep := VerifyCoverage(pts, radii, reg, 60); !rep.KCovered(1) {
		t.Errorf("triangular cover fails: %v", rep)
	}
}

func TestPublicMinNodes(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Epsilon = 3e-3
	cfg.MaxRounds = 80
	res, err := MinNodes(UnitSquareKm(), 0.3, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.N < 2 || res.MaxRadius > 0.3 {
		t.Errorf("min nodes N=%d R*=%v", res.N, res.MaxRadius)
	}
}

func TestPublicEngineStepAndRender(t *testing.T) {
	reg := UnitSquareKm()
	eng, err := NewEngine(reg, benchStart(reg, 15, 3), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := eng.Step()
	if stats.Round != 1 || stats.MaxCircumradius <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	res, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	plot := RenderDeployment(reg, res.Positions, 30, 10)
	if !strings.Contains(plot, "o") {
		t.Error("deployment render missing nodes")
	}
	conv := RenderConvergence(res, 40, 8)
	if !strings.Contains(conv, "max circumradius") {
		t.Error("convergence render missing legend")
	}
}

func TestPublicLocalizedMode(t *testing.T) {
	reg := UnitSquareKm()
	cfg := DefaultConfig(1)
	cfg.Mode = Localized
	cfg.Gamma = 0.3
	cfg.Epsilon = 3e-3
	cfg.MaxRounds = 100
	eng, err := NewEngine(reg, benchStart(reg, 25, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Error("localized run should account messages")
	}
}

func TestModeStringPublic(t *testing.T) {
	if Centralized.String() == Localized.String() {
		t.Error("modes should stringify differently")
	}
}
