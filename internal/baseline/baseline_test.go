package baseline

import (
	"math"
	"testing"

	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/region"
)

func TestBaiFormula(t *testing.T) {
	// Spot value: |A| = 1, r = 0.05 → 4/(3√3·0.0025) ≈ 307.9.
	got := BaiMinNodes2Coverage(1, 0.05)
	want := 4.0 / (3 * math.Sqrt(3) * 0.0025)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %v, want %v", got, want)
	}
	// Scaling: doubling the range divides the count by 4.
	if math.Abs(BaiMinNodes2Coverage(1, 0.1)*4-got) > 1e-9 {
		t.Error("inverse-square scaling violated")
	}
}

func TestAmmariFormula(t *testing.T) {
	// Paper Table II: k=3, R*=8.77 m → N* ≈ 318. The paper states a 1 km²
	// area, but its Table I/II numbers are only consistent with |A| = 10⁴ m²
	// (e.g. Bai at N=1000, R*=3.035 gives 836 exactly for 10⁴ m²); we adopt
	// that effective area. See EXPERIMENTS.md.
	got := AmmariLensNodes(3, 1e4, 8.77)
	if math.Abs(got-318) > 2 {
		t.Errorf("k=3 lens nodes = %v, paper says ≈318", got)
	}
	// k=8, R*=14.32 → ≈318.
	got = AmmariLensNodes(8, 1e4, 14.32)
	if math.Abs(got-318) > 3 {
		t.Errorf("k=8 lens nodes = %v, paper says ≈318", got)
	}
	// Linear in k at fixed r.
	if math.Abs(AmmariLensNodes(6, 1, 0.1)/AmmariLensNodes(3, 1, 0.1)-2) > 1e-9 {
		t.Error("linear-in-k scaling violated")
	}
}

func TestTriangularCoverOneCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	r := 0.12
	pts := TriangularCover(reg, r)
	if len(pts) == 0 {
		t.Fatal("no lattice points")
	}
	radii := make([]float64, len(pts))
	for i := range radii {
		radii[i] = r
	}
	rep := coverage.Verify(pts, radii, reg, 80)
	if !rep.KCovered(1) {
		t.Errorf("triangular lattice does not 1-cover: %v (worst %v)", rep, rep.WorstPoint)
	}
	// Density sanity: ≈ |A| / (√3·r² · 3/2)… node count should be within 2x
	// of area/(pitch row spacing) = |A|/(√3r · 3r/2).
	expect := reg.Area() / (math.Sqrt(3) * r * 1.5 * r)
	if float64(len(pts)) < expect*0.8 || float64(len(pts)) > expect*2.5 {
		t.Errorf("lattice count %d far from expected ~%v", len(pts), expect)
	}
}

func TestMinNodesRejectsBadRange(t *testing.T) {
	if _, err := MinNodes(region.UnitSquareKm(), 0, core.DefaultConfig(1), 1); err == nil {
		t.Error("rs=0 should error")
	}
}

func TestMinNodesFindsFeasibleCount(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := core.DefaultConfig(1)
	cfg.Epsilon = 2e-3
	cfg.MaxRounds = 120
	rs := 0.25
	res, err := MinNodes(reg, rs, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRadius > rs {
		t.Errorf("achieved R* = %v > target %v", res.MaxRadius, rs)
	}
	if res.N < 4 || res.N > 40 {
		t.Errorf("suspicious node count %d for 1-coverage at r=%v", res.N, rs)
	}
	if res.Evaluations < 1 {
		t.Error("no evaluations recorded")
	}
	// The found deployment must actually 1-cover with the uniform range rs.
	radii := make([]float64, len(res.Result.Positions))
	for i := range radii {
		radii[i] = rs
	}
	rep := coverage.Verify(res.Result.Positions, radii, reg, 60)
	if !rep.KCovered(1) {
		t.Errorf("min-node deployment fails coverage: %v", rep)
	}
}
