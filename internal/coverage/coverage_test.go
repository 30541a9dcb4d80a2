package coverage

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
)

func TestVerifySingleDiskCoversAll(t *testing.T) {
	reg := region.UnitSquareKm()
	// One node at center with radius covering the whole square.
	rep := Verify([]geom.Point{geom.Pt(0.5, 0.5)}, []float64{1.0}, reg, 20)
	if !rep.KCovered(1) {
		t.Errorf("should be 1-covered: %v", rep)
	}
	if rep.KCovered(2) {
		t.Error("single node cannot 2-cover")
	}
	if rep.MinDepth != 1 || rep.MaxDepth != 1 {
		t.Errorf("depth = [%d, %d], want [1, 1]", rep.MinDepth, rep.MaxDepth)
	}
	if math.Abs(rep.MeanDepth-1) > 1e-9 {
		t.Errorf("mean depth = %v", rep.MeanDepth)
	}
}

func TestVerifyUncovered(t *testing.T) {
	reg := region.UnitSquareKm()
	// Tiny disk in a corner: most samples uncovered.
	rep := Verify([]geom.Point{geom.Pt(0.1, 0.1)}, []float64{0.05}, reg, 20)
	if rep.KCovered(1) {
		t.Error("should not be covered")
	}
	if rep.MinDepth != 0 {
		t.Errorf("min depth = %d, want 0", rep.MinDepth)
	}
	frac := rep.FracAtLeast(1)
	if frac <= 0 || frac >= 0.1 {
		t.Errorf("covered fraction = %v, want small positive", frac)
	}
	// Worst point must actually be uncovered.
	if rep.WorstPoint.Dist(geom.Pt(0.1, 0.1)) <= 0.05 {
		t.Errorf("worst point %v is covered", rep.WorstPoint)
	}
}

func TestVerifyDepthCounts(t *testing.T) {
	reg := region.Rect(0, 0, 1, 1)
	// Two stacked full-cover disks: depth 2 everywhere.
	pos := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5)}
	rep := Verify(pos, []float64{1, 1}, reg, 10)
	if !rep.KCovered(2) || rep.KCovered(3) {
		t.Errorf("depth classification wrong: %v", rep)
	}
	if rep.DepthHist[2] != rep.Samples {
		t.Errorf("hist = %v", rep.DepthHist)
	}
	if rep.FracAtLeast(2) != 1 || rep.FracAtLeast(3) != 0 {
		t.Errorf("FracAtLeast wrong: %v %v", rep.FracAtLeast(2), rep.FracAtLeast(3))
	}
}

func TestVerifyHistOverflowBin(t *testing.T) {
	reg := region.Rect(0, 0, 1, 1)
	n := 20
	pos := make([]geom.Point, n)
	radii := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Pt(0.5, 0.5)
		radii[i] = 1
	}
	rep := Verify(pos, radii, reg, 5)
	if rep.MaxDepth != n {
		t.Errorf("max depth = %d, want %d", rep.MaxDepth, n)
	}
	if rep.DepthHist[len(rep.DepthHist)-1] != rep.Samples {
		t.Errorf("overflow bin = %v", rep.DepthHist)
	}
	if !rep.KCovered(n) {
		t.Error("should be n-covered")
	}
}

func TestVerifyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Verify(make([]geom.Point, 2), make([]float64, 3), region.UnitSquareKm(), 5)
}

func TestVerifyRegionWithHole(t *testing.T) {
	hole := geom.RectPolygon(geom.BBox{Min: geom.Pt(0.4, 0.4), Max: geom.Pt(0.6, 0.6)})
	reg := region.MustNew(geom.RectPolygon(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}), hole)
	// Node inside would-be hole area irrelevant; cover from corner reaching
	// everything.
	rep := Verify([]geom.Point{geom.Pt(0, 0)}, []float64{1.5}, reg, 20)
	if !rep.KCovered(1) {
		t.Errorf("hole samples should be excluded: %v", rep)
	}
	full := region.UnitSquareKm().GridPoints(20)
	if rep.Samples >= len(full) {
		t.Error("hole should reduce sample count")
	}
}

func TestVerifyBoundaryTolerance(t *testing.T) {
	// A sample exactly at distance r must count as covered (closed disks).
	reg := region.Rect(0, 0, 1, 1)
	// Grid resolution 2 gives samples at 0.25/0.75; sensor at (0.25, 0.25)
	// with radius exactly reaching (0.75, 0.75).
	d := geom.Pt(0.25, 0.25).Dist(geom.Pt(0.75, 0.75))
	rep := Verify([]geom.Point{geom.Pt(0.25, 0.25)}, []float64{d}, reg, 2)
	if rep.MinDepth != 1 {
		t.Errorf("boundary sample not covered: %v", rep)
	}
}

func TestFracAtLeastEmpty(t *testing.T) {
	var rep Report
	if rep.FracAtLeast(1) != 0 {
		t.Error("empty report should report 0")
	}
	if rep.KCovered(1) {
		t.Error("empty report cannot be covered")
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Samples: 5, MinDepth: 1, MaxDepth: 3, MeanDepth: 2}
	if rep.String() == "" {
		t.Error("String should produce output")
	}
}

// VerifyWorkers must produce a bit-identical Report (including the MinDepth
// witness) for every worker count, across deployments with plenty of depth
// ties for the tie-break rule to resolve.
func TestVerifyWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		reg := region.UnitSquareKm()
		if trial%2 == 1 {
			reg = region.SquareWithTwoObstacles()
		}
		n := 20 + rng.Intn(120)
		pos := make([]geom.Point, n)
		radii := make([]float64, n)
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64(), rng.Float64())
			radii[i] = 0.02 + rng.Float64()*0.2
		}
		res := 30 + rng.Intn(60)
		serial := Verify(pos, radii, reg, res)
		for _, w := range []int{2, 3, 7, -1} {
			got := VerifyWorkers(pos, radii, reg, res, w)
			if !reflect.DeepEqual(serial, got) {
				t.Fatalf("trial %d workers=%d: report differs:\nserial %+v\nparallel %+v",
					trial, w, serial, got)
			}
		}
	}
}
