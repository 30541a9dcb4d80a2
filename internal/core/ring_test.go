package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

func hexNetAndRegion(rows, cols int, pitch, gamma float64) (*wsn.Network, *region.Region, int) {
	pts := wsn.HexLattice(rows, cols, pitch)
	bb := geom.BBoxOf(pts)
	reg := region.Rect(bb.Min.X, bb.Min.Y, bb.Max.X, bb.Max.Y)
	return wsn.New(pts, gamma), reg, wsn.CenterIndex(pts)
}

func TestExpandingRingHopStaircase(t *testing.T) {
	// The paper's Fig. 2 claim: 1 hop for k=1, 2 hops for k=2..4, about 3
	// for k=5..12, on a regular lattice with γ slightly above the pitch.
	net, reg, center := hexNetAndRegion(25, 25, 0.04, 0.05)
	prev := 0
	for k := 1; k <= 12; k++ {
		probe := ExpandingRing(net, reg, center, k, 128, 0)
		if probe.Hops < prev {
			t.Errorf("k=%d: hops %d < previous %d (must be non-decreasing)", k, probe.Hops, prev)
		}
		prev = probe.Hops
		if probe.Neighbors <= k {
			t.Errorf("k=%d: only %d neighbors gathered", k, probe.Neighbors)
		}
		if probe.Messages <= 0 {
			t.Errorf("k=%d: no messages charged", k)
		}
		if len(probe.Region) == 0 {
			t.Errorf("k=%d: empty dominating region", k)
		}
	}
	one := ExpandingRing(net, reg, center, 1, 128, 0)
	if one.Hops != 1 {
		t.Errorf("k=1 hops = %d, want 1", one.Hops)
	}
	four := ExpandingRing(net, reg, center, 4, 128, 0)
	if four.Hops > 2 {
		t.Errorf("k=4 hops = %d, want <= 2", four.Hops)
	}
	twelve := ExpandingRing(net, reg, center, 12, 128, 0)
	if twelve.Hops > 4 {
		t.Errorf("k=12 hops = %d, want <= 4", twelve.Hops)
	}
}

// The ring-terminated region must match the dominating region computed from
// ALL nodes — the Lemma 1 exactness property.
func TestExpandingRingExactness(t *testing.T) {
	net, reg, center := hexNetAndRegion(15, 15, 0.05, 0.06)
	all := make([]voronoi.Site, net.Len())
	for i := range all {
		all[i] = voronoi.Site{ID: i, Pos: net.Position(i)}
	}
	for k := 1; k <= 5; k++ {
		probe := ExpandingRing(net, reg, center, k, 256, 0)
		global := voronoi.DominatingRegion(all[center], all, k, reg.Pieces())
		got := voronoi.RegionArea(probe.Region)
		want := voronoi.RegionArea(global)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("k=%d: ring region area %v != global %v", k, got, want)
		}
	}
}

func TestExpandingRingCap(t *testing.T) {
	// A sparse 2-node network: the ring for k=2 can never be dominated, so
	// the cap must stop the search.
	pts := []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.8)}
	reg := region.UnitSquareKm()
	net := wsn.New(pts, 0.1)
	probe := ExpandingRing(net, reg, 0, 2, 64, 0.5)
	if probe.Hops > 5 {
		t.Errorf("hops = %d, cap 0.5 with gamma 0.1 should stop at 5", probe.Hops)
	}
}

func TestExpandingRingDefaultsArcSamples(t *testing.T) {
	net, reg, center := hexNetAndRegion(9, 9, 0.05, 0.06)
	probe := ExpandingRing(net, reg, center, 1, 0, 0)
	if probe.Hops < 1 || len(probe.Region) == 0 {
		t.Errorf("probe with default samples failed: %+v", probe.Hops)
	}
}

func TestSequentialOrderConvergesAndCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Order = Sequential
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 300
	eng, err := New(reg, uniformStart(30, 55), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("sequential run did not converge in %d rounds", res.Rounds)
	}
	// Verify k-coverage via the pointwise definition on the result radii.
	for trial := 0; trial < 200; trial++ {
		v := geom.Pt(float64(trial%20)/20+0.025, float64(trial/20)/10+0.05)
		if !reg.Contains(v) {
			continue
		}
		depth := 0
		for i, p := range res.Positions {
			if p.Dist(v) <= res.Radii[i]+1e-9 {
				depth++
			}
		}
		if depth < 2 {
			t.Fatalf("point %v covered %d < 2 times", v, depth)
		}
	}
}

func TestUpdateOrderString(t *testing.T) {
	if Synchronous.String() != "synchronous" || Sequential.String() != "sequential" {
		t.Error("UpdateOrder strings wrong")
	}
	if UpdateOrder(9).String() == "" {
		t.Error("unknown order should still print")
	}
}

// The domination check samples the ρ/2 circle from the node state's
// direction table and the ring closure builds its 48-gon from ringTable;
// both must produce bitwise the points AppendCirclePoints does for the
// normalized ArcSamples (zero selects 64) and for (48, π/48).
func TestSampleTablesFollowConfig(t *testing.T) {
	reg := region.UnitSquareKm()
	c := geom.Circle{Center: geom.Pt(0.3, 0.7), R: 0.137}
	for _, arc := range []int{0, 8, 100} {
		cfg := DefaultConfig(2)
		cfg.Mode, cfg.Gamma, cfg.ArcSamples = Localized, 0.25, arc
		eng, err := New(reg, uniformStart(10, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := geom.AppendCirclePoints(nil, c, eng.cfg.ArcSamples, arcPhase)
		if got := eng.arc.AppendPoints(nil, c); !reflect.DeepEqual(got, want) {
			t.Errorf("arc_samples %d: table points differ from AppendCirclePoints(%d, %v)", arc, eng.cfg.ArcSamples, arcPhase)
		}
	}
	want := geom.AppendCirclePoints(nil, c, 48, math.Pi/48)
	if got := ringTable.AppendPoints(nil, c); !reflect.DeepEqual(got, want) {
		t.Error("ring table points differ from AppendCirclePoints(48, π/48)")
	}
}
