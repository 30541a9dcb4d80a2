package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"laacad/internal/boundary"
	"laacad/internal/coverage"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

func uniformStart(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

func TestConfigValidation(t *testing.T) {
	reg := region.UnitSquareKm()
	pts := uniformStart(5, 1)
	// Each rejection names the offending field by its wire name.
	bad := []struct {
		field string
		cfg   Config
	}{
		{"k", Config{K: 0, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10}},
		{"k=6", Config{K: 6, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10}},
		{"alpha", Config{K: 1, Alpha: 0, Epsilon: 1e-3, MaxRounds: 10}},
		{"alpha", Config{K: 1, Alpha: 1.5, Epsilon: 1e-3, MaxRounds: 10}},
		{"alpha", Config{K: 1, Alpha: math.NaN(), Epsilon: 1e-3, MaxRounds: 10}},
		{"epsilon", Config{K: 1, Alpha: 0.5, Epsilon: 0, MaxRounds: 10}},
		{"epsilon", Config{K: 1, Alpha: 0.5, Epsilon: math.NaN(), MaxRounds: 10}},
		{"max_rounds", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 0}},
		{"gamma", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, Mode: Localized}},
		{"arc_samples", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, ArcSamples: 4}},
		{"mode", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, Mode: Mode(9)}},
		{"order", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, Order: UpdateOrder(4)}},
		{"ring_cap", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, RingCap: -1}},
		{"loss_retries", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, Mode: Localized, Gamma: 0.3, LossRetries: -1}},
		{"loss_rate", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, MaxRounds: 10, LossRate: 0.1}}, // centralized
	}
	for _, c := range bad {
		if _, err := New(reg, pts, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want a rejection naming %q", c.field, err, c.field)
		}
	}
	if _, err := New(nil, pts, DefaultConfig(1)); err == nil {
		t.Error("nil region should be rejected")
	}
	if _, err := New(reg, pts, DefaultConfig(2)); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Centralized.String() != "centralized" || Localized.String() != "localized" {
		t.Error("mode strings wrong")
	}
	if Mode(7).String() == "" {
		t.Error("unknown mode should still print")
	}
}

func TestCentralizedConvergesAndKCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, k := range []int{1, 2, 3} {
		cfg := DefaultConfig(k)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 300
		eng, err := New(reg, uniformStart(30, 42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("k=%d: did not converge in %d rounds", k, res.Rounds)
		}
		rep := coverage.Verify(res.Positions, res.Radii, reg, 60)
		if !rep.KCovered(k) {
			t.Errorf("k=%d: not k-covered: %v (worst %v)", k, rep, rep.WorstPoint)
		}
		if res.MaxRadius() <= 0 || res.MinRadius() <= 0 {
			t.Errorf("k=%d: degenerate radii [%v, %v]", k, res.MinRadius(), res.MaxRadius())
		}
	}
}

// Prop. 4 byproduct: for α = 1 the max circumradius bound R̂ is
// non-increasing round over round.
func TestRhatMonotoneForAlphaOne(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Alpha = 1
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 200
	eng, err := New(reg, uniformStart(25, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		prev, cur := res.Trace[i-1].MaxRhat, res.Trace[i].MaxRhat
		if cur > prev*(1+1e-6)+1e-9 {
			t.Errorf("round %d: R̂ grew %v -> %v", res.Trace[i].Round, prev, cur)
		}
	}
}

// The corner-pile start of Fig. 5 must spread nodes across the whole region.
func TestCornerDeploymentSpreads(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(3))
	start := region.PlaceCorner(reg, 40, 0.1, rng)
	cfg := DefaultConfig(1)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 300
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bb := geom.BBoxOf(res.Positions)
	if bb.Width() < 0.7 || bb.Height() < 0.7 {
		t.Errorf("nodes did not spread: bbox %v x %v", bb.Width(), bb.Height())
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 60)
	if !rep.KCovered(1) {
		t.Errorf("corner start not 1-covered: %v", rep)
	}
}

// At convergence every node sits within ε of the Chebyshev center of its
// dominating region (the fixed-point condition of Algorithm 1).
func TestFixedPointCondition(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 300
	eng, err := New(reg, uniformStart(20, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i, polys := range eng.DebugRegions() {
		if len(polys) == 0 {
			continue
		}
		c, _ := geom.ChebyshevCenterInPlace(voronoi.VerticesInto(nil, polys))
		c = reg.ClampInside(c)
		if d := res.Positions[i].Dist(c); d > cfg.Epsilon*1.5 {
			t.Errorf("node %d is %v from its Chebyshev center (eps=%v)", i, d, cfg.Epsilon)
		}
	}
}

// The paper's invariants on engine results, not only on diagrams built from
// raw sites: after a run, the dominating regions at the final positions
// tile the region exactly k times (every point has exactly k nodes among
// its k nearest, so Σ|V^k_i| = k·|A|), and each reported radius is the
// circumradius R̂ of its node's region about the node, bit for bit.
func TestEngineRegionsTileKFold(t *testing.T) {
	regions := []struct {
		name string
		reg  func() *region.Region
	}{
		{"square", region.UnitSquareKm},
		{"obstacles2", region.SquareWithTwoObstacles},
		{"campus", region.Campus},
	}
	for _, rc := range regions {
		reg := rc.reg()
		for _, order := range []UpdateOrder{Synchronous, Sequential} {
			for k := 1; k <= 3; k++ {
				rc, reg, order, k := rc, reg, order, k
				t.Run(fmt.Sprintf("%s/%v/k=%d", rc.name, order, k), func(t *testing.T) {
					t.Parallel()
					start := region.PlaceUniform(reg, 80, rand.New(rand.NewSource(int64(k))))
					cfg := DefaultConfig(k)
					cfg.Order = order
					cfg.MaxRounds = 60
					cfg.Seed = int64(k)
					eng, err := New(reg, start, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					polys := eng.DebugRegions()
					var total float64
					for i, p := range polys {
						total += voronoi.RegionArea(p)
						want := voronoi.MaxDistFrom(res.Positions[i], p)
						if math.Float64bits(res.Radii[i]) != math.Float64bits(want) {
							t.Errorf("node %d: radius %v, region circumradius %v", i, res.Radii[i], want)
						}
					}
					want := float64(k) * reg.Area()
					if rel := math.Abs(total-want) / want; rel > 1e-12 {
						t.Errorf("regions sum to %v, want k·|A| = %v (relative error %.3g)", total, want, rel)
					}
				})
			}
		}
	}
}

// Sec. IV-C: for k ≥ 2 at convergence min and max sensing ranges are close
// (min-max fairness / load balancing).
func TestLoadBalanceForK3(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(3)
	cfg.Epsilon = 5e-4
	cfg.MaxRounds = 400
	eng, err := New(reg, uniformStart(45, 13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.MinRadius() / res.MaxRadius()
	if ratio < 0.55 {
		t.Errorf("min/max radius ratio = %v, want close to 1 for k=3", ratio)
	}
}

// Localized (Algorithm 2) and centralized dominating regions must agree for
// interior nodes — Lemma 1's exactness guarantee.
func TestLocalizedMatchesCentralizedForInteriorNodes(t *testing.T) {
	reg := region.UnitSquareKm()
	start := uniformStart(40, 17)
	mk := func(mode Mode) *Engine {
		cfg := DefaultConfig(2)
		cfg.Mode = mode
		cfg.Gamma = 0.25
		cfg.ArcSamples = 128
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	cEng, lEng := mk(Centralized), mk(Localized)
	cRegions := cEng.DebugRegions()
	lRegions := lEng.DebugRegions()
	isBoundary := (boundary.Hull{Tol: 0.18}).Boundary(cEng.Network())
	checked := 0
	for i := range cRegions {
		if isBoundary[i] {
			continue
		}
		checked++
		ca := voronoi.RegionArea(cRegions[i])
		la := voronoi.RegionArea(lRegions[i])
		if math.Abs(ca-la) > 1e-6*(1+ca) {
			t.Errorf("node %d: centralized area %v != localized area %v", i, ca, la)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d interior nodes checked; test too weak", checked)
	}
	if lEng.Network().MessageCount() == 0 {
		t.Error("localized mode should account messages")
	}
}

func TestLocalizedRunKCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Gamma = 0.3
	cfg.Epsilon = 2e-3
	cfg.MaxRounds = 150
	eng, err := New(reg, uniformStart(30, 19), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 50)
	if !rep.KCovered(2) {
		t.Errorf("localized run not 2-covered: %v (worst %v)", rep, rep.WorstPoint)
	}
	if res.Messages == 0 {
		t.Error("expected message accounting in localized mode")
	}
	perRound := int64(0)
	for _, tr := range res.Trace {
		perRound += tr.Messages
	}
	if perRound != res.Messages {
		t.Errorf("per-round messages %d != total %d", perRound, res.Messages)
	}
}

func TestObstaclesRespected(t *testing.T) {
	reg := region.SquareWithTwoObstacles()
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 300
	rng := rand.New(rand.NewSource(23))
	start := region.PlaceUniform(reg, 35, rng)
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Positions {
		if !reg.Contains(p) {
			t.Errorf("node %d at %v is outside the region (in an obstacle?)", i, p)
		}
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 60)
	if !rep.KCovered(2) {
		t.Errorf("obstacle region not 2-covered: %v (worst %v)", rep, rep.WorstPoint)
	}
}

func TestRemoveNodeFailureInjection(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 300
	eng, err := New(reg, uniformStart(25, 29), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill three nodes, then let the deployment self-heal.
	for i := 0; i < 3; i++ {
		if err := eng.RemoveNode(0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 22 {
		t.Fatalf("node count = %d, want 22", len(res.Positions))
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 50)
	if !rep.KCovered(2) {
		t.Errorf("post-failure deployment not 2-covered: %v", rep)
	}
}

func TestRemoveNodeErrors(t *testing.T) {
	reg := region.UnitSquareKm()
	eng, err := New(reg, uniformStart(3, 31), DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveNode(5); err == nil {
		t.Error("out-of-range removal should error")
	}
	if err := eng.RemoveNode(0); err != nil {
		t.Errorf("valid removal errored: %v", err)
	}
	if err := eng.RemoveNode(0); err == nil {
		t.Error("removal below K nodes should error")
	}
}

func TestAddNode(t *testing.T) {
	reg := region.UnitSquareKm()
	eng, err := New(reg, uniformStart(5, 33), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.AddNode(geom.Pt(0.5, 0.5))
	if eng.Network().Len() != 6 {
		t.Errorf("node count = %d, want 6", eng.Network().Len())
	}
	// A node added outside the region is clamped inside.
	eng.AddNode(geom.Pt(5, 5))
	p := eng.Network().Position(6)
	if !reg.Contains(p) {
		t.Errorf("added node at %v outside region", p)
	}
}

func TestDeterminism(t *testing.T) {
	reg := region.UnitSquareKm()
	run := func() *Result {
		cfg := DefaultConfig(2)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 60
		cfg.Seed = 99
		eng, err := New(reg, uniformStart(20, 37), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds differ: %d vs %d", a.Rounds, b.Rounds)
	}
	for i := range a.Positions {
		if !a.Positions[i].Eq(b.Positions[i]) {
			t.Fatalf("position %d differs: %v vs %v", i, a.Positions[i], b.Positions[i])
		}
	}
}

// Initial positions outside the region must be clamped in, and the engine
// must still converge.
func TestInitialClamping(t *testing.T) {
	reg := region.UnitSquareKm()
	pts := []geom.Point{geom.Pt(-1, -1), geom.Pt(2, 2), geom.Pt(0.5, 0.5), geom.Pt(0.1, 0.9)}
	cfg := DefaultConfig(1)
	cfg.Epsilon = 1e-3
	eng, err := New(reg, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < eng.Network().Len(); i++ {
		if !reg.Contains(eng.Network().Position(i)) {
			t.Errorf("initial node %d not clamped inside", i)
		}
	}
}

// The engine's trace bookkeeping is consistent: round numbers increase and
// stats are recorded per step.
func TestStepBookkeeping(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(1)
	eng, err := New(reg, uniformStart(10, 41), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := eng.Step()
	s2, _ := eng.Step()
	if s1.Round != 1 || s2.Round != 2 {
		t.Errorf("round numbers: %d, %d", s1.Round, s2.Round)
	}
	if eng.Round() != 2 || len(eng.Trace()) != 2 {
		t.Errorf("Round()=%d len(Trace)=%d", eng.Round(), len(eng.Trace()))
	}
	if s1.MaxCircumradius < s1.MinCircumradius {
		t.Error("max < min circumradius")
	}
	if eng.Config().K != 1 {
		t.Error("Config accessor broken")
	}
}

// Regression: an edit after convergence must reopen the run. Run and
// Finalize trusted the converged flag, so a second Run stepped no round and
// returned the moved node's stale radius as converged, leaving points
// covered fewer than k times. Both a write through Network() (the wholesale
// fallback) and MoveNode (the explicit edit) must make Run step again.
func TestEditAfterConvergenceStepsAgain(t *testing.T) {
	start, pitch := wsn.UnitLattice(100, 0)
	reg := region.UnitSquareKm()
	target := geom.Pt(0.93, 0.91)
	edits := []struct {
		name string
		edit func(*Engine) error
	}{
		{"network-write", func(e *Engine) error { e.Network().SetPosition(7, target); return nil }},
		{"move-node", func(e *Engine) error { return e.MoveNode(7, target) }},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Epsilon = pitch / 10
			eng, err := New(reg, start, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("first run did not converge in %d rounds", res.Rounds)
			}
			rounds := res.Rounds
			if err := tc.edit(eng); err != nil {
				t.Fatal(err)
			}
			if eng.Converged() {
				t.Error("engine still reports convergence after the edit")
			}
			res, err = eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds == rounds {
				t.Errorf("second Run stepped no round after the edit (Converged=%v)", res.Converged)
			}
			if rep := coverage.Verify(res.Positions, res.Radii, reg, 60); !rep.KCovered(cfg.K) {
				t.Errorf("result after the edit is not %d-covered: %v", cfg.K, rep)
			}
		})
	}
}
