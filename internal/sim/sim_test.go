package sim

import (
	"context"

	"math/rand"
	"strings"
	"testing"

	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/geom"
	"laacad/internal/region"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Sim
	var got []int
	s.Schedule(2, func() { got = append(got, 2) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(3, func() { got = append(got, 3) })
	// Same-timestamp events run FIFO.
	s.ScheduleAt(1, func() { got = append(got, 10) })
	n := s.Run(10)
	if n != 4 {
		t.Fatalf("processed %d events", n)
	}
	want := []int{1, 10, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v, want 10", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	var s Sim
	ran := 0
	s.Schedule(1, func() { ran++ })
	s.Schedule(5, func() { ran++ })
	s.Run(2)
	if ran != 1 {
		t.Errorf("ran %d events before t=2, want 1", ran)
	}
	s.Run(10)
	if ran != 2 {
		t.Errorf("ran %d events total, want 2", ran)
	}
}

func TestSchedulerHalt(t *testing.T) {
	var s Sim
	ran := 0
	s.Schedule(1, func() { ran++; s.Halt() })
	s.Schedule(2, func() { ran++ })
	s.Run(10)
	if ran != 1 {
		t.Errorf("halt did not stop execution: ran=%d", ran)
	}
	// A later Run resumes.
	s.Run(10)
	if ran != 2 {
		t.Errorf("resume failed: ran=%d", ran)
	}
}

func TestSchedulerClampsPastTimes(t *testing.T) {
	var s Sim
	s.Schedule(5, func() {})
	s.Run(5)
	fired := false
	s.ScheduleAt(1, func() { fired = true }) // in the past: clamp to now
	s.Schedule(-3, func() {})                // negative delay: clamp to now
	s.Run(5)
	if !fired {
		t.Error("past-scheduled event never fired")
	}
}

func TestConfigValidation(t *testing.T) {
	reg := region.UnitSquareKm()
	pts := []geom.Point{geom.Pt(0.5, 0.5)}
	// Each rejection names the offending field by its wire name.
	bad := []struct {
		field string
		cfg   Config
	}{
		{"k", Config{K: 0, Alpha: 0.5, Epsilon: 1e-3, Tau: 1, MaxTime: 10}},
		{"k=2", Config{K: 2, Alpha: 0.5, Epsilon: 1e-3, Tau: 1, MaxTime: 10}},
		{"alpha", Config{K: 1, Alpha: 0, Epsilon: 1e-3, Tau: 1, MaxTime: 10}},
		{"epsilon", Config{K: 1, Alpha: 0.5, Epsilon: 0, Tau: 1, MaxTime: 10}},
		{"tau", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, Tau: 0, MaxTime: 10}},
		{"max_time", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, Tau: 1, MaxTime: 0}},
		{"jitter", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, Tau: 1, MaxTime: 10, Jitter: 1}},
		{"jitter", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, Tau: 1, MaxTime: 10, Jitter: -0.5}},
		// A negative count can never be reached, so no node would settle.
		{"stable_activations", Config{K: 1, Alpha: 0.5, Epsilon: 1e-3, Tau: 1, MaxTime: 10, StableActivations: -2}},
	}
	for _, c := range bad {
		if _, err := NewDeployment(reg, pts, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want a rejection naming %q", c.field, err, c.field)
		}
	}
	if _, err := NewDeployment(nil, pts, DefaultConfig(1)); err == nil {
		t.Error("nil region should be rejected")
	}
}

func asyncStart(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

func TestAsyncDeploymentConvergesAndCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = 2e-3
	cfg.MaxTime = 1000
	cfg.Seed = 3
	res, err := Deploy(reg, asyncStart(25, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge by t=%v (activations %d)", res.Time, res.Activations)
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 50)
	if !rep.KCovered(2) {
		t.Errorf("async deployment not 2-covered: %v", rep)
	}
	if res.Activations == 0 || res.MaxRadius() <= 0 {
		t.Errorf("suspicious result: %+v", res)
	}
}

func TestAsyncFiniteSpeedTravelsAndCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(1)
	cfg.Epsilon = 3e-3
	cfg.Speed = 0.02 // km per second: 20 m/s of simulated crawl
	cfg.MaxTime = 3000
	cfg.Seed = 4
	res, err := Deploy(reg, asyncStart(16, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTravel <= 0 {
		t.Error("finite-speed run should record travel")
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 40)
	if !rep.KCovered(1) {
		t.Errorf("finite-speed deployment not covered: %v", rep)
	}
}

// With a very low speed cap and a short deadline the run must time out
// gracefully (Converged=false) while still reporting a usable snapshot.
func TestAsyncTimeoutGraceful(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(1)
	cfg.Speed = 1e-6
	cfg.MaxTime = 20
	cfg.Seed = 5
	res, err := Deploy(reg, asyncStart(10, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("crawling nodes cannot converge in 20s")
	}
	if len(res.Positions) != 10 || len(res.Radii) != 10 {
		t.Error("snapshot incomplete")
	}
}

func TestAsyncDeterminism(t *testing.T) {
	reg := region.UnitSquareKm()
	run := func() *Result {
		cfg := DefaultConfig(1)
		cfg.Epsilon = 3e-3
		cfg.MaxTime = 300
		cfg.Seed = 6
		res, err := Deploy(reg, asyncStart(12, 11), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Activations != b.Activations || a.Time != b.Time {
		t.Fatalf("non-deterministic: %d@%v vs %d@%v", a.Activations, a.Time, b.Activations, b.Time)
	}
	for i := range a.Positions {
		if !a.Positions[i].Eq(b.Positions[i]) {
			t.Fatalf("position %d differs", i)
		}
	}
}

// A checkpoint must always record the run's ORIGINAL time budget, even
// across multiple checkpoint/resume generations: storing the remaining
// slice instead would double-subtract the time already consumed.
func TestAsyncSnapshotPreservesOriginalMaxTime(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(1)
	cfg.Speed = 1e-6 // crawl: the run never converges inside the budget
	cfg.MaxTime = 50
	cfg.Seed = 14

	stopAfter := func(d *Deployment, epochs int) {
		d.SetObserver(func(st core.RoundStats) error {
			if st.Round >= epochs {
				return core.ErrStop
			}
			return nil
		})
	}

	d, err := NewDeployment(reg, asyncStart(6, 15), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopAfter(d, 10)
	if _, err := d.RunAsync(context.Background()); err != nil {
		t.Fatal(err)
	}
	st1, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Config.MaxTime != 50 || st1.Time < 9 {
		t.Fatalf("gen-1 checkpoint: MaxTime=%v Time=%v, want 50 and ≈10", st1.Config.MaxTime, st1.Time)
	}

	// Second generation: resume, run 10 more epochs, checkpoint again.
	d2, err := Resume(reg, st1)
	if err != nil {
		t.Fatal(err)
	}
	stopAfter(d2, st1.Round+10)
	if _, err := d2.RunAsync(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := d2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Config.MaxTime != 50 {
		t.Fatalf("gen-2 checkpoint lost the original budget: MaxTime=%v, want 50", st2.Config.MaxTime)
	}
	if st2.Time <= st1.Time {
		t.Fatalf("cumulative time did not advance: %v then %v", st1.Time, st2.Time)
	}

	// Third generation still has the correct remainder available.
	d3, err := Resume(reg, st2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d3.RunAsync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 49.9 || res.Time > 50.1 {
		t.Fatalf("final cumulative time %v, want ≈50 (the original budget)", res.Time)
	}
}

// Asynchronous and synchronous fixed points optimize the same objective:
// final R* should land in the same ballpark.
func TestAsyncMatchesSyncObjective(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = 2e-3
	cfg.MaxTime = 1500
	cfg.Seed = 7
	res, err := Deploy(reg, asyncStart(30, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal interior radius for k=2, N=30 over 1 km²:
	// r ≈ sqrt(2·|A|/(N·π)) ≈ 0.146; allow generous slack for boundary.
	if res.MaxRadius() < 0.12 || res.MaxRadius() > 0.28 {
		t.Errorf("async R* = %v out of plausible range", res.MaxRadius())
	}
}
