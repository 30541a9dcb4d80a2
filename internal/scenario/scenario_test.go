package scenario

import (
	"context"
	"errors"
	"testing"

	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/snapshot"
)

func TestRegistriesHaveBuiltins(t *testing.T) {
	for _, name := range []string{"square", "lshape", "cross", "obstacle1", "obstacles2", "campus"} {
		if _, err := LookupRegion(name); err != nil {
			t.Errorf("region %q missing: %v", name, err)
		}
	}
	for _, name := range []string{"uniform", "corner", "cluster", "grid"} {
		if _, err := LookupPlacement(name); err != nil {
			t.Errorf("placement %q missing: %v", name, err)
		}
	}
	names := []string{"uniform", "corner", "cluster", "obstacle1", "obstacles2", "lshape", "cross", "localized", "async", "square1km", "campus"}
	if !testing.Short() {
		names = append(names, "square1km-100k") // 100k-point placement: skip in -short
	}
	for _, name := range names {
		sc, err := Lookup(name)
		if err != nil {
			t.Errorf("scenario %q missing: %v", name, err)
			continue
		}
		reg, err := sc.BuildRegion()
		if err != nil {
			t.Errorf("scenario %q region: %v", name, err)
			continue
		}
		pts, err := sc.Initial(reg)
		if err != nil {
			t.Errorf("scenario %q placement: %v", name, err)
			continue
		}
		if len(pts) != sc.N {
			t.Errorf("scenario %q produced %d points, want %d", name, len(pts), sc.N)
		}
		for i, p := range pts {
			if !reg.Contains(p) {
				t.Errorf("scenario %q point %d outside region", name, i)
				break
			}
		}
	}
	if len(All()) != len(Names()) {
		t.Errorf("All/Names disagree: %d vs %d", len(All()), len(Names()))
	}
}

func TestLookupUnknownNames(t *testing.T) {
	if _, err := LookupRegion("mars"); err == nil {
		t.Error("unknown region should error")
	}
	if _, err := LookupPlacement("sideways"); err == nil {
		t.Error("unknown placement should error")
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown scenario should error")
	}
	if err := Register(Scenario{Name: "bad", Region: "mars", Placement: "uniform"}); err == nil {
		t.Error("registering a scenario with an unknown region should error")
	}
	if err := Register(Scenario{Name: "bad", Region: "square", Placement: "sideways"}); err == nil {
		t.Error("registering a scenario with an unknown placement should error")
	}
	if err := Register(Scenario{Region: "square", Placement: "uniform"}); err == nil {
		t.Error("registering a nameless scenario should error")
	}
}

func TestInitialIsReplayable(t *testing.T) {
	sc, err := Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := sc.BuildRegion()
	a, _ := sc.Initial(reg)
	b, _ := sc.Initial(reg)
	for i := range a {
		if !a[i].Eq(b[i]) {
			t.Fatalf("placement not replayable at node %d", i)
		}
	}
	c, _ := sc.WithSeed(99).Initial(reg)
	same := true
	for i := range a {
		if !a[i].Eq(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("reseeded scenario produced identical placement")
	}
}

// quickScenario is a small, fast ad-hoc scenario for runner tests.
func quickScenario(seed int64) Scenario {
	cfg := core.DefaultConfig(1)
	cfg.Epsilon = 3e-3
	cfg.MaxRounds = 80
	cfg.Seed = seed
	return Scenario{
		Region: "square", Placement: "uniform", N: 14,
		Config: cfg,
	}
}

func TestRunSyncScenario(t *testing.T) {
	res, err := Run(context.Background(), quickScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge in %d rounds", res.Rounds)
	}
	reg, _ := LookupRegion("square")
	if rep := coverage.Verify(res.Positions, res.Radii, reg, 30); !rep.KCovered(1) {
		t.Errorf("not covered: min depth %d", rep.MinDepth)
	}
}

func TestRunAsyncScenarioThroughSameAPI(t *testing.T) {
	sc, err := Lookup("async")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 12
	sc.AsyncConfig.Epsilon = 3e-3
	sc.AsyncConfig.MaxTime = 400
	var epochs int
	res, err := Run(context.Background(), sc, WithObserver(func(r Runner, st core.RoundStats) error {
		if _, ok := AsyncDeployment(r); !ok {
			t.Error("async scenario should expose a sim.Deployment")
		}
		epochs++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 12 || len(res.Radii) != 12 {
		t.Fatalf("bad result shape: %d positions, %d radii", len(res.Positions), len(res.Radii))
	}
	if epochs == 0 || res.Rounds == 0 {
		t.Errorf("observer saw %d epochs, result reports %d", epochs, res.Rounds)
	}
	if len(res.Trace) != res.Rounds {
		t.Errorf("trace has %d entries for %d epochs", len(res.Trace), res.Rounds)
	}
}

func TestObserverEarlyStopAndAbort(t *testing.T) {
	var seen int
	res, err := Run(context.Background(), quickScenario(4),
		WithObserver(func(r Runner, st core.RoundStats) error {
			seen++
			if st.Round >= 3 {
				return core.ErrStop
			}
			return nil
		}))
	if err != nil {
		t.Fatalf("ErrStop must end the run cleanly, got %v", err)
	}
	if res.Rounds != 3 || seen != 3 {
		t.Errorf("early stop after round 3: rounds=%d observed=%d", res.Rounds, seen)
	}

	boom := errors.New("boom")
	res, err = Run(context.Background(), quickScenario(4),
		WithObserver(func(r Runner, st core.RoundStats) error { return boom }))
	if !errors.Is(err, boom) {
		t.Fatalf("observer error must propagate, got %v", err)
	}
	if res == nil || res.Rounds != 1 {
		t.Errorf("aborted run should still return the partial result, got %+v", res)
	}
}

func TestWithWorkersAndMaxRoundsOverride(t *testing.T) {
	res1, err := Run(context.Background(), quickScenario(5), WithMaxRounds(2))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Rounds != 2 || res1.Converged {
		t.Errorf("MaxRounds=2 override ignored: rounds=%d converged=%v", res1.Rounds, res1.Converged)
	}
	// The determinism contract: worker count never changes the outcome.
	resA, err := Run(context.Background(), quickScenario(6), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run(context.Background(), quickScenario(6), WithWorkers(-1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA.Positions {
		if !resA.Positions[i].Eq(resB.Positions[i]) || resA.Radii[i] != resB.Radii[i] {
			t.Fatalf("workers changed the outcome at node %d", i)
		}
	}
}

func TestSnapshotSinkAndRegistryResume(t *testing.T) {
	var states []*snapshot.State
	_, err := Run(context.Background(), quickScenario(7),
		WithSnapshotEvery(2, func(st *snapshot.State) error {
			states = append(states, st)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no checkpoints delivered")
	}
	st := states[0]
	if st.Kind != snapshot.KindEngine || st.Region != "square" || st.Round != 2 {
		t.Fatalf("unexpected checkpoint: kind=%q region=%q round=%d", st.Kind, st.Region, st.Round)
	}
	// Resume the earliest checkpoint through the registry and finish the
	// run: the outcome must be bit-identical to an uninterrupted run.
	full, err := Run(context.Background(), quickScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds != full.Rounds || resumed.Converged != full.Converged {
		t.Fatalf("resumed run diverged: rounds %d vs %d", resumed.Rounds, full.Rounds)
	}
	for i := range full.Positions {
		if !full.Positions[i].Eq(resumed.Positions[i]) || full.Radii[i] != resumed.Radii[i] {
			t.Fatalf("resume not bit-identical at node %d", i)
		}
	}
}

// cornerCoincidentSeeds are the corner seeds whose Sequential run drives a
// k=2 pair of nodes closer than geom.Eps apart (nodes 4 and 8 of seed 18
// reach 1.05e-9 after round 42). Before the coincidence rule each run
// panicked in the region kernel with "Bisector of coincident points".
var cornerCoincidentSeeds = []int64{18, 84, 105}

// TestCornerNearCoincidentPairsRun: the registered corner scenario, run
// Sequential at the seeds that produce near-coincident pairs, runs to
// convergence or to its round cap without a panic and returns a radius for
// every node.
func TestCornerNearCoincidentPairsRun(t *testing.T) {
	base, err := Lookup("corner")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range cornerCoincidentSeeds {
		sc := base.WithSeed(seed)
		sc.Config.Order = core.Sequential
		res, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Radii) != sc.N {
			t.Fatalf("seed %d: %d radii for %d nodes", seed, len(res.Radii), sc.N)
		}
	}
}
