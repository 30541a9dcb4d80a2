package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
)

// runWorkers executes a fixed-length run with the given worker count and
// returns the trace and finalized result for bitwise comparison.
func runWorkers(t *testing.T, reg *region.Region, start []geom.Point, cfg Config, workers int) ([]RoundStats, *Result) {
	t.Helper()
	cfg.Workers = workers
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatalf("New(workers=%d): %v", workers, err)
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		_, done := eng.Step()
		label := fmt.Sprintf("workers=%d round %d", workers, r+1)
		assertOutcomesFresh(t, label, &eng.nodeState)
		assertRhoBoundsCover(t, label, &eng.nodeState)
		if done {
			break
		}
	}
	res, err := eng.Finalize()
	if err != nil {
		t.Fatalf("Finalize(workers=%d): %v", workers, err)
	}
	return eng.Trace(), res
}

func assertIdentical(t *testing.T, label string, trace1, traceW []RoundStats, res1, resW *Result) {
	t.Helper()
	if !reflect.DeepEqual(trace1, traceW) {
		t.Errorf("%s: traces differ", label)
	}
	if !reflect.DeepEqual(res1.Positions, resW.Positions) {
		t.Errorf("%s: final positions differ", label)
	}
	if !reflect.DeepEqual(res1.Radii, resW.Radii) {
		t.Errorf("%s: final radii differ", label)
	}
	if res1.Rounds != resW.Rounds || res1.Converged != resW.Converged {
		t.Errorf("%s: rounds/converged differ: (%d,%v) vs (%d,%v)",
			label, res1.Rounds, res1.Converged, resW.Rounds, resW.Converged)
	}
}

// The determinism contract: for any seed, size and coverage order, every
// worker count produces a bit-identical trajectory — same per-round trace,
// same final positions and radii — because each node's randomness is derived
// from (seed, round, node), never from scheduling order.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	reg := region.UnitSquareKm()
	seeds := []int64{1, 2, 3}
	sizes := []int{50, 200}
	ks := []int{1, 2, 3}
	if testing.Short() {
		seeds, sizes, ks = []int64{1}, []int{50}, []int{2}
	}
	workerCounts := []int{2, 3, runtime.NumCPU()}
	for _, seed := range seeds {
		for _, n := range sizes {
			for _, k := range ks {
				seed, n, k := seed, n, k // pre-1.22 loopvar semantics
				t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d", seed, n, k), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(seed))
					start := region.PlaceUniform(reg, n, rng)
					cfg := DefaultConfig(k)
					cfg.Epsilon = 1e-3
					cfg.MaxRounds = 10 // equivalence needs rounds, not convergence
					cfg.Seed = seed
					trace1, res1 := runWorkers(t, reg, start, cfg, 1)
					for _, w := range workerCounts {
						traceW, resW := runWorkers(t, reg, start, cfg, w)
						assertIdentical(t, fmt.Sprintf("workers=%d", w), trace1, traceW, res1, resW)
					}
				})
			}
		}
	}
}

// Localized mode consumes randomness on two paths (Chebyshev centers and
// message-loss sampling); both must be schedule-independent — the ring
// query's reply order feeds the loss draws. ("ringmode=0" names the
// geometric ring query, the only one the engine has; the subtest keeps the
// cell name stable.)
func TestParallelLocalizedLossyDeterministic(t *testing.T) {
	t.Run("ringmode=0", func(t *testing.T) {
		reg := region.UnitSquareKm()
		rng := rand.New(rand.NewSource(7))
		start := region.PlaceUniform(reg, 40, rng)
		cfg := DefaultConfig(2)
		cfg.Mode = Localized
		cfg.Gamma = 0.25
		cfg.LossRate = 0.1
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 5
		cfg.Seed = 7
		trace1, res1 := runWorkers(t, reg, start, cfg, 1)
		traceR, resR := runWorkers(t, reg, start, cfg, 1) // repeat run: pure function of inputs
		assertIdentical(t, "rerun", trace1, traceR, res1, resR)
		traceW, resW := runWorkers(t, reg, start, cfg, runtime.NumCPU())
		assertIdentical(t, "localized+lossy", trace1, traceW, res1, resW)
		if res1.Messages != resW.Messages {
			t.Errorf("message totals differ: %d vs %d", res1.Messages, resW.Messages)
		}
	})
}

// Workers must not leak into Sequential results: the colored sweep is pure
// speedup, so any worker count — including the NumCPU sentinel resolution —
// reproduces the serial sweep exactly. (The dedicated colored-sweep matrix
// lives in colored_test.go; this guards the historical entry point.)
func TestSequentialIgnoresWorkers(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(5))
	start := region.PlaceUniform(reg, 30, rng)
	cfg := DefaultConfig(2)
	cfg.Order = Sequential
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 8
	cfg.Seed = 5
	trace1, res1 := runWorkers(t, reg, start, cfg, 1)
	traceW, resW := runWorkers(t, reg, start, cfg, runtime.NumCPU())
	assertIdentical(t, "sequential", trace1, traceW, res1, resW)
}

// DebugRegions (the Finalize/inspection fan-out path) is deterministic too.
func TestParallelDebugRegionsDeterministic(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(11))
	start := region.PlaceUniform(reg, 60, rng)
	mk := func(workers int) *Engine {
		cfg := DefaultConfig(2)
		cfg.Seed = 11
		cfg.Workers = workers
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	r1 := mk(1).DebugRegions()
	rW := mk(runtime.NumCPU()).DebugRegions()
	if !reflect.DeepEqual(r1, rW) {
		t.Error("DebugRegions differs between worker counts")
	}
}

// The Workers knob survives validation verbatim — the -1 "all CPUs"
// sentinel must stay in the Config so a recorded run replays portably on a
// machine with a different core count (resolution happens per fan-out via
// parallel.Workers).
func TestWorkersSentinelPreserved(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 10, rand.New(rand.NewSource(1)))
	for _, w := range []int{-1, 0, 1, 4} {
		cfg := DefaultConfig(1)
		cfg.Workers = w
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Config().Workers; got != w {
			t.Errorf("Workers=%d came back as %d; sentinel must be preserved", w, got)
		}
	}
}
