package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// runEngine drives a fixed configuration to convergence (or MaxRounds) and
// returns the trace plus the finalized result for bitwise comparison. eager
// selects the reference engine, which recomputes every node every round.
func runEngine(t *testing.T, reg *region.Region, start []geom.Point, cfg Config, eager bool) ([]RoundStats, *Result) {
	t.Helper()
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.eager = eager
	for r := 0; r < cfg.MaxRounds; r++ {
		if _, done := eng.Step(); done {
			break
		}
	}
	res, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return eng.Trace(), res
}

// The dirty-set contract: the incremental engine is semantically invisible.
// Across seeds, sizes, coverage orders, worker counts and both update
// orders, the cached engine's trace, final positions and radii are
// bit-identical to the eager engine's (the cache forced off). This is the
// equivalence half of the PR's acceptance criteria; the determinism matrix
// in parallel_test.go covers worker-count invariance.
func TestDirtySetMatchesEagerEngine(t *testing.T) {
	reg := region.UnitSquareKm()
	seeds := []int64{1, 2, 3}
	sizes := []int{40, 150}
	ks := []int{1, 2, 3}
	orders := []UpdateOrder{Synchronous, Sequential}
	if testing.Short() {
		seeds, sizes, ks = []int64{1}, []int{40}, []int{2}
	}
	for _, seed := range seeds {
		for _, n := range sizes {
			for _, k := range ks {
				for _, order := range orders {
					seed, n, k, order := seed, n, k, order
					t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d/%v", seed, n, k, order), func(t *testing.T) {
						t.Parallel()
						rng := rand.New(rand.NewSource(seed))
						start := region.PlaceUniform(reg, n, rng)
						cfg := DefaultConfig(k)
						cfg.Epsilon = 1e-3
						cfg.MaxRounds = 60 // into the converged tail for most cells
						cfg.Seed = seed
						cfg.Order = order
						eagerTrace, eagerRes := runEngine(t, reg, start, cfg, true)

						workerCounts := []int{0}
						if order == Synchronous {
							workerCounts = append(workerCounts, 3, runtime.NumCPU())
						}
						for _, w := range workerCounts {
							cfg.Workers = w
							cachedTrace, cachedRes := runEngine(t, reg, start, cfg, false)
							assertIdentical(t, fmt.Sprintf("cache-on workers=%d", w),
								eagerTrace, cachedTrace, eagerRes, cachedRes)
						}
					})
				}
			}
		}
	}
}

// In the converged tail the cache must actually kick in: stepping a
// converged engine recomputes nothing, so the trailing rounds are nearly
// free. This pins the perf mechanism (not just the equivalence) so a
// regression that silently disables caching fails the suite.
func TestDirtySetReusesOutcomesWhenConverged(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 60, rand.New(rand.NewSource(5)))
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 200
	cfg.Seed = 5
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	converged := false
	for r := 0; r < cfg.MaxRounds && !converged; r++ {
		_, converged = eng.Step()
	}
	if !converged {
		t.Skip("deployment did not converge within MaxRounds; tail unreachable")
	}
	valid := 0
	for i := range eng.cache {
		if eng.cache[i].valid {
			valid++
		}
	}
	if valid != len(eng.cache) {
		t.Fatalf("converged engine has %d/%d valid cache entries, want all", valid, len(eng.cache))
	}
	// Further steps must preserve the all-valid cache and the trajectory.
	before := eng.Positions()
	eng.Step()
	for i, p := range eng.Positions() {
		if p != before[i] {
			t.Fatalf("node %d moved after convergence", i)
		}
	}
}

// Topology changes (failure injection) rebuild the network; the cache must
// be discarded, and the resulting run must still match an eager engine
// subjected to the same mutation schedule.
func TestDirtySetSurvivesTopologyChange(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 50, rand.New(rand.NewSource(9)))
	run := func(disable bool) ([]RoundStats, *Result) {
		cfg := DefaultConfig(2)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 30
		cfg.Seed = 9
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = disable
		for r := 0; r < cfg.MaxRounds; r++ {
			if r == 10 {
				if err := eng.RemoveNode(7); err != nil {
					t.Fatal(err)
				}
				eng.AddNode(geom.Pt(0.9, 0.9))
			}
			if _, done := eng.Step(); done {
				break
			}
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Trace(), res
	}
	eagerTrace, eagerRes := run(true)
	cachedTrace, cachedRes := run(false)
	assertIdentical(t, "topology-change", eagerTrace, cachedTrace, eagerRes, cachedRes)
}

// What-if edits: a seeded MoveNode schedule — including edits before the
// first round, when no cache exists yet — reaches the per-node state as
// explicit endpoints and must leave the cached engine bit-identical to the
// eager one (trace, positions, radii and messages) in both modes, both
// orders and at 1 and 3 workers.
func TestDirtySetMatchesEagerUnderMoveNode(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 50, rand.New(rand.NewSource(31)))
	for _, mode := range []Mode{Centralized, Localized} {
		for _, order := range []UpdateOrder{Synchronous, Sequential} {
			for _, workers := range []int{1, 3} {
				mode, order, workers := mode, order, workers
				t.Run(fmt.Sprintf("%v/%v/workers=%d", mode, order, workers), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig(2)
					cfg.Mode, cfg.Order, cfg.Workers = mode, order, workers
					if mode == Localized {
						cfg.Gamma = 0.25
					}
					cfg.Epsilon = 3e-2
					cfg.MaxRounds = 24
					cfg.Seed = 31
					run := func(eager bool) ([]RoundStats, *Result) {
						eng, err := New(reg, start, cfg)
						if err != nil {
							t.Fatal(err)
						}
						eng.eager = eager
						rng := rand.New(rand.NewSource(31))
						for r := 0; r < cfg.MaxRounds; r++ {
							if r%4 == 0 {
								for m := rng.Intn(3); m >= 0; m-- {
									p := geom.Pt(rng.Float64(), rng.Float64())
									if err := eng.MoveNode(rng.Intn(len(start)), p); err != nil {
										t.Fatal(err)
									}
								}
							}
							eng.Step()
						}
						res, err := eng.Finalize()
						if err != nil {
							t.Fatal(err)
						}
						return eng.Trace(), res
					}
					eagerTrace, eagerRes := run(true)
					cachedTrace, cachedRes := run(false)
					assertIdentical(t, "move-node", eagerTrace, cachedTrace, eagerRes, cachedRes)
					if mode == Localized {
						assertSameMessages(t, "move-node", eagerRes, cachedRes)
					}
				})
			}
		}
	}
}

// Regression: a paired RemoveNode+AddNode restores the node count AND can
// collide on the fresh network's mutation version (both counters restart at
// zero), so neither the length check nor the version check alone may be
// trusted — the swap must drop the cache explicitly. Before the fix, a
// converged engine (version still zero: no move was ever applied) kept all
// cache entries across the swap and replayed outcomes for the old node
// numbering.
func TestDirtySetFlushedByPairedTopologyChange(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 30, rand.New(rand.NewSource(27)))
	mk := func(disable bool) *Engine {
		cfg := DefaultConfig(2)
		cfg.Epsilon = reg.BBox().Diagonal() * 2 // every node converged from round one
		cfg.MaxRounds = 10
		cfg.Seed = 27
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = disable
		return eng
	}
	drive := func(eng *Engine) ([]RoundStats, *Result) {
		eng.Step() // converges immediately; net.Version() stays 0
		if err := eng.RemoveNode(4); err != nil {
			t.Fatal(err)
		}
		eng.AddNode(geom.Pt(0.02, 0.97)) // node count restored, version 0 again
		eng.Step()
		eng.Step()
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Trace(), res
	}
	eagerTrace, eagerRes := drive(mk(true))
	cachedTrace, cachedRes := drive(mk(false))
	assertIdentical(t, "paired-topology-change", eagerTrace, cachedTrace, eagerRes, cachedRes)
}

// Out-of-band position writes (direct Network mutation between Steps) must
// invalidate every affected entry: the engine detects them via the network's
// mutation version and flushes the cache wholesale, so a stale outcome can
// never leak into the next round.
func TestDirtySetFlushesOnExternalPositionWrite(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 40, rand.New(rand.NewSource(13)))
	run := func(disable bool) ([]RoundStats, *Result) {
		cfg := DefaultConfig(2)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 25
		cfg.Seed = 13
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = disable
		for r := 0; r < cfg.MaxRounds; r++ {
			if r == 8 {
				// Teleport a node behind the engine's back.
				eng.Network().SetPosition(3, geom.Pt(0.05, 0.95))
			}
			if _, done := eng.Step(); done {
				break
			}
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Trace(), res
	}
	eagerTrace, eagerRes := run(true)
	cachedTrace, cachedRes := run(false)
	assertIdentical(t, "external-write", eagerTrace, cachedTrace, eagerRes, cachedRes)
}

// The scaling acceptance criterion of the incremental spatial layer: in the
// few-movers regime at large n, Engine.Step must neither rebuild the grid
// from scratch nor fall back to the dense pair-scan — moves are absorbed as
// incremental bucket updates and invalidation runs as inverse range queries
// whose visit counts track what moved, not what exists.
func TestFewMoversStepAvoidsRebuildAndPairScan(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2500
	}
	start, pitch := wsn.UnitLattice(n, 16)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = pitch / 50
	cfg.Seed = 1
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step() // cold round: computes and caches every node
	rebuilds := eng.Network().Rebuilds()
	before := eng.CacheCounters()
	movedTotal := 0
	for r := 0; r < 5; r++ {
		st, done := eng.Step()
		movedTotal += st.Moved
		if done {
			t.Fatalf("converged at round %d; the displaced lattice should stay in the few-movers regime", st.Round)
		}
	}
	after := eng.CacheCounters()
	if got := eng.Network().Rebuilds(); got != rebuilds {
		t.Errorf("steady-state steps performed %d full grid rebuilds, want 0", got-rebuilds)
	}
	if after.PairScans != before.PairScans {
		t.Errorf("steady-state steps fell back to the dense pair-scan %d times, want 0",
			after.PairScans-before.PairScans)
	}
	if after.InverseScans == before.InverseScans {
		t.Error("inverse invalidation never ran despite nodes moving")
	}
	// The inverse queries must visit far fewer entries than the pair-scan
	// would have (valid ≈ n per round, movers ≈ movedTotal): demand at least
	// a 4× margin over the dense cost.
	dense := uint64(movedTotal) * uint64(n)
	if visits := after.CandidateVisits - before.CandidateVisits; visits*4 > dense {
		t.Errorf("inverse invalidation visited %d candidates over %d movers (dense cost %d): not local",
			visits, movedTotal, dense)
	}
	if moves := eng.Network().IncrementalMoves(); moves == 0 {
		t.Error("no incremental index updates recorded; moves went through the bulk path")
	}
}

// A fully converged step must do no invalidation or index work at all.
func TestConvergedStepDoesNoSpatialWork(t *testing.T) {
	start, _ := wsn.UnitLattice(900, 0)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = reg.BBox().Diagonal() // converged from round one
	cfg.Seed = 3
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := eng.Step(); !done {
		t.Fatal("expected immediate convergence")
	}
	rebuilds := eng.Network().Rebuilds()
	moves := eng.Network().IncrementalMoves()
	before := eng.CacheCounters()
	for r := 0; r < 3; r++ {
		eng.Step()
	}
	if eng.Network().Rebuilds() != rebuilds || eng.Network().IncrementalMoves() != moves {
		t.Error("converged steps touched the spatial index")
	}
	// Converged steps serve every node from the cache (hits accumulate by
	// design); everything that measures invalidation or index work must
	// stay flat.
	if eng.CacheCounters().invalidationCounters() != before.invalidationCounters() {
		t.Errorf("converged steps did invalidation work: %+v -> %+v", before, eng.CacheCounters())
	}
}

// The incremental index must be semantically invisible, end to end: a run
// whose grid is forced through a full from-scratch rebuild (and cache flush)
// before every round is bit-identical to the incrementally maintained run,
// across seeds, sizes, coverage orders and both update orders.
func TestIncrementalIndexMatchesForcedRebuildTrajectories(t *testing.T) {
	reg := region.UnitSquareKm()
	cells := []struct {
		seed int64
		n, k int
	}{{1, 60, 2}, {2, 150, 3}}
	orders := []UpdateOrder{Synchronous, Sequential}
	if testing.Short() {
		cells = cells[:1]
	}
	for _, cell := range cells {
		for _, order := range orders {
			cell, order := cell, order
			t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d/%v", cell.seed, cell.n, cell.k, order), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(cell.seed))
				start := region.PlaceUniform(reg, cell.n, rng)
				cfg := DefaultConfig(cell.k)
				cfg.Epsilon = 1e-3
				cfg.MaxRounds = 40
				cfg.Seed = cell.seed
				cfg.Order = order
				run := func(forceRebuild bool) ([]RoundStats, *Result) {
					eng, err := New(reg, start, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < cfg.MaxRounds; r++ {
						if forceRebuild {
							// A self-assigning bulk write dirties the whole
							// index (and flushes the cache via the version
							// bump): the next round rebuilds from scratch.
							eng.Network().SetPositions(eng.Positions())
						}
						if _, done := eng.Step(); done {
							break
						}
					}
					res, err := eng.Finalize()
					if err != nil {
						t.Fatal(err)
					}
					return eng.Trace(), res
				}
				rbTrace, rbRes := run(true)
				workerCounts := []int{0}
				if order == Synchronous {
					workerCounts = append(workerCounts, 3, runtime.NumCPU())
				}
				for _, w := range workerCounts {
					cfg.Workers = w
					incTrace, incRes := run(false)
					assertIdentical(t, fmt.Sprintf("incremental-vs-rebuild workers=%d", w),
						rbTrace, incTrace, rbRes, incRes)
				}
			})
		}
	}
}

// stepAllocCeiling is the committed allocs/op budget for a steady-state
// (fully converged, all-cache-valid) Engine.Step. The CI benchmark job
// fails when TestStepAllocsSteadyState trips, making alloc regressions on
// the hot path a build break. The budget covers the per-round
// [][]Polygon header slice, the trace append amortization, and test-harness
// noise — the geometry kernel itself contributes zero.
const stepAllocCeiling = 8

// Steady-state Step must stay within the committed allocation budget.
func TestStepAllocsSteadyState(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 80, rand.New(rand.NewSource(21)))
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 300
	cfg.Seed = 21
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	converged := false
	for r := 0; r < cfg.MaxRounds && !converged; r++ {
		_, converged = eng.Step()
	}
	if !converged {
		t.Fatal("deployment did not converge; cannot measure steady state")
	}
	allocs := testing.AllocsPerRun(100, func() { eng.Step() })
	if allocs > stepAllocCeiling {
		t.Errorf("steady-state Step allocates %v/op, ceiling %d", allocs, stepAllocCeiling)
	}
}

// Active-round allocations must stay bounded too: with every node moving
// (epsilon ~ 0), the scratch kernel caps the per-node cost at the outcome
// compaction (2 allocs) plus small per-round bookkeeping.
func TestStepAllocsActiveRounds(t *testing.T) {
	reg := region.UnitSquareKm()
	n := 100
	start := region.PlaceUniform(reg, n, rand.New(rand.NewSource(22)))
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-9 // keep every node moving
	cfg.MaxRounds = 1 << 20
	cfg.Seed = 22
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ { // warm buffers and arenas
		eng.Step()
	}
	allocs := testing.AllocsPerRun(20, func() { eng.Step() })
	perNode := allocs / float64(n)
	if perNode > 4 {
		t.Errorf("active Step allocates %.2f/node (total %v), want <= 4", perNode, allocs)
	}
}

// The production dominating-region pipeline of a live engine — the SoA
// region warm-started at the node's hint, plus its Chebyshev center — runs
// allocation-free on a warmed scratch.
func TestCentralizedRegionScratchZeroAllocs(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 120, rand.New(rand.NewSource(23)))
	cfg := DefaultConfig(2)
	cfg.Seed = 23
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step() // populate the warm-start hints
	eng.Network().Rebuild()
	s := NewScratch()
	sweep := func() {
		for i := 0; i < 120; i++ {
			refs, _, _ := centralizedRegionSoA(eng.Network(), reg, i, cfg.K, eng.rhoHint[i], s)
			chebyshevOfRefs(s, refs)
		}
	}
	sweep() // warm across all nodes
	if allocs := testing.AllocsPerRun(20, sweep); allocs > 0 {
		t.Errorf("warmed region+Chebyshev pipeline allocates %v per 120-node sweep, want 0", allocs)
	}
}
