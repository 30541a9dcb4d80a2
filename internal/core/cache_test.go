package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"laacad/internal/boundary"
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

// A removal (failure injection) reaches the per-node state as a renumbering
// plus one endpoint, so the cache survives it outside the failed node's
// neighborhood; an insertion appends a fresh slot and leaves the version
// stamp stale, so the next round recomputes every node. A seeded
// RemoveNode/AddNode/Step schedule — including edits before the first
// round, when no cache entry is valid yet, and back-to-back edits — must
// leave the cached engine bit-identical to the eager one (trace, positions,
// radii and, in Localized mode, messages and every round's boundary flags
// against a wholesale evaluation) in both modes, both orders, at 1 and 3
// workers, from a uniform start and from a corner pile, with every valid
// entry's outcome fresh after each round.
func TestDirtySetSurvivesTopologyChange(t *testing.T) {
	reg := region.UnitSquareKm()
	starts := map[string][]geom.Point{
		"uniform": region.PlaceUniform(reg, 50, rand.New(rand.NewSource(9))),
		"corner":  region.PlaceCorner(reg, 30, 0.2, rand.New(rand.NewSource(9))),
	}
	for name, start := range starts {
		for _, mode := range []Mode{Centralized, Localized} {
			for _, order := range []UpdateOrder{Synchronous, Sequential} {
				for _, workers := range []int{1, 3} {
					name, start, mode, order, workers := name, start, mode, order, workers
					t.Run(fmt.Sprintf("%s/%v/%v/workers=%d", name, mode, order, workers), func(t *testing.T) {
						t.Parallel()
						cfg := DefaultConfig(2)
						cfg.Mode, cfg.Order, cfg.Workers = mode, order, workers
						if mode == Localized {
							cfg.Gamma = 0.25
						}
						cfg.Epsilon = 5e-2
						cfg.MaxRounds = 30
						cfg.Seed = 9
						eagerTrace, eagerRes := runTopologySchedule(t, reg, start, cfg, true)
						cachedTrace, cachedRes := runTopologySchedule(t, reg, start, cfg, false)
						assertIdentical(t, "topology-change", eagerTrace, cachedTrace, eagerRes, cachedRes)
						if mode == Localized {
							assertSameMessages(t, "topology-change", eagerRes, cachedRes)
						}
					})
				}
			}
		}
	}
}

// runTopologySchedule steps an engine through cfg.MaxRounds rounds with a
// seeded schedule of removals and insertions between them, then finalizes.
// The schedule depends only on cfg.Seed and the node count, so the eager and
// the cached engine see the same edits.
func runTopologySchedule(t *testing.T, reg *region.Region, start []geom.Point, cfg Config, eager bool) ([]RoundStats, *Result) {
	t.Helper()
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.eager = eager
	rng := rand.New(rand.NewSource(cfg.Seed))
	for r := 0; r < cfg.MaxRounds; r++ {
		if r == 0 || rng.Intn(3) == 0 {
			for m := rng.Intn(3); m >= 0; m-- {
				if n := eng.Network().Len(); rng.Intn(2) == 0 && n > len(start)/2 {
					if err := eng.RemoveNode(rng.Intn(n)); err != nil {
						t.Fatal(err)
					}
				} else {
					eng.AddNode(geom.Pt(rng.Float64(), rng.Float64()))
				}
				assertRhoBoundsCover(t, fmt.Sprintf("before round %d", r+1), &eng.nodeState)
			}
		}
		var want []bool
		if cfg.Mode == Localized {
			want = boundary.AngularGap{}.Boundary(eng.Network())
		}
		label := fmt.Sprintf("round %d", r+1)
		if cfg.Order == Synchronous {
			stepComputesDirty(t, label, eng)
		} else {
			eng.Step()
			assertOutcomesFresh(t, label, &eng.nodeState)
			assertRhoBoundsCover(t, label, &eng.nodeState)
		}
		if want != nil && !slices.Equal(eng.boundary, want) {
			t.Fatalf("round %d: boundary flags differ from a wholesale evaluation", r+1)
		}
	}
	res, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return eng.Trace(), res
}

// Heals are local: removing one interior node of a converged deployment
// recomputes only the nodes whose exactness balls held it, performs no full
// index rebuild, and still ends bit-identical to the eager engine.
func TestHealRecomputesLocally(t *testing.T) {
	const n = 400
	start, pitch := wsn.UnitLattice(n, 8)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = pitch / 20
	cfg.MaxRounds = 400
	cfg.Seed = 1
	run := func(eager bool) (*Engine, []RoundStats, *Result) {
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = eager
		for r := 0; r < cfg.MaxRounds && !eng.Converged(); r++ {
			eng.Step()
		}
		if !eng.Converged() {
			t.Fatal("deployment did not converge before the failure")
		}
		victim, best := 0, math.Inf(1)
		for i, p := range eng.Positions() {
			if d := p.Dist(geom.Pt(0.5, 0.5)); d < best {
				victim, best = i, d
			}
		}
		before, rebuilds := eng.CacheCounters(), eng.Network().Rebuilds()
		if err := eng.RemoveNode(victim); err != nil {
			t.Fatal(err)
		}
		eng.Step()
		if !eager {
			// The bound: an exactness ball is 2.1·R̂, about two lattice
			// pitches, so about a dozen nodes hold the victim; a ball floored
			// at the search's density fallback (about 4.9 pitches at k=2)
			// would hold some 70, and a cold round would be all n-1.
			if got := eng.CacheCounters().BatchNodes - before.BatchNodes; got > n/16 {
				t.Errorf("the first heal round recomputed %d of %d nodes, want <= %d", got, n-1, n/16)
			}
			if got := eng.Network().Rebuilds(); got != rebuilds {
				t.Errorf("the heal rebuilt the spatial index %d times, want 0", got-rebuilds)
			}
		}
		for r := 0; r < cfg.MaxRounds && !eng.Converged(); r++ {
			eng.Step()
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return eng, eng.Trace(), res
	}
	_, eagerTrace, eagerRes := run(true)
	_, cachedTrace, cachedRes := run(false)
	assertIdentical(t, "heal", eagerTrace, cachedTrace, eagerRes, cachedRes)
}

// A heal's invalidation is local: removing one interior node of a converged
// lattice and running the heal to convergence rebuilds no per-cell ρ-bounds
// and runs no pair-scan (the removal and every heal round invalidate through
// the live bounds), and the heal's recomputations, cell visits and candidate
// visits are the same on a 400-node and on a 6,400-node lattice: nothing in
// it scales with n.
func TestHealInvalidationIsLocal(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var first CacheCounters
		for k, n := range []int{400, 6400} {
			start, pitch := wsn.UnitLattice(n, 0)
			cfg := DefaultConfig(2)
			cfg.Epsilon = pitch / 20
			cfg.MaxRounds = 400
			cfg.Seed = 1
			cfg.Workers = workers
			eng, err := New(region.UnitSquareKm(), start, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !eng.Converged() {
				t.Fatalf("n=%d: deployment did not converge before the failure", n)
			}
			victim, best := 0, math.Inf(1)
			for i, p := range eng.Positions() {
				if d := p.Dist(geom.Pt(0.5, 0.5)); d < best {
					victim, best = i, d
				}
			}
			before := eng.CacheCounters()
			if err := eng.RemoveNode(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			after := eng.CacheCounters()
			label := fmt.Sprintf("workers=%d n=%d", workers, n)
			if !eng.Converged() {
				t.Fatalf("%s: the heal did not converge", label)
			}
			if got := after.BoundRebuilds - before.BoundRebuilds; got != 0 {
				t.Errorf("%s: the heal rebuilt the ρ-bounds %d times, want 0", label, got)
			}
			if got := after.PairScans - before.PairScans; got != 0 {
				t.Errorf("%s: the heal ran %d pair-scans, want 0", label, got)
			}
			heal := CacheCounters{
				BatchNodes:      after.BatchNodes - before.BatchNodes,
				CellVisits:      after.CellVisits - before.CellVisits,
				CandidateVisits: after.CandidateVisits - before.CandidateVisits,
			}
			if heal.BatchNodes == 0 || heal.CandidateVisits == 0 {
				t.Fatalf("%s: the heal recomputed %d nodes and tested %d candidates; want some of each", label, heal.BatchNodes, heal.CandidateVisits)
			}
			if k == 0 {
				first = heal
			} else if heal != first {
				t.Errorf("%s: heal work %+v differs from n=400's %+v", label, heal, first)
			}
		}
	}
}

// The Stepper's live ρ-bounds belong to the network they were built on. A
// Renumber onto a different network — a shard's membership change, here a
// window shrunk to the left half of the lattice — must drop them, because
// the new grid's generation can equal the old one's and its cells are
// numbered differently; the next invalidation rebuilds them. The bounds must
// cover every valid entry after every operation, and every valid outcome
// must stay fresh.
func TestStepperBoundsFollowNetwork(t *testing.T) {
	reg := region.UnitSquareKm()
	start, pitch := wsn.UnitLattice(400, 8)
	cfg := DefaultConfig(2)
	cfg.Epsilon = pitch / 20
	cfg.Seed = 1
	st, err := NewStepper(reg, len(start), cfg)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(pos []geom.Point, from []int32) []int {
		net := wsn.New(pos, st.IndexGamma())
		net.SetBoundsHint(reg.BBox())
		ids := make([]int, len(pos))
		for i := range ids {
			ids[i] = i
		}
		st.Renumber(net, from)
		assertRhoBoundsCover(t, "renumber", &st.nodeState)
		return ids
	}
	steps := func(phase string, ids []int, rounds int) {
		for r := 1; r <= rounds; r++ {
			label := fmt.Sprintf("%s round %d", phase, r)
			st.StepAll(ids, r)
			assertRhoBoundsCover(t, label+" step", &st.nodeState)
			var s RoundStats
			st.Commit(ids, &s)
			assertRhoBoundsCover(t, label+" commit", &st.nodeState)
			assertOutcomesFresh(t, label, &st.nodeState)
		}
	}
	from := make([]int32, len(start))
	for i := range from {
		from[i] = -1
	}
	ids := attach(start, from)
	steps("whole", ids, 3)
	if !st.boundsLive {
		t.Fatal("the rounds over the whole lattice never built the ρ-bounds")
	}
	gen := st.net.GridShape().Gen
	var left []geom.Point
	from = from[:0]
	for i, p := range st.net.Positions() {
		if p.X < 0.5 {
			left = append(left, p)
			from = append(from, int32(i))
		}
	}
	ids = attach(left, from)
	if got := st.net.GridShape().Gen; got != gen {
		t.Fatalf("the window network is at grid generation %d, the whole one at %d; the test needs them equal", got, gen)
	}
	// Outcomes whose balls reach past the window read nodes it no longer
	// holds; the shard engine drops them the same way (enforceWindow).
	st.DropUnless(ids, func(i int, rho float64) bool { return st.net.Position(i).X+rho < 0.5 })
	assertRhoBoundsCover(t, "window", &st.nodeState)
	steps("window", ids, 3)
}

// A Synchronous round computes exactly its dirty set: on the lattice heal of
// TestHealRecomputesLocally and its Localized twin, at 1 and 3 workers, every
// Step computes as many regions as there were invalid entries before it and
// reuses every other node, every valid entry's outcome stays fresh, and a
// Localized round's messages (the hits' recorded costs, charged in one sum)
// equal the eager engine's.
func TestSynchronousRoundComputesOnlyDirty(t *testing.T) {
	const n = 400
	start, pitch := wsn.UnitLattice(n, 8)
	reg := region.UnitSquareKm()
	for _, mode := range []Mode{Centralized, Localized} {
		for _, workers := range []int{1, 3} {
			mode, workers := mode, workers
			t.Run(fmt.Sprintf("%v/workers=%d", mode, workers), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(2)
				cfg.Mode, cfg.Workers = mode, workers
				if mode == Localized {
					cfg.Gamma = 0.25
				}
				cfg.Epsilon = pitch / 20
				cfg.MaxRounds = 400
				cfg.Seed = 1
				eager, err := New(reg, start, cfg)
				if err != nil {
					t.Fatal(err)
				}
				eager.eager = true
				cached, err := New(reg, start, cfg)
				if err != nil {
					t.Fatal(err)
				}
				converge := func(phase string) {
					for r := 0; r < cfg.MaxRounds && !cached.Converged(); r++ {
						label := fmt.Sprintf("%s round %d", phase, r+1)
						want, wantDone := eager.Step()
						got, gotDone := stepComputesDirty(t, label, cached)
						if got != want || gotDone != wantDone {
							t.Fatalf("%s: stats %+v (converged %v), eager %+v (converged %v)", label, got, gotDone, want, wantDone)
						}
					}
					if !cached.Converged() {
						t.Fatalf("%s did not converge", phase)
					}
				}
				converge("deploy")
				victim, best := 0, math.Inf(1)
				for i, p := range cached.Positions() {
					if d := p.Dist(geom.Pt(0.5, 0.5)); d < best {
						victim, best = i, d
					}
				}
				for _, e := range []*Engine{eager, cached} {
					if err := e.RemoveNode(victim); err != nil {
						t.Fatal(err)
					}
				}
				converge("heal")
			})
		}
	}
}

// stepComputesDirty steps e once and checks that the round computed exactly
// the nodes whose cache entries were invalid before it and served every other
// node from the cache, and that every valid entry's outcome is still fresh
// afterwards (assertOutcomesFresh).
func stepComputesDirty(t *testing.T, label string, e *Engine) (RoundStats, bool) {
	t.Helper()
	n, dirty, before := e.net.Len(), dirtyCount(e), e.CacheCounters()
	stats, done := e.Step()
	after := e.CacheCounters()
	if got := after.BatchNodes - before.BatchNodes; got != uint64(dirty) {
		t.Fatalf("%s: computed %d regions, want the %d invalid entries", label, got, dirty)
	}
	if got := after.CacheHits - before.CacheHits; got != uint64(n-dirty) {
		t.Fatalf("%s: %d cache hits, want %d", label, got, n-dirty)
	}
	assertOutcomesFresh(t, label, &e.nodeState)
	assertRhoBoundsCover(t, label, &e.nodeState)
	return stats, done
}

// assertRhoBoundsCover checks the invariant the inverse invalidation queries
// prune by: while the per-cell ρ-bounds are live (built for the attached
// network, at its current grid generation), every valid entry's exactness
// radius is at most its cell's bound and at most rhoMax.
func assertRhoBoundsCover(t *testing.T, label string, ns *nodeState) {
	t.Helper()
	if !ns.boundsLive || ns.boundGen != ns.net.GridShape().Gen {
		return
	}
	for i := range ns.cache {
		c := &ns.cache[i]
		if !c.valid {
			continue
		}
		ci := ns.net.CellOfNode(i)
		if ci >= len(ns.rhoBound) || c.rho > ns.rhoBound[ci] || c.rho > ns.rhoMax {
			b := math.NaN()
			if ci < len(ns.rhoBound) {
				b = ns.rhoBound[ci]
			}
			t.Fatalf("%s: node %d's entry has ρ %v, its cell %d is bounded by %v (of %d cells), rhoMax %v",
				label, i, c.rho, ci, b, len(ns.rhoBound), ns.rhoMax)
		}
	}
}

// dirtyCount returns how many nodes e's next Step must compute: all of them
// when the cache is off or about to be flushed, otherwise the invalid
// entries.
func dirtyCount(e *Engine) int {
	n := e.net.Len()
	if !e.cacheEnabled() || e.cacheVer != e.net.Version() {
		return n
	}
	d := 0
	for i := range e.cache {
		if !e.cache[i].valid {
			d++
		}
	}
	return d
}

// assertOutcomesFresh checks the one-store invariant every cache hit relies
// on: between rounds, each valid entry's outcome in outs[i] equals a fresh
// computation at the current positions, and a Localized entry's recorded
// cost equals the fresh search's message cost. The fresh searches start from
// the density fallback, charge nothing and leave the counters as they were.
func assertOutcomesFresh(t *testing.T, label string, ns *nodeState) {
	t.Helper()
	var flags []bool
	if ns.cfg.Mode == Localized {
		flags = boundary.AngularGap{}.Boundary(ns.net)
	}
	batch := ns.batchNodes.Load()
	defer ns.batchNodes.Store(batch)
	s := NewScratch()
	for i := range ns.cache {
		c := &ns.cache[i]
		if !c.valid {
			continue
		}
		var fresh nodeOutcome
		if flags != nil {
			fresh, _ = ns.stepNodeLocalized(i, flags[i], nil, s)
			if s.msgs != c.cost {
				t.Fatalf("%s: node %d records cost %d, a fresh search sends %d", label, i, c.cost, s.msgs)
			}
		} else {
			fresh, _ = ns.stepNodeCentralized(i, 0, s)
		}
		if ns.outs[i] != fresh {
			t.Fatalf("%s: node %d holds outcome %+v under a valid entry, a fresh computation gives %+v", label, i, ns.outs[i], fresh)
		}
	}
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

// Regression: a paired RemoveNode+AddNode restores the node count, so the
// length check alone cannot tell that the nodes were renumbered under the
// cache. The removal must carry the cache into the new numbering itself (a
// renumbering plus the removed position as an endpoint), and the insertion
// must leave the next round to flush it. An early version kept all cache entries of a converged
// engine across the swap and replayed outcomes for the old node numbering.
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

// invalidationCounters returns only the counters that measure invalidation
// and index work — the subset that must stay flat across converged rounds
// (cache hits, by contrast, accumulate precisely then; kernel and scheduler
// counters track computation volume, not invalidation work).
func (c CacheCounters) invalidationCounters() CacheCounters {
	c.CacheHits = 0
	c.SpecUsed = 0
	c.Levels = 0
	c.LevelWidthMax = 0
	c.BatchNodes = 0
	c.BatchSizeHist = [6]uint64{}
	return c
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
// the hot path a build break. Such a round computes nothing and fans out
// nothing, so it allocates nothing; the trace append's amortized growth
// averages out below one allocation per round over the measured rounds.
const stepAllocCeiling = 0

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

// activeStepAllocCeiling is the committed allocs/op budget for an active
// round, where every node is recomputed and moves: the warm scratch kernel
// computes every node without allocating, and the bulk commit rebuilds the
// spatial index into the storage of the index it retires. What is left is
// the rebuild's cell-location fan-out, whose body and its ForWorker wrapper
// are two closures.
const activeStepAllocCeiling = 2

// Active-round allocations must stay within their budget too, whatever the
// node count (TestWarmRoundAllocsIndependentOfN covers every regime).
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
	if allocs > activeStepAllocCeiling {
		t.Errorf("active Step allocates %v/op, ceiling %d", allocs, activeStepAllocCeiling)
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
			refs, _, _ := centralizedRegionSoA(eng.Network(), reg, i, cfg.K, eng.cache[i].rho, s)
			chebyshevOfRefs(s, refs)
		}
	}
	sweep() // warm across all nodes
	if allocs := testing.AllocsPerRun(20, sweep); allocs > 0 {
		t.Errorf("warmed region+Chebyshev pipeline allocates %v per 120-node sweep, want 0", allocs)
	}
}
