package laacad

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"laacad/internal/boundary"
	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/region"
	"laacad/internal/scenario"
	"laacad/internal/shard"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// Benchmarks: one per paper artifact (DESIGN.md §4) plus the ablations
// (§5). Each benchmark exercises the code path that regenerates the
// corresponding table or figure at a representative size, so `go test
// -bench=.` doubles as a performance regression harness for the whole
// reproduction pipeline.

func benchSites(n int, seed int64) []Site {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = Site{ID: i, Pos: Pt(rng.Float64(), rng.Float64())}
	}
	return sites
}

func benchStart(reg *Region, n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	return PlaceUniform(reg, n, rng)
}

// BenchmarkFig1KOrderVoronoi builds the 2-order Voronoi diagram of 30 nodes
// (Fig. 1's structure).
func BenchmarkFig1KOrderVoronoi(b *testing.B) {
	reg := UnitSquareKm()
	sites := benchSites(30, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KOrderVoronoi(sites, 2, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ExpandingRing runs the Algorithm 2 expanding-ring search for
// the central node of a hex lattice at k=4 (Fig. 2's measurement).
func BenchmarkFig2ExpandingRing(b *testing.B) {
	pts := wsn.HexLattice(25, 25, 0.04)
	bb := geomBBoxOf(pts)
	reg := RectRegion(bb.Min.X, bb.Min.Y, bb.Max.X, bb.Max.Y)
	center := wsn.CenterIndex(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := wsn.New(pts, 0.05)
		probe := core.ExpandingRing(net, reg, center, 4, 64, 0)
		if len(probe.Region) == 0 {
			b.Fatal("empty region")
		}
	}
}

func geomBBoxOf(pts []Point) BBox {
	out := BBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts {
		out = out.Expand(p)
	}
	return out
}

// BenchmarkFig5Deployment runs a full corner-start deployment to
// convergence at a reduced size (Fig. 5's workload).
func BenchmarkFig5Deployment(b *testing.B) {
	reg := UnitSquareKm()
	rng := rand.New(rand.NewSource(3))
	start := PlaceCorner(reg, 50, 0.1, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(2)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 150
		eng, err := NewEngine(reg, start, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Convergence measures one LAACAD round at the Fig. 6 scale
// (100 nodes, k=4) — the unit of the convergence trace.
func BenchmarkFig6Convergence(b *testing.B) {
	reg := UnitSquareKm()
	eng, err := NewEngine(reg, benchStart(reg, 100, 4), DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkFig7LoadSweep runs one cell of the Fig. 7 sweep (N=100, k=2,
// full deployment plus load computation).
func BenchmarkFig7LoadSweep(b *testing.B) {
	reg := UnitSquareKm()
	start := benchStart(reg, 100, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(2)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 150
		eng, err := NewEngine(reg, start, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		_ = MaxLoad(res.Radii, DiskAreaEnergy{})
		_ = TotalLoad(res.Radii, DiskAreaEnergy{})
	}
}

// BenchmarkTable1MinNode2Coverage measures one LAACAD round at the Table I
// scale (1000 nodes, k=2, 100×100 m).
func BenchmarkTable1MinNode2Coverage(b *testing.B) {
	reg := RectRegion(0, 0, 100, 100)
	cfg := DefaultConfig(2)
	cfg.Epsilon = 0.02
	eng, err := NewEngine(reg, benchStart(reg, 1000, 6), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkTable2LensComparison measures one LAACAD round at the Table II
// scale (180 nodes, k=6, 100×100 m).
func BenchmarkTable2LensComparison(b *testing.B) {
	reg := RectRegion(0, 0, 100, 100)
	cfg := DefaultConfig(6)
	cfg.Epsilon = 0.02
	eng, err := NewEngine(reg, benchStart(reg, 180, 7), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkFig8Obstacles runs a full deployment over the two-obstacle
// region (Fig. 8's workload) at a reduced size.
func BenchmarkFig8Obstacles(b *testing.B) {
	reg := SquareWithTwoObstacles()
	start := benchStart(reg, 60, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(2)
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 150
		eng, err := NewEngine(reg, start, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStepSize compares rounds-to-converge across step sizes
// (DESIGN.md ablation).
func BenchmarkAblationStepSize(b *testing.B) {
	reg := UnitSquareKm()
	start := benchStart(reg, 40, 9)
	for _, alpha := range []float64{0.25, 0.5, 1.0} {
		b.Run(f64Name(alpha), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(2)
				cfg.Alpha = alpha
				cfg.Epsilon = 1e-3
				cfg.MaxRounds = 300
				eng, err := NewEngine(reg, start, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func f64Name(v float64) string {
	switch v {
	case 0.25:
		return "alpha=0.25"
	case 0.5:
		return "alpha=0.50"
	default:
		return "alpha=1.00"
	}
}

// BenchmarkAblationLocalizedVsCentralized compares one round of dominating-
// region computation in both engine modes (50 nodes, k=2).
func BenchmarkAblationLocalizedVsCentralized(b *testing.B) {
	reg := UnitSquareKm()
	start := benchStart(reg, 50, 10)
	for _, mode := range []Mode{Centralized, Localized} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig(2)
			cfg.Mode = mode
			cfg.Gamma = 0.25
			eng, err := NewEngine(reg, start, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.DebugRegions()
			}
		})
	}
}

// BenchmarkKOrderVoronoiAlgorithms compares the direct dominating-region
// computation against the iterative-refinement diagram at k=3.
func BenchmarkKOrderVoronoiAlgorithms(b *testing.B) {
	reg := UnitSquareKm()
	sites := benchSites(25, 11)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sites {
				voronoi.DominatingRegion(s, sites, 3, reg.Pieces())
			}
		}
	})
	b.Run("diagram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := voronoi.KOrderDiagram(sites, 3, reg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWorkerCounts is the worker sweep for the parallel-step benchmarks:
// 1, 2, 4 and NumCPU (deduplicated and capped to available CPUs, so the
// sweep is meaningful on any machine).
func benchWorkerCounts() []int {
	counts := []int{1}
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		if w > runtime.NumCPU() {
			continue
		}
		if w != counts[len(counts)-1] {
			counts = append(counts, w)
		}
	}
	return counts
}

// BenchmarkStepParallel measures one synchronous LAACAD round across worker
// counts at two network sizes — the regression surface for the parallel
// round engine. The trajectory is bit-identical for every worker count, so
// the sub-benchmarks time the same work; with W workers on ≥W free cores
// the round should approach a W× speedup (region computations dominate and
// are embarrassingly parallel).
func BenchmarkStepParallel(b *testing.B) {
	reg := UnitSquareKm()
	for _, n := range []int{250, 1000} {
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				cfg := DefaultConfig(2)
				cfg.Epsilon = 1e-9 // keep every node moving for the whole run
				cfg.Workers = w
				eng, err := NewEngine(reg, benchStart(reg, n, 42), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}

// BenchmarkShardStep measures one synchronous round through the
// stripe-partitioned sharded engine across shard counts at two network
// sizes. shards=1 is the baseline (one shard owning the whole region, no
// halo traffic beyond the protocol's fixed skeleton); higher counts add the
// ρ-halo exchange overhead the sharding design must amortize. The
// trajectory is bit-identical to the shared-memory engine for every cell,
// so all sub-benchmarks time the same deployment work.
func BenchmarkShardStep(b *testing.B) {
	reg := UnitSquareKm()
	for _, n := range []int{250, 1000} {
		for _, s := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, s), func(b *testing.B) {
				cfg := DefaultConfig(2)
				cfg.Epsilon = 1e-9 // keep every node moving for the whole run
				eng, err := shard.New(reg, benchStart(reg, n, 42), cfg, s)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}

// BenchmarkFinalizeParallel measures the Finalize/DebugRegions fan-out (the
// other parallelized surface) at the Table I scale.
func BenchmarkFinalizeParallel(b *testing.B) {
	reg := UnitSquareKm()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := DefaultConfig(2)
			cfg.Workers = w
			eng, err := NewEngine(reg, benchStart(reg, 500, 43), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if regions := eng.DebugRegions(); len(regions) != 500 {
					b.Fatal("bad region count")
				}
			}
		})
	}
}

// BenchmarkFinalizeUnconverged times the Finalize of a capped, cancelled or
// stopped run. A lattice with n/150 displaced nodes (Workers 2, ε =
// 0.1/√n; γ = 4·pitch in Localized mode) is stepped four times, so most
// cache entries are valid and the last round's movers left the rest
// invalid. One op is one Finalize at those positions; the untimed first one
// also repairs the boundary flags the last round's moves disturbed. 100k
// runs only without -short.
func BenchmarkFinalizeUnconverged(b *testing.B) {
	sizes := []int{10000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, mode := range []Mode{Centralized, Localized} {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%v/n=%d", mode, n), func(b *testing.B) {
				pts, pitch := wsn.UnitLattice(n, n/150)
				cfg := DefaultConfig(2)
				cfg.Mode, cfg.Workers = mode, 2
				cfg.Epsilon = 0.1 / math.Sqrt(float64(n))
				if mode == Localized {
					cfg.Gamma = 4 * pitch
				}
				eng, err := NewEngine(UnitSquareKm(), pts, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 4; r++ {
					eng.Step()
				}
				if eng.Converged() {
					b.Fatal("the lattice converged; the benchmark times an unconverged Finalize")
				}
				if _, err := eng.Finalize(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Finalize(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGridBulkRebuild times the spatial index's bulk path, which the
// Synchronous commit takes when a quarter of the nodes or more moved: one
// SetPositions over a lattice, alternately shifted by a quarter pitch and
// back, plus the full rebuild it schedules.
func BenchmarkGridBulkRebuild(b *testing.B) {
	for _, n := range benchScaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 0)
			shifted := make([]Point, n)
			for i, p := range pts {
				shifted[i] = Pt(p.X+pitch/4, p.Y)
			}
			net := wsn.New(pts, pitch)
			net.Rebuild()
			sets := [2][]Point{shifted, pts}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.SetPositions(sets[i%2])
				net.Rebuild()
			}
		})
	}
}

// benchScaleSizes is the n-sweep of the scale benchmarks: 1k and 10k always,
// 100k only without -short (CI's bench smoke runs -short, so the 100k cells
// are exercised by the committed snapshots, not on shared runners).
func benchScaleSizes() []int {
	sizes := []int{1000, 10000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	return sizes
}

// BenchmarkScaleGridDynamic measures the steady-state index pattern of a
// large deployment: one node moves, then its neighborhood is queried. A
// throwaway index pays a full O(n) rebuild per move; an incremental one pays
// for the two touched cells only.
func BenchmarkScaleGridDynamic(b *testing.B) {
	for _, n := range benchScaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 0)
			net := wsn.New(pts, 0.05)
			net.Rebuild()
			net.NeighborsWithin(0, 3*pitch) // warm the lazy path too
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				p := pts[j]
				net.SetPosition(j, Pt(p.X, p.Y+0.25*pitch))
				net.SetPosition(j, p)
				if len(net.NeighborsWithin(j, 3*pitch)) == 0 {
					b.Fatal("no neighbors")
				}
			}
		})
	}
}

// BenchmarkScaleStepFewMovers measures Engine.Step in the few-movers regime
// (lattice start, 64 displaced nodes): after the first round populates the
// outcome cache, each round recomputes only the displaced neighborhoods.
// The round cost should track what moved, not what exists.
func BenchmarkScaleStepFewMovers(b *testing.B) {
	for _, n := range benchScaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 64)
			cfg := DefaultConfig(2)
			cfg.Epsilon = pitch / 50
			eng, err := NewEngine(UnitSquareKm(), pts, cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng.Step() // warm: compute and cache every node once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// healBatch is the number of seeded heals BenchmarkHealLattice times on one
// converged deployment before rebuilding it.
const healBatch = 16

// BenchmarkHealLattice times a local heal at scale: one op is one
// RemoveNode of a seeded interior node of a converged lattice (64 displaced
// nodes, ε = pitch/50, Workers = GOMAXPROCS) plus the Run that heals it to
// convergence again. The deployment converges once, outside the timer; each
// batch of healBatch heals then runs on a fresh engine over the converged
// positions (one cold round, also outside the timer), so every batch times
// the same seeded list of heals. A heal recomputes a few dozen nodes, so
// its cost should not grow with n; what does grow is the O(n) work left in
// a round.
func BenchmarkHealLattice(b *testing.B) {
	reg := UnitSquareKm()
	for _, n := range benchScaleSizes() {
		var converged []Point
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 64)
			cfg := DefaultConfig(2)
			cfg.Epsilon = pitch / 50
			cfg.Workers = runtime.GOMAXPROCS(0)
			deploy := func(start []Point) *Engine {
				eng, err := NewEngine(reg, start, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if !eng.Converged() {
					b.Fatalf("n=%d: the lattice did not converge in %d rounds", n, cfg.MaxRounds)
				}
				return eng
			}
			if converged == nil {
				converged = deploy(pts).Positions()
			}
			var eng *Engine
			var rng *rand.Rand
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%healBatch == 0 {
					b.StopTimer()
					eng, rng = deploy(converged), rand.New(rand.NewSource(1))
					b.StartTimer()
				}
				if err := eng.RemoveNode(healVictim(eng, rng)); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// healVictim draws a node of eng inside the central [0.2, 0.8]² square
// from rng.
func healVictim(eng *Engine, rng *rand.Rand) int {
	net := eng.Network()
	for {
		i := rng.Intn(net.Len())
		if p := net.Position(i); p.X >= 0.2 && p.X <= 0.8 && p.Y >= 0.2 && p.Y <= 0.8 {
			return i
		}
	}
}

// benchSeqWorkerCounts is the fixed worker sweep of the Sequential-order
// benchmarks. Unlike benchWorkerCounts it is not capped to NumCPU: the cells
// must exist on every machine so committed snapshots line up, and the
// colored-sweep schedule is bit-identical regardless (oversubscribed workers
// just time-share the cores).
func benchSeqWorkerCounts() []int { return []int{1, 2, 4} }

// BenchmarkSeqStepFewMovers measures one Sequential (Gauss–Seidel) round in
// the few-movers regime across worker counts — the regression surface for
// the graph-colored parallel sweep. The trajectory is bit-identical for
// every worker count; with W workers on ≥W free cores the dirty-node
// recomputations fan out across the color waves, so the round should
// approach the synchronous round's scaling.
func BenchmarkSeqStepFewMovers(b *testing.B) {
	for _, n := range benchScaleSizes() {
		for _, w := range benchSeqWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				pts, pitch := wsn.UnitLattice(n, 64)
				cfg := DefaultConfig(2)
				cfg.Order = Sequential
				cfg.Epsilon = pitch / 50
				cfg.Workers = w
				eng, err := NewEngine(UnitSquareKm(), pts, cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng.Step() // warm: compute and cache every node once
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}

// BenchmarkSeqStepActive measures a Sequential round with every node moving
// (epsilon ~ 0) — the mover-heavy regime where the colored schedule's wave
// depth, not the dirty-set size, bounds the parallel speedup.
func BenchmarkSeqStepActive(b *testing.B) {
	reg := UnitSquareKm()
	for _, w := range benchSeqWorkerCounts() {
		b.Run(fmt.Sprintf("n=1000/workers=%d", w), func(b *testing.B) {
			cfg := DefaultConfig(2)
			cfg.Order = Sequential
			cfg.Epsilon = 1e-9 // keep every node moving for the whole run
			cfg.Workers = w
			eng, err := NewEngine(reg, benchStart(reg, 1000, 42), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// BenchmarkSeqStepLevels measures Sequential rounds in the mover-heavy,
// sparse-interference regime — a quarter of the lattice displaced — where
// the level scheduler's layered waves (rather than the dirty-set size or a
// fixed wave budget) determine how much of the sweep parallelizes. Worker
// scaling here is the level schedule's regression surface: the serial
// reference (workers=1) never plans, and each wider run executes the same
// trajectory through batched waves.
func BenchmarkSeqStepLevels(b *testing.B) {
	for _, n := range benchScaleSizes() {
		for _, w := range benchSeqWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				pts, pitch := wsn.UnitLattice(n, n/4)
				cfg := DefaultConfig(2)
				cfg.Order = Sequential
				cfg.Epsilon = pitch / 50
				cfg.Workers = w
				eng, err := NewEngine(UnitSquareKm(), pts, cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng.Step() // warm: compute and cache every node once
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}

// BenchmarkScaleLocalizedFewMovers measures a Localized (Algorithm 2) round
// in the few-movers regime. Unlike the Centralized lattice, a Localized
// lattice start has a real transient: boundary nodes (ring-closed regions)
// push outward for ~20 rounds before settling, so the warm loop steps until
// fewer than n/128 nodes still move — the regime a long-lived deployment
// spends almost all of its life in. There the message-faithful cache lets
// unaffected nodes skip their expanding-ring searches while re-charging the
// recorded message cost, so the round cost tracks what moved while the
// per-round message count stays exactly equal to the eager run's.
func BenchmarkScaleLocalizedFewMovers(b *testing.B) {
	for _, n := range benchScaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 64)
			cfg := DefaultConfig(2)
			cfg.Mode = Localized
			cfg.Gamma = 3 * pitch
			cfg.Epsilon = pitch / 50
			eng, err := NewEngine(UnitSquareKm(), pts, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 30; r++ { // settle the boundary transient
				if st, done := eng.Step(); done || st.Moved <= n/128 {
					break
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.StopTimer()
			if eng.Network().MessageCount() == 0 {
				b.Fatal("no messages charged; accounting broken")
			}
		})
	}
}

// BenchmarkSeqLocalizedFewMovers measures a Sequential-order Localized round
// in the few-movers regime. The outcome cache already confines the
// expanding-ring searches to γ-ball-touched nodes, so whole-network boundary
// detection is the last O(n) term in the round — this is the regression
// surface for the incremental boundary-flag cache.
func BenchmarkSeqLocalizedFewMovers(b *testing.B) {
	for _, n := range benchScaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 64)
			cfg := DefaultConfig(2)
			cfg.Mode = Localized
			cfg.Order = Sequential
			cfg.Gamma = 3 * pitch
			cfg.Epsilon = pitch / 50
			eng, err := NewEngine(UnitSquareKm(), pts, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 30; r++ { // settle the boundary transient
				if st, done := eng.Step(); done || st.Moved <= n/128 {
					break
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.StopTimer()
			if eng.Network().MessageCount() == 0 {
				b.Fatal("no messages charged; accounting broken")
			}
		})
	}
}

// BenchmarkBoundaryDetector measures the AngularGap whole-network scan — the
// per-round boundary-detection cost a Localized run pays whenever flags
// cannot be served from the incremental cache (cold start, global writes).
func BenchmarkBoundaryDetector(b *testing.B) {
	for _, n := range []int{2500, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, pitch := wsn.UnitLattice(n, 0)
			net := wsn.New(pts, 3*pitch)
			net.Rebuild()
			det := boundary.AngularGap{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flags := det.Boundary(net)
				if !flags[0] {
					b.Fatal("corner lattice node must be a boundary node")
				}
			}
		})
	}
}

// BenchmarkWelzl measures the Chebyshev-center primitive on 64 points.
func BenchmarkWelzl(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Pt(rng.Float64(), rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SmallestEnclosingCircle(pts)
	}
}

// BenchmarkCoverageVerify measures grid verification at the scale used by
// the experiment harness (100 nodes, 100×100 grid).
func BenchmarkCoverageVerify(b *testing.B) {
	reg := UnitSquareKm()
	start := benchStart(reg, 100, 13)
	radii := make([]float64, len(start))
	for i := range radii {
		radii[i] = 0.15
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := coverage.Verify(start, radii, regionPtr(reg), 100)
		if rep.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

func regionPtr(r *Region) *region.Region { return r }

// BenchmarkLocalizedActive measures Algorithm 2 while nodes move, at one
// worker: the localized scenario's first ten rounds (100 nodes, the job kind
// that sets the daemon's latency tail), and the cold first Sequential round
// of square1km-localized (10k nodes, every node searching). Both are
// dominated by the per-node expanding-ring step — ring probes, the
// domination check's circle samples and boundary nodes' ring closure — with
// nothing served from the outcome cache.
func BenchmarkLocalizedActive(b *testing.B) {
	cases := []struct {
		name       string
		scenario   string
		sequential bool
		rounds     int
	}{
		{"localized/rounds=10", "localized", false, 10},
		{"square1km-localized-seq/cold", "square1km-localized", true, 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sc, err := scenario.Lookup(tc.scenario)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := sc.BuildRegion()
			if err != nil {
				b.Fatal(err)
			}
			start, err := sc.Initial(reg)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sc.Config
			cfg.Workers = 1
			if tc.sequential {
				cfg.Order = core.Sequential
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := core.New(reg, start, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for r := 0; r < tc.rounds; r++ {
					eng.Step()
				}
				b.StopTimer()
				if eng.Network().MessageCount() == 0 {
					b.Fatal("no messages charged; accounting broken")
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkNewRunner measures building a 10k-node scenario's runner: region
// decomposition, grid placement (a containment test per candidate point) and
// engine construction.
func BenchmarkNewRunner(b *testing.B) {
	for _, name := range []string{"square1km", "campus"} {
		b.Run(name, func(b *testing.B) {
			sc, err := scenario.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scenario.NewRunner(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
