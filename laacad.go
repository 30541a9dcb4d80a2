// Package laacad is a Go implementation of LAACAD — Load bAlancing k-Area
// Coverage through Autonomous Deployment (Li, Luo, Xin, Wang, He;
// ICDCS 2012) — together with every substrate the paper's evaluation rests
// on: computational geometry, k-order Voronoi diagrams, a wireless-sensor-
// network simulator with message accounting, coverage verification, energy
// models and the published baselines.
//
// LAACAD moves mobile sensor nodes so that a target area becomes k-covered
// (every point within sensing range of at least k nodes) while minimizing
// the maximum sensing range any node needs — balancing sensing load and
// thereby maximizing network lifetime. Each node repeatedly computes its
// k-order Voronoi dominating region and steps toward the region's Chebyshev
// center; at convergence its sensing range is the region's circumradius.
//
// # Quick start
//
// Every execution regime flows through one entry point: a Scenario (a
// replayable bundle of region, placement, node count and configuration)
// driven by Run under a context.
//
//	sc, err := laacad.LookupScenario("uniform") // 100 nodes, 2-coverage, 1 km²
//	if err != nil { ... }
//	res, err := laacad.Run(ctx, sc, laacad.WithWorkers(-1))
//	if err != nil { ... }
//	reg, _ := laacad.LookupRegionByName(sc.Region)
//	rep := laacad.VerifyCoverage(res.Positions, res.Radii, reg, 100)
//	fmt.Println(res.MaxRadius(), rep.KCovered(2)) // R*, true
//
// Cancelling ctx returns a partial Result; WithObserver streams per-round
// statistics (and enables early stop and failure injection mid-run);
// Runner.Snapshot/Resume checkpoint and continue a run bit-identically.
// See scenario.go for the full Scenario/Runner surface, NewEngine for
// step-by-step control, Localized mode for the fully distributed
// Algorithm 2 with message accounting, and the baseline helpers for the
// paper's Table I/II comparisons.
//
// # Parallelism and determinism
//
// Each node's dominating region depends only on the previous round's
// positions (Proposition 1), so a Synchronous round is embarrassingly
// parallel. Config.Workers sets the number of goroutines the engine fans
// the per-node region computations across (0 or 1 = serial, -1 = all
// CPUs); Finalize and DebugRegions use the same pool.
//
// The determinism contract: a run is a pure function of (initial
// positions, Config) — the worker count and goroutine scheduling never
// affect the outcome. Trajectories, traces, final positions and radii are
// bit-identical for every Workers value. The Chebyshev-center computation
// is fully deterministic (Welzl's algorithm over a permutation derived by
// hashing the input vertices — no RNG at all), and the one remaining
// randomized component, Localized-mode message-loss sampling, draws from a
// private stream derived from (Config.Seed, round, node ID) rather than
// from a shared sequential source. Deterministic replay therefore holds
// across machines and core counts: record (region, start, Config) and any
// run can be reproduced exactly.
//
// # Performance
//
// The dominating-region hot path runs on per-worker scratch arenas (zero
// heap allocations in steady state), and the Centralized engine keeps an
// incremental dirty-set: a node whose exactness neighborhood did not change
// reuses its previous round outcome bit-for-bit, which collapses the
// converged tail of a deployment. The cache and the structure-of-arrays
// region kernel are semantically invisible: the test suites diff them bit
// for bit against the eager engine and the scalar reference kernel. See
// README.md ("Performance") for the design and the tracked benchmark
// baselines (BENCH_*.json, cmd/bench).
package laacad

import (
	"math/rand"

	"laacad/internal/asciiplot"
	"laacad/internal/baseline"
	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/energy"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/sim"
	"laacad/internal/voronoi"
)

// Geometry types. These are aliases of the implementation types, so values
// returned by the library interoperate directly with the helpers below.
type (
	// Point is a point (or vector) in the plane.
	Point = geom.Point
	// Polygon is a simple polygon as a CCW vertex list.
	Polygon = geom.Polygon
	// Circle is a disk given by center and radius.
	Circle = geom.Circle
	// BBox is an axis-aligned bounding box.
	BBox = geom.BBox
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// SmallestEnclosingCircle computes the minimum enclosing circle of a point
// set with Welzl's algorithm — the Chebyshev-center primitive LAACAD uses.
// The computation is a pure, deterministic function of pts: the randomized
// insertion order that keeps Welzl's algorithm expected-O(n) is derived by
// hashing the input vertices, so no RNG is needed (or accepted — see the
// determinism contract above).
func SmallestEnclosingCircle(pts []Point) Circle {
	return geom.SmallestEnclosingCircle(pts)
}

// Region types and constructors.

// Region is a target deployment area: a simple outer polygon minus convex
// obstacle holes.
type Region = region.Region

// NewRegion builds a region from an outer polygon and optional convex holes.
func NewRegion(outer Polygon, holes ...Polygon) (*Region, error) {
	return region.New(outer, holes...)
}

// RectRegion returns the rectangular region [x0,x1]×[y0,y1].
func RectRegion(x0, y0, x1, y1 float64) *Region { return region.Rect(x0, y0, x1, y1) }

// UnitSquareKm returns the paper's 1 km² square target area.
func UnitSquareKm() *Region { return region.UnitSquareKm() }

// LShapeRegion returns a non-convex L-shaped demo region.
func LShapeRegion() *Region { return region.LShape() }

// CrossRegion returns a plus-shaped demo region.
func CrossRegion() *Region { return region.Cross() }

// SquareWithCircularObstacle returns the unit square with a circular
// obstacle (Fig. 8 scenario I).
func SquareWithCircularObstacle(center Point, r float64) *Region {
	return region.SquareWithCircularObstacle(center, r)
}

// SquareWithTwoObstacles returns the unit square with two obstacles (Fig. 8
// scenario II).
func SquareWithTwoObstacles() *Region { return region.SquareWithTwoObstacles() }

// Node placement helpers.

// PlaceUniform samples n node positions uniformly from the region.
func PlaceUniform(r *Region, n int, rng *rand.Rand) []Point {
	return region.PlaceUniform(r, n, rng)
}

// PlaceCorner packs n nodes into a corner patch of relative size frac — the
// paper's Fig. 5(a) initial deployment.
func PlaceCorner(r *Region, n int, frac float64, rng *rand.Rand) []Point {
	return region.PlaceCorner(r, n, frac, rng)
}

// Deployment engine.

// Config parameterizes a LAACAD run; see the field documentation in the
// core package. Construct with DefaultConfig and adjust.
type Config = core.Config

// Mode selects centralized or localized dominating-region computation.
type Mode = core.Mode

// Deployment modes.
const (
	// Centralized computes dominating regions from global knowledge.
	Centralized = core.Centralized
	// Localized runs the paper's Algorithm 2 (expanding-ring search) over
	// the WSN substrate with message accounting.
	Localized = core.Localized
)

// UpdateOrder selects how node moves are applied within a round.
type UpdateOrder = core.UpdateOrder

// Update orders.
const (
	// Synchronous applies all moves simultaneously at the end of a round.
	Synchronous = core.Synchronous
	// Sequential applies each move immediately, modeling nodes acting on
	// independent periodic clocks.
	Sequential = core.Sequential
)

// DefaultConfig returns the paper's default parameters for coverage order k.
func DefaultConfig(k int) Config { return core.DefaultConfig(k) }

// Engine runs LAACAD round by round; create with NewEngine.
type Engine = core.Engine

// Result is a finished deployment: final positions, per-node sensing ranges,
// convergence trace and message counts.
type Result = core.Result

// RoundStats is one round of a deployment trace.
type RoundStats = core.RoundStats

// NewEngine creates a deployment engine over reg starting from the given
// node positions.
func NewEngine(reg *Region, initial []Point, cfg Config) (*Engine, error) {
	return core.New(reg, initial, cfg)
}

// Coverage verification.

// CoverageReport summarizes grid-based k-coverage verification.
type CoverageReport = coverage.Report

// VerifyCoverage samples the region on a resolution×resolution grid and
// reports the coverage depth of the deployment.
func VerifyCoverage(positions []Point, radii []float64, reg *Region, resolution int) CoverageReport {
	return coverage.Verify(positions, radii, reg, resolution)
}

// VerifyCoverageWorkers is VerifyCoverage with the sample sweep fanned
// across worker goroutines (0 = serial, negative = all CPUs); the report is
// identical for every worker count.
func VerifyCoverageWorkers(positions []Point, radii []float64, reg *Region, resolution, workers int) CoverageReport {
	return coverage.VerifyWorkers(positions, radii, reg, resolution, workers)
}

// Energy model.

// EnergyModel maps a sensing range to an energy cost.
type EnergyModel = energy.Model

// DiskAreaEnergy is the paper's model E(r) = πr².
type DiskAreaEnergy = energy.DiskArea

// MaxLoad returns max_i E(r_i).
func MaxLoad(radii []float64, m EnergyModel) float64 { return energy.MaxLoad(radii, m) }

// TotalLoad returns Σ_i E(r_i).
func TotalLoad(radii []float64, m EnergyModel) float64 { return energy.TotalLoad(radii, m) }

// JainIndex quantifies load balance in (0, 1] (1 = perfectly balanced).
func JainIndex(loads []float64) float64 { return energy.JainIndex(loads) }

// k-order Voronoi diagrams (the geometric structure behind LAACAD).

// Site is a Voronoi generator: a node index with its position.
type Site = voronoi.Site

// VoronoiCell is one cell of a k-order diagram.
type VoronoiCell = voronoi.Cell

// VoronoiDiagram is a k-order Voronoi diagram clipped to a region.
type VoronoiDiagram = voronoi.Diagram

// KOrderVoronoi computes the k-order Voronoi diagram of sites over reg.
func KOrderVoronoi(sites []Site, k int, reg *Region) (*VoronoiDiagram, error) {
	return voronoi.KOrderDiagram(sites, k, reg)
}

// DominatingRegion returns the dominating region of self among others for
// coverage order k, clipped to the region — the set of points where fewer
// than k other nodes are closer.
func DominatingRegion(self Site, others []Site, k int, reg *Region) []Polygon {
	return voronoi.DominatingRegion(self, others, k, reg.Pieces())
}

// Baselines (paper Sec. V-C).

// BaiMinNodes2Coverage is the Bai et al. lower bound on node count for
// 2-coverage at common range r (Table I comparator).
func BaiMinNodes2Coverage(area, r float64) float64 {
	return baseline.BaiMinNodes2Coverage(area, r)
}

// AmmariLensNodes is the Ammari & Das lens-deployment node count for
// k-coverage at common range r (Table II comparator).
func AmmariLensNodes(k int, area, r float64) float64 {
	return baseline.AmmariLensNodes(k, area, r)
}

// TriangularCover returns a triangular-lattice 1-coverage deployment with
// sensing range r.
func TriangularCover(reg *Region, r float64) []Point {
	return baseline.TriangularCover(reg, r)
}

// MinNodesResult is the outcome of the min-node search of Sec. IV-C.
type MinNodesResult = baseline.MinNodesResult

// MinNodes searches for the minimum node count whose LAACAD deployment
// achieves max sensing range ≤ rs (the paper's min-node k-coverage
// adaptation).
func MinNodes(reg *Region, rs float64, cfg Config, seed int64) (*MinNodesResult, error) {
	return baseline.MinNodes(reg, rs, cfg, seed)
}

// Asynchronous (event-driven) execution — the paper's τ-periodic node
// clocks with finite motion speed, without the synchronous-round
// idealization.

// AsyncConfig parameterizes an event-driven deployment (activation period
// Tau, clock Jitter, motion Speed, MaxTime).
type AsyncConfig = sim.Config

// AsyncResult is the outcome of an asynchronous deployment, including the
// simulated time, activation count and total distance traveled.
type AsyncResult = sim.Result

// AsyncDeployment is an event-driven deployment in progress; it implements
// Runner, so laacad.Run drives it through the same interface as the
// synchronous engine.
type AsyncDeployment = sim.Deployment

// DefaultAsyncConfig returns asynchronous defaults for coverage order k.
func DefaultAsyncConfig(k int) AsyncConfig { return sim.DefaultConfig(k) }

// RenderDeployment draws node positions over the region's bounding box as a
// width×height ASCII grid — a quick visual check of a deployment.
func RenderDeployment(reg *Region, positions []Point, width, height int) string {
	return asciiplot.Scatter(reg.BBox(), width, height,
		asciiplot.Layer{Points: positions, Mark: 'o'})
}

// RenderConvergence draws the max-circumradius trace of a result as an ASCII
// line chart (the paper's Fig. 6 series).
func RenderConvergence(res *Result, width, height int) string {
	maxS := make([]float64, len(res.Trace))
	minS := make([]float64, len(res.Trace))
	for i, tr := range res.Trace {
		maxS[i] = tr.MaxCircumradius
		minS[i] = tr.MinCircumradius
	}
	return asciiplot.LineChart(width, height,
		asciiplot.Series{Name: "max circumradius", Ys: maxS, Mark: '*'},
		asciiplot.Series{Name: "min circumradius", Ys: minS, Mark: '.'},
	)
}
