// Package core implements the LAACAD deployment algorithm (Algorithm 1 of
// the paper): a synchronous round loop in which every node computes its
// k-order-Voronoi dominating region, moves a step α toward the region's
// Chebyshev center, and stops when within ε of it; on termination each node
// sets its sensing range to the circumradius of its dominating region.
//
// Two dominating-region engines are provided:
//
//   - Centralized: each node's region is computed from global knowledge of
//     all positions (with an internal expanding-radius shortcut that is
//     exact — see centralizedRegionSoA). This matches the idealized
//     algorithm analyzed by the paper's proofs.
//
//   - Localized: Algorithm 2 — each node discovers neighbors with an
//     expanding-ring search over the WSN substrate in increments of the
//     transmission range γ, stops expanding once the circle of radius ρ/2
//     around it is fully non-dominated, and computes the region from local
//     information only. Message costs are accounted. Boundary nodes (per the
//     angular-gap detector) restrict the domination check to the covered
//     part of the circle and close their region with the search ring.
package core

import "fmt"

// Mode selects the dominating-region engine.
type Mode int

const (
	// Centralized computes dominating regions from global position
	// knowledge (the paper's idealized iteration; default).
	Centralized Mode = iota
	// Localized runs Algorithm 2 over the WSN substrate with message
	// accounting.
	Localized
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Centralized:
		return "centralized"
	case Localized:
		return "localized"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// UpdateOrder selects how node moves are applied within a round.
type UpdateOrder int

const (
	// Synchronous applies all moves simultaneously at the end of the round —
	// the idealized lock-step iteration.
	Synchronous UpdateOrder = iota
	// Sequential applies each node's move immediately, so later nodes in the
	// round see earlier nodes' new positions. This models the paper's
	// deployment more closely (each node acts on its own periodic τ-clock,
	// so updates interleave rather than align), and like Gauss–Seidel
	// iterations it can settle into different — often tighter — local optima
	// than the synchronous sweep.
	Sequential
)

// String implements fmt.Stringer.
func (u UpdateOrder) String() string {
	switch u {
	case Synchronous:
		return "synchronous"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("UpdateOrder(%d)", int(u))
	}
}

// Config parameterizes a LAACAD run. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// K is the coverage order (k ≥ 1).
	K int
	// Alpha is the motion step size in (0, 1]. The paper proves convergence
	// for the whole range; smaller values move nodes more smoothly.
	Alpha float64
	// Epsilon is the stopping tolerance: a node stands still once its
	// distance to the Chebyshev center of its dominating region is ≤ ε.
	Epsilon float64
	// MaxRounds caps the number of rounds (safety net; the algorithm
	// normally converges well before).
	MaxRounds int
	// Mode selects centralized or localized region computation.
	Mode Mode
	// Order selects synchronous (lock-step) or sequential (interleaved)
	// application of node moves within a round.
	Order UpdateOrder
	// Gamma is the transmission range γ (required in Localized mode; also
	// used by connectivity checks). Units match the region coordinates.
	Gamma float64
	// LossRate, if positive, makes every link-level transmission of the
	// expanding-ring search fail independently with this probability
	// (Localized mode only). Lost replies are retried up to LossRetries
	// times; neighbors that stay silent are simply unknown that round.
	LossRate float64
	// LossRetries is the number of query retries under loss (default 2).
	LossRetries int
	// ArcSamples is the number of sample points on the ρ/2 circle used by
	// the Algorithm 2 domination check (line 5). Zero means 64.
	ArcSamples int
	// RingCap bounds the expanding-ring radius. Zero means the region
	// bounding-box diagonal plus γ (effectively global).
	RingCap float64
	// Seed drives Localized-mode message-loss sampling (the one remaining
	// randomized component; Chebyshev centers are computed by a fully
	// deterministic Welzl that needs no seed).
	Seed int64
	// Workers is the number of goroutines fanning the per-node dominating-
	// region computation of each round (and of Finalize / DebugRegions)
	// across CPUs. 0 or 1 runs serially; negative means runtime.NumCPU.
	// Results are bit-identical for every worker count: each node's
	// randomness is an independent stream derived from (Seed, round,
	// node ID), never a shared sequential source, so scheduling order
	// cannot leak into the output. Synchronous rounds fan out directly;
	// Sequential (Gauss–Seidel) rounds parallelize via the colored sweep —
	// speculation waves over provably independent nodes, validated by the
	// cache's invalidation machinery — so they too match the one-worker
	// sweep bit for bit (lossy Localized runs, which never cache, sweep
	// serially).
	Workers int
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: step size 0.5 and a stopping tolerance appropriate for a
// region with unit-scale sides (5·10⁻⁴ ≈ half a meter on the paper's 1 km²
// area). Scale Epsilon and Gamma along with your region's units.
func DefaultConfig(k int) Config {
	return Config{
		K:          k,
		Alpha:      0.5,
		Epsilon:    5e-4,
		MaxRounds:  500,
		Mode:       Centralized,
		Gamma:      0.15,
		ArcSamples: 64,
	}
}

// Validate reports the first setting a run over n nodes cannot use, naming
// the field by its wire (JSON) name. Zero LossRetries, ArcSamples and
// RingCap select their defaults and are valid. Validate is the one check
// both the engines and the scenario layer apply, so a configuration that
// passes it at submit time also constructs an engine.
func (c Config) Validate(n int) error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: k must be >= 1, got %d", c.K)
	case n < c.K:
		return fmt.Errorf("core: need at least k=%d nodes, got %d", c.K, n)
	case !(c.Alpha > 0 && c.Alpha <= 1): // also rejects NaN
		return fmt.Errorf("core: alpha must be in (0, 1], got %v", c.Alpha)
	case !(c.Epsilon > 0):
		return fmt.Errorf("core: epsilon must be positive, got %v", c.Epsilon)
	case c.MaxRounds < 1:
		return fmt.Errorf("core: max_rounds must be >= 1, got %d", c.MaxRounds)
	case c.Mode != Centralized && c.Mode != Localized:
		return fmt.Errorf("core: unknown mode %d (0 = centralized, 1 = localized)", int(c.Mode))
	case c.Order != Synchronous && c.Order != Sequential:
		return fmt.Errorf("core: unknown order %d (0 = synchronous, 1 = sequential)", int(c.Order))
	case c.Mode == Localized && !(c.Gamma > 0):
		return fmt.Errorf("core: localized mode needs gamma > 0, got %v", c.Gamma)
	case !(c.LossRate >= 0 && c.LossRate < 1):
		return fmt.Errorf("core: loss_rate must be in [0, 1), got %v", c.LossRate)
	case c.LossRate > 0 && c.Mode != Localized:
		return fmt.Errorf("core: loss_rate %v needs localized mode (message loss models the expanding-ring query's link layer)", c.LossRate)
	case c.LossRetries < 0:
		return fmt.Errorf("core: loss_retries must be >= 0, got %d", c.LossRetries)
	case c.ArcSamples != 0 && c.ArcSamples < 8:
		return fmt.Errorf("core: arc_samples must be 0 (default 64) or >= 8, got %d", c.ArcSamples)
	case !(c.RingCap >= 0):
		return fmt.Errorf("core: ring_cap must be >= 0, got %v", c.RingCap)
	}
	return nil
}
