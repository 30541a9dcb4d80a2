package core

import (
	"fmt"
	"math/rand"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// Stepper is the shard-steppable extraction of the round engine: the per-node
// computation of Engine.Step — dominating region, Chebyshev center, motion
// rule, Localized message accounting — exposed over a caller-owned
// wsn.Network, with the round number, the node's global identity and the
// warm-start hint made explicit instead of read from engine state.
//
// The sharded engine (internal/shard) gives each shard a Stepper over a local
// network holding only the shard's window of the deployment. Because every
// arithmetic step routes through exactly the code the shared-memory engine
// runs — same kernels, same search loops, same accounting — a locally
// computed outcome whose read ball lies inside the window is bitwise the
// outcome the global engine would have produced (see StepOutcome.ReadRad for
// the trust radius).
type Stepper struct {
	eng *Engine
}

// NewStepper validates cfg against the global node count n — applying exactly
// the defaults Engine's constructor would (RingCap, detector, loss retries,
// arc samples) — and returns a stepper with no network attached yet. The
// normalized configuration is readable via Config.
func NewStepper(reg *region.Region, n int, cfg Config) (*Stepper, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: nil region")
	}
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if cfg.RingCap == 0 {
		cfg.RingCap = reg.BBox().Diagonal() + cfg.Gamma
	}
	det := cfg.Detector
	if det == nil {
		det = boundary.AngularGap{}
	}
	return &Stepper{eng: &Engine{cfg: cfg, reg: reg, detector: det}}, nil
}

// Config returns the normalized configuration (defaults applied).
func (st *Stepper) Config() Config { return st.eng.cfg }

// Detector returns the boundary detector (the configured one, or the default
// angular-gap detector).
func (st *Stepper) Detector() boundary.Detector { return st.eng.detector }

// IndexGamma returns the cell-sizing gamma a local network must be
// constructed with so its spatial index and radio range match the
// shared-memory engine's (Localized queries and boundary detection read
// net.Gamma(), so this is a correctness requirement, not a tuning choice).
func (st *Stepper) IndexGamma() float64 {
	if g := st.eng.cfg.Gamma; g > 0 {
		return g
	}
	return st.eng.reg.BBox().Diagonal() * 1e-3
}

// SetNetwork attaches the network the next computations read (and, in
// Localized mode, charge). The caller owns it; the stepper never mutates
// positions.
func (st *Stepper) SetNetwork(net *wsn.Network) { st.eng.net = net }

// FinalRoundTag returns the negative round tag Finalize and DebugRegions use
// for their out-of-round region recomputation after the given number of
// completed rounds — a domain separate from every Step round, so an
// inspection fan-out never replays the loss draws the next Step would make.
func FinalRoundTag(rounds int) int { return -(rounds + 1) }

// StepOutcome is one node's round computation with the locality facts a
// sharded caller needs to decide whether to trust it.
type StepOutcome struct {
	// Next is the node's position after the motion rule (unchanged when the
	// node stands still).
	Next geom.Point
	// Ri is the circumradius of the dominating region (stats input) and Rhat
	// the max vertex distance from the current position (the convergence
	// quantity R̂ and the converged-Finalize radius).
	Ri, Rhat float64
	// MoveDist and Moved mirror the motion rule's outputs; Empty marks the
	// pathological empty-region case (node stands still, excluded from
	// stats extrema).
	MoveDist float64
	Moved    bool
	Empty    bool
	// Polys holds the compacted dominating region when Config.KeepRegions is
	// set (nil otherwise).
	Polys []geom.Polygon
	// ReadRad is the radius of the ball around the node's position the
	// computation actually read positions from: for Centralized, the
	// expanding search's final pre-tightening radius; for Localized, the
	// search's invalidation radius (hop-limited rings inflated to whole
	// hops, floored at γ). If every position within ReadRad of the node is
	// globally current in the attached network, the outcome is bitwise what
	// the shared-memory engine computes — with one Centralized caveat: the
	// expanding search may also exit by exhausting the local network
	// ("len == n−1"), which reads the local node count, so a Centralized
	// outcome is only trusted when additionally 2·Rhat ≤ ReadRad (the
	// exactness exit, which depends on geometry alone) or the window spans
	// the whole deployment.
	ReadRad float64
	// InvRad is the cache-invalidation radius: the outcome stays valid until
	// some position within InvRad of the node changes. It doubles as the
	// next search's warm-start hint. (Centralized tightens it below ReadRad;
	// Localized reports ReadRad itself.)
	InvRad float64
}

// StepNode computes node i's round outcome on the attached network. hint
// warm-starts the Centralized expanding search (pass the node's last InvRad,
// or 0). isBoundary and rng apply in Localized mode only: the boundary flag
// as start-of-round truth, and the node's private loss stream (LossRNG over
// the global ID). Localized searches charge the attached network's counters
// for node i — callers measure a computation's cost by diffing NodeMessages
// around the call.
func (st *Stepper) StepNode(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) StepOutcome {
	e := st.eng
	if e.cfg.Mode == Localized {
		out, inv := e.stepNodeLocalized(i, isBoundary, rng, s)
		return exportOutcome(out, inv, inv)
	}
	out, rho := e.stepNodeCentralized(i, hint, s)
	return exportOutcome(out, s.searchRho, rho)
}

// RegionPolys computes node i's dominating region at the current local
// positions — the Finalize/DebugRegions recompute path — returning compacted
// polygons plus the same ReadRad trust radius StepNode reports (the caller
// derives R̂ with voronoi.MaxDistFrom). rng must be the node's stream for
// the negative FinalRoundTag round.
func (st *Stepper) RegionPolys(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) ([]geom.Polygon, float64) {
	return st.eng.regionOf(i, hint, isBoundary, rng, s)
}

// CacheEnabled reports whether outcomes may be cached across rounds: always
// in Centralized mode, and in Localized mode only without message loss
// (loss draws are per-round randomness, so a lossy outcome is never
// reusable).
func (st *Stepper) CacheEnabled() bool { return st.eng.cacheEnabled() }

// LossRNG returns the node's private message-loss stream for the given round —
// keyed by the global node ID, so local numbering never leaks into
// randomness — or nil when loss sampling is off.
func (st *Stepper) LossRNG(round, node int) *rand.Rand { return st.eng.lossRNG(round, node) }

// exportOutcome converts the internal outcome to the exported mirror.
func exportOutcome(out nodeOutcome, readRad, invRad float64) StepOutcome {
	return StepOutcome{
		Next:     out.next,
		Ri:       out.ri,
		Rhat:     out.rhat,
		MoveDist: out.moveDist,
		Moved:    out.moved,
		Empty:    out.empty,
		Polys:    out.polys,
		ReadRad:  readRad,
		InvRad:   invRad,
	}
}
