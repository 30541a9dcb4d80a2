package core

import (
	"math/rand"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// Stepper is the per-node round state Engine runs on — one outcome, one
// cache entry (validity, exactness radius and warm-start hint, message cost)
// and one boundary flag per node, with flag repair, stats fold and finalize
// — over a caller-owned wsn.Network. The sharded engine gives each shard one
// over its window network: Renumber carries the state across a membership
// change, and the check installed with SetAdmit rejects outcomes whose read
// ball left the window. Every step routes through the code the
// shared-memory engine runs, so an admitted outcome is bitwise the global
// one. StepNode and RegionPolys are stateless entry points for one node (the
// asynchronous simulator and kernel replays).
type Stepper struct {
	nodeState
}

// NewStepper validates cfg against the global node count n — applying exactly
// the defaults Engine's constructor does (RingCap, loss retries, arc
// samples) — and returns a stepper with no network attached yet. The
// normalized configuration is readable via Config.
func NewStepper(reg *region.Region, n int, cfg Config) (*Stepper, error) {
	st := &Stepper{}
	if err := st.init(reg, n, cfg); err != nil {
		return nil, err
	}
	st.cacheOn = st.cacheable()
	return st, nil
}

// Config returns the normalized configuration (defaults applied).
func (st *Stepper) Config() Config { return st.cfg }

// Detector returns the boundary detector the stepper's flags come from.
func (st *Stepper) Detector() boundary.AngularGap { return boundary.AngularGap{} }

// IndexGamma returns the cell-sizing gamma a network must be constructed
// with so its spatial index and radio range match the shared-memory
// engine's (Localized queries and boundary detection read net.Gamma(), so
// this is a correctness requirement, not a tuning choice).
func (st *Stepper) IndexGamma() float64 { return st.indexGamma() }

// SetNetwork attaches the network the stateless entry points read (and, in
// Localized mode, charge). The caller owns it; StepNode and RegionPolys
// never mutate positions. The per-cell ρ-bounds of the previous network are
// dropped: the new one's grid generation can coincide with the old one's.
func (st *Stepper) SetNetwork(net *wsn.Network) {
	st.net = net
	st.boundsLive = false
}

// FinalRoundTag returns the negative round tag Finalize and DebugRegions use
// for their out-of-round region recomputation after the given number of
// completed rounds — a domain separate from every Step round, so an
// inspection fan-out never replays the loss draws the next Step would make.
func FinalRoundTag(rounds int) int { return -(rounds + 1) }

// StepOutcome is one node's round computation.
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
	// InvRad is the cache-invalidation radius: the outcome stays valid until
	// some position within InvRad of the node changes. It doubles as the
	// next search's warm-start hint.
	InvRad float64
}

// StepNode computes node i's round outcome on the attached network. hint
// warm-starts the Centralized expanding search (pass the node's last InvRad,
// or 0). isBoundary and rng apply in Localized mode only: the boundary flag
// as start-of-round truth, and the node's private loss stream. A Localized
// step charges its search's message cost to the attached network before it
// returns, as the eager protocol pays it.
func (st *Stepper) StepNode(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) StepOutcome {
	if st.cfg.Mode == Localized {
		out, inv := st.stepNodeLocalized(i, isBoundary, rng, s)
		st.charge(s.msgs)
		return exportOutcome(out, inv)
	}
	return exportOutcome(st.stepNodeCentralized(i, hint, s))
}

// RegionPolys computes node i's dominating region at the current positions —
// the Finalize/DebugRegions recompute path — returning compacted polygons
// plus the radius of the ball the computation read positions from. rng must
// be the node's stream for the negative FinalRoundTag round. Like StepNode,
// a Localized recompute charges its search's cost.
func (st *Stepper) RegionPolys(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) ([]geom.Polygon, float64) {
	polys, readRad := st.regionOf(i, hint, isBoundary, rng, s)
	st.charge(st.searchCost(s))
	return polys, readRad
}

// exportOutcome converts the internal outcome to the exported mirror.
func exportOutcome(out nodeOutcome, invRad float64) StepOutcome {
	return StepOutcome{
		Next:     out.next,
		Ri:       out.ri,
		Rhat:     out.rhat,
		MoveDist: out.moveDist,
		Moved:    out.moved,
		Empty:    out.empty,
		InvRad:   invRad,
	}
}

// SetAdmit installs the admission check: fn(i, readRad, rhat) reports
// whether node i's outcome — read from positions within readRad, with R̂
// rhat — is exact. A rejected outcome is neither charged nor cached.
func (st *Stepper) SetAdmit(fn func(i int, readRad, rhat float64) bool) { st.admit = fn }

// Renumber attaches net — a rebuilt network over a new numbering of the
// nodes — and carries every node's state across: from[i] is the previous
// index of the node now at index i, or -1 for a node whose state starts
// fresh, and ids maps the new indices to node IDs (the loss streams are
// keyed by ID). It is the engine's own renumbering (see nodeState.renumber).
// RepairFlags names the flags to repair. The per-cell ρ-bounds are dropped,
// because net is a different network whose grid generation can coincide
// with the old one's; the next invalidation rebuilds them.
func (st *Stepper) Renumber(net *wsn.Network, ids []int, from []int32) {
	st.renumber(from)
	st.net, st.ids, st.boundary = net, ids, st.flagVals
	st.boundsLive = false
}

// Hint returns node i's warm-start hint: its last exactness radius.
func (st *Stepper) Hint(i int) float64 { return st.cache[i].rho }

// Reset starts node i afresh — no cache entry, its boundary flag due for
// repair — with the given warm-start hint: all a node changing stepper
// carries along.
func (st *Stepper) Reset(i int, hint float64) {
	st.dropEntry(i)
	st.flagValid[i] = false
	st.cache[i].rho = hint
}

// RepairFlags brings the boundary flags of ids up to date at the current
// positions, re-evaluating only those a position change disturbed since
// their last evaluation (Localized mode).
func (st *Stepper) RepairFlags(ids []int) {
	if st.cfg.Mode != Localized {
		return
	}
	st.flagDirty = st.flagDirty[:0]
	for _, i := range ids {
		if !st.flagValid[i] {
			st.flagDirty = append(st.flagDirty, i)
		}
	}
	st.repairFlags()
}

// StepAll steps every node of ids at once (Synchronous order).
func (st *Stepper) StepAll(ids []int, round int) { st.stepAll(ids, round) }

// Turn runs node i's Sequential turn, returning its position before and
// after; ok is false when the outcome was not admitted.
func (st *Stepper) Turn(i, round int) (old, next geom.Point, ok bool) {
	old, _, ok = st.turn(i, round)
	return old, st.net.Position(i), ok
}

// Commit applies the moves of ids not yet applied (Synchronous order), folds
// their round outcomes into s (see RoundStats.Merge), and returns the moved
// nodes with their (old, new) endpoint pairs, valid until the next commit.
func (st *Stepper) Commit(ids []int, s *RoundStats) ([]int, []geom.Point) {
	st.foldStats(s, ids)
	st.commitMoves(ids)
	return st.movedIDs, st.movedPts
}

// Invalidate applies position-change endpoints the stepper did not make.
func (st *Stepper) Invalidate(pts []geom.Point) { st.invalidate(pts) }

// DropUnless drops the cache entry of every node of ids for which keep,
// given the entry's invalidation radius, reports false.
func (st *Stepper) DropUnless(ids []int, keep func(i int, rho float64) bool) {
	for _, i := range ids {
		if c := &st.cache[i]; c.valid && !keep(i, c.rho) {
			st.dropEntry(i)
		}
	}
}

// FinalRadii writes the final radius of every node of ids into radii
// (indexed like the network) and reports whether all were admitted; a
// rejected node's slot is left as it was.
func (st *Stepper) FinalRadii(ids []int, reuse bool, tag int, radii []float64) bool {
	return st.finalRadii(ids, reuse, tag, radii, nil)
}
