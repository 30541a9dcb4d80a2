package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/parallel"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// nodeState is the per-node round state of one network, and the one
// implementation of the locality contract both engines run on: a node's
// round outcome, its recorded message cost and its boundary flag are pure
// functions of the positions inside a ball around the node (the exactness
// radius ρ for the outcome, γ for the flag), so each is reused verbatim
// until some position inside its ball changes. Every per-node array is
// indexed by network index, so the hot path never translates IDs: Engine
// runs the state over the global network, a shard (through Stepper) over
// its window network in its own numbering.
type nodeState struct {
	cfg      Config
	reg      *region.Region
	net      *wsn.Network
	detector boundary.Detector

	// ids maps network index to node ID for the loss streams (nil: the
	// identity). admit, when set, decides whether an outcome computed over
	// net is exact given the radius it read and its R̂; a rejected outcome is
	// neither charged nor cached.
	ids   []int
	admit func(i int, readRad, rhat float64) bool

	// cacheOn and boundary are the current round's cache policy and boundary
	// flags (Localized mode).
	cacheOn  bool
	boundary []bool

	nodeArrays
	// spare is the other half of renumber's double buffer.
	spare nodeArrays

	// pool holds one Scratch per worker slot so the per-node geometry
	// pipeline runs without heap allocation.
	pool []*Scratch

	// movedIDs lists the nodes the last commit moved, movedPts their (old,
	// new) endpoint pairs — both endpoints matter for invalidation, because
	// a node entering an exactness ball invalidates it by its new position
	// and a node leaving it by its old one. nextBuf stages bulk writes.
	movedIDs []int
	movedPts []geom.Point
	nextBuf  []geom.Point

	// hits counts cache reuses; atomic because the Synchronous fan-out
	// consults the cache from worker goroutines. batchNodes counts dominating
	// regions computed on the SoA batch kernel, from the same goroutines.
	hits       atomic.Uint64
	batchNodes atomic.Uint64
	counters   CacheCounters

	// Incremental boundary flags (Localized mode with a PerNode detector):
	// flagValid marks entries whose γ-ball is provably untouched since they
	// were computed ("ball unchanged ⇒ flag unchanged", the PerNode locality
	// contract), and flagDirty lists the invalid ones so the repair pass
	// touches only what a move disturbed — never O(n). flagsLive marks that
	// the flag cache is serving; flagScratch and flagPool keep the repair
	// evaluations allocation-free (serial and parallel respectively).
	flagDirty   []int
	flagsLive   bool
	flagScratch boundary.Scratch
	flagPool    []*boundary.Scratch

	// Grid-accelerated invalidation state. rhoBound[c] upper-bounds the
	// exactness radius ρ of the valid cache entries whose nodes currently
	// sit in grid cell c, and rhoMax is the global maximum — together they
	// let an inverse range query around a moved endpoint prune cells that
	// cannot possibly hold an affected entry. boundGen records the index
	// geometry (wsn.GridShape.Gen) the bounds were computed for; a full grid
	// rebuild invalidates the cell numbering, so a mismatch forces a bound
	// recomputation. boundsLive tracks whether the bounds are kept current
	// entry by entry (a Sequential sweep; see invalidate).
	rhoBound   []float64
	rhoMax     float64
	boundGen   uint64
	boundsLive bool
}

// nodeArrays are the per-node arrays, indexed by network index.
type nodeArrays struct {
	// outs holds each node's outcome for the current round.
	outs []nodeOutcome
	// cache is the incremental dirty-set: each entry holds a node's last
	// computed outcome together with the exactness radius ρ of the search
	// that produced it. The outcome is a pure function of the positions
	// inside the ρ-ball around the node (see centralizedRegionSoA and
	// localizedSearch), so it is reused verbatim until some position
	// inside that ball changes — which collapses the long converged tail of
	// a deployment to near-zero work per round. In Localized mode each entry
	// additionally records the search's link-level message cost; a reuse
	// re-charges that cost so the per-round accounting stays exactly what
	// the eager protocol would have paid.
	cache []nodeCache
	// rhoHint is each node's last known exactness radius, kept across
	// invalidations — the warm start of the Centralized search and the
	// interference-prediction input of the colored Sequential sweep.
	rhoHint []float64
	// lastRhat is each node's R̂ from the most recent round, and regions its
	// dominating region when Config.KeepRegions retains them (nil otherwise).
	lastRhat []float64
	regions  [][]geom.Polygon
	// flagVals holds each node's boundary flag as of the start of the
	// current round; flagValid marks the ones still provably current.
	flagVals  []bool
	flagValid []bool
}

// nodeCache is one node's cached round outcome plus the exactness radius
// that bounds which position changes can invalidate it. Localized entries
// carry the recorded message cost of the search that produced the outcome
// (re-charged on every reuse) and the boundary flag it was computed under;
// spec marks an entry written by a speculation wave this round, whose cost
// sits in the node's wsn escrow — committed when the serial loop consumes
// the entry, voided if it dies first, so public counters never go backwards.
type nodeCache struct {
	valid    bool
	spec     bool
	boundary bool
	rho      float64
	cost     int64
	out      nodeOutcome
}

// nodeOutcome is one node's contribution to a round. Each outcome depends
// only on the positions at the start of the round (Synchronous order), so
// outcomes can be computed independently and in any order; the round's
// statistics are reduced from them in node order afterwards.
type nodeOutcome struct {
	polys    []geom.Polygon
	next     geom.Point
	ri       float64 // circumradius of the dominating region
	rhat     float64 // max vertex distance from the current position
	moveDist float64
	moved    bool
	empty    bool // pathological empty region: node stands still
}

// init validates cfg against the node count n and installs it over reg with
// the defaults applied (RingCap, detector, loss retries, arc samples).
func (ns *nodeState) init(reg *region.Region, n int, cfg Config) error {
	if reg == nil {
		return fmt.Errorf("core: nil region")
	}
	if err := cfg.validate(n); err != nil {
		return err
	}
	if cfg.RingCap == 0 {
		cfg.RingCap = reg.BBox().Diagonal() + cfg.Gamma
	}
	ns.cfg, ns.reg, ns.detector = cfg, reg, cfg.Detector
	if ns.detector == nil {
		ns.detector = boundary.AngularGap{}
	}
	return nil
}

// indexGamma is the cell-sizing gamma of the spatial index: the radio range
// γ, or — Centralized mode has no radio range, so gamma only floors the
// index's cell side — a floor far below the deployment scale, so the
// index's occupancy-adaptive rule (cell ≈ span/√n) decides: at 10k+ nodes a
// diagonal-scale floor would put hundreds of nodes in every cell. Query
// answers are independent of cell geometry, so this is purely an indexing
// choice.
func (ns *nodeState) indexGamma() float64 {
	if ns.cfg.Gamma > 0 {
		return ns.cfg.Gamma
	}
	return ns.reg.BBox().Diagonal() * 1e-3
}

// CacheCounters returns the cumulative invalidation-work counters.
func (ns *nodeState) CacheCounters() CacheCounters {
	c := ns.counters
	c.CacheHits = ns.hits.Load()
	c.BatchNodes = ns.batchNodes.Load()
	return c
}

// cacheable reports whether outcomes may be reused across rounds at all.
// Centralized mode always caches; Localized mode only when message loss is
// off — loss draws are per-round randomness, so an outcome computed last
// round is not the outcome this round's search would produce even over
// identical positions.
func (ns *nodeState) cacheable() bool {
	return ns.cfg.Mode != Localized || ns.cfg.LossRate == 0
}

// lossRNG returns node i's private message-loss stream for the given round,
// keyed by its node ID, or nil when loss sampling is off — the search
// consumes no randomness then, so skipping the generator allocation is
// invisible to trajectories.
func (ns *nodeState) lossRNG(round, i int) *rand.Rand {
	if ns.cfg.LossRate <= 0 {
		return nil
	}
	if ns.ids != nil {
		i = ns.ids[i]
	}
	return nodeRNG(ns.cfg.Seed, round, i)
}

// ensurePool sizes the per-worker scratch pool.
func (ns *nodeState) ensurePool(workers int) {
	for len(ns.pool) < workers {
		ns.pool = append(ns.pool, NewScratch())
	}
}

// finishMove applies the motion rule (step α toward the clamped Chebyshev
// center, stand still within ε) to an outcome under construction.
func (ns *nodeState) finishMove(ui, ci geom.Point, out *nodeOutcome) {
	ci = ns.reg.ClampInside(ci)
	if d := ui.Dist(ci); d > ns.cfg.Epsilon {
		target := ui.Add(ci.Sub(ui).Scale(ns.cfg.Alpha))
		target = ns.reg.ClampInside(target)
		out.next = target
		out.moved = true
		out.moveDist = ui.Dist(target)
	}
}

// stepNode computes node i's round outcome into outs[i], serving it from the
// cache when a valid entry exists (cacheOn), and reports whether it was
// admitted. Cache entries are written only by the worker that owns node i
// this round, so a fan-out needs no locking.
//
// A Localized hit re-charges the entry's recorded message cost — reusing the
// outcome must cost exactly what re-running the search would have, or
// Result.Messages stops being faithful to the protocol. The exception is an
// entry speculated earlier this same round (spec): its search already ran
// with its charges deferred into the node's escrow, so consuming it commits
// the escrow — the instant the eager serial sweep would have charged. A
// Localized hit also requires the boundary flag the entry was computed under
// to still hold; under the incremental flag cache that comparison always
// passes for a valid entry — the entry's ρ-ball covers the γ-ball (ρ ≥ γ),
// so a valid entry implies an unchanged flag — while global detectors
// compare against the freshly computed round array.
func (ns *nodeState) stepNode(i, round int, s *Scratch) bool {
	if ns.cacheOn {
		if c := &ns.cache[i]; c.valid && (ns.cfg.Mode != Localized || c.boundary == ns.boundary[i]) {
			ns.hits.Add(1)
			if c.spec {
				c.spec = false
				ns.counters.SpecUsed++
				if c.cost != 0 {
					ns.net.CommitEscrow(i)
				}
			} else if c.cost != 0 {
				ns.net.Charge(i, c.cost)
			}
			ns.outs[i] = c.out
			return true
		}
	}
	out, ok := ns.computeEntry(i, round, s, false)
	if ok {
		ns.outs[i] = out
	}
	return ok
}

// computeEntry computes node i's outcome from the current positions and,
// with the cache on, installs it as a cache entry (speculative when spec is
// set — the colored sweep's waves write through here from worker goroutines;
// entry i is only ever written by the worker owning i, so no locking). It
// reports false when admit rejected the outcome, which is then neither
// charged nor installed.
//
// Localized entries measure the search's link-level cost: a plain serial
// computation diffs the node's own message counter around the search —
// every charge of an expanding-ring search is attributed to the searching
// node, so the diff is exact even while other workers charge their own
// searches concurrently — while a speculative or admission-checked one runs
// the search inside the node's wsn escrow, so the cost is measured without
// reaching the public counters until it is committed: an external Stats read
// mid-wave sees only committed work, exact and monotone.
func (ns *nodeState) computeEntry(i, round int, s *Scratch, spec bool) (nodeOutcome, bool) {
	var out nodeOutcome
	var rho, readRad float64
	var cost int64
	flag := false
	if ns.cfg.Mode == Localized {
		flag = ns.boundary[i]
		escrow := spec || ns.admit != nil
		var before int64
		if escrow {
			ns.net.BeginEscrow(i)
		} else {
			before = ns.net.NodeMessages(i)
		}
		out, rho = ns.stepNodeLocalized(i, flag, ns.lossRNG(round, i), s)
		readRad = rho
		if escrow {
			cost = ns.net.EndEscrow(i)
		} else {
			cost = ns.net.NodeMessages(i) - before
		}
	} else {
		out, rho = ns.stepNodeCentralized(i, ns.rhoHint[i], s)
		readRad = s.searchRho
	}
	if ns.admit != nil {
		if !ns.admit(i, readRad, out.rhat) {
			ns.net.VoidEscrow(i)
			return out, false
		}
		if !spec {
			ns.net.CommitEscrow(i)
		}
	}
	if ns.cacheOn {
		ns.cache[i] = nodeCache{valid: true, spec: spec, boundary: flag, rho: rho, cost: cost, out: out}
		ns.rhoHint[i] = rho
	}
	return out, true
}

// stepAll steps every node of ids at the start-of-round positions, fanning
// out across Config.Workers — the Synchronous round's compute phase.
func (ns *nodeState) stepAll(ids []int, round int) {
	ns.net.Rebuild() // build the spatial index once, before the fan-out
	workers := parallel.Workers(ns.cfg.Workers)
	ns.ensurePool(workers)
	parallel.ForWorker(len(ids), workers, func(w, k int) {
		ns.stepNode(ids[k], round, ns.pool[w])
	})
	// The fan-out installed entries the per-cell bounds never saw.
	ns.boundsLive = false
}

// turn runs node i's Sequential turn: step it at the current (mid-round)
// positions and commit its move at once, so later turns see it — the
// Gauss–Seidel contract. It returns the node's position before the turn and
// whether it moved; ok is false when admit rejected the outcome (nothing
// was committed).
func (ns *nodeState) turn(i, round int) (old geom.Point, moved, ok bool) {
	ns.ensurePool(1)
	if !ns.stepNode(i, round, ns.pool[0]) {
		return old, false, false
	}
	if ns.cacheOn && ns.boundsLive {
		if c := &ns.cache[i]; c.valid {
			ns.noteRhoBound(i, c.rho)
		}
	}
	old = ns.net.Position(i)
	next := ns.outs[i].next
	if next == old {
		return old, false, true
	}
	ns.net.SetPosition(i, next)
	if ns.cacheOn {
		ns.dropEntry(i)
	}
	// Disturbed flags repair at the start of the next round; this sweep
	// reads start-of-round truth.
	ends := [2]geom.Point{old, next}
	ns.invalidate(ends[:], true)
	return old, true, true
}

// commitMoves applies the moves of ids at once — the Synchronous commit: all
// reads were at start-of-round positions — records them in movedIDs and
// movedPts, and invalidates around both endpoints of each.
func (ns *nodeState) commitMoves(ids []int) {
	ns.movedIDs, ns.movedPts = ns.movedIDs[:0], ns.movedPts[:0]
	for _, i := range ids {
		if ui, next := ns.net.Position(i), ns.outs[i].next; next != ui {
			if ns.cacheOn {
				ns.cache[i].valid = false // own position is about to change
			}
			ns.movedIDs = append(ns.movedIDs, i)
			ns.movedPts = append(ns.movedPts, ui, next)
		}
	}
	if len(ns.movedIDs) == 0 {
		return
	}
	if n := ns.net.Len(); len(ns.movedIDs)*4 >= n {
		// Most of the network moved (the active phase): one bulk write plus
		// a CSR counting-sort rebuild has better constants than that many
		// incremental bucket edits.
		ns.nextBuf = ns.nextBuf[:0]
		for i := 0; i < n; i++ {
			ns.nextBuf = append(ns.nextBuf, ns.net.Position(i))
		}
		for k, i := range ns.movedIDs {
			ns.nextBuf[i] = ns.movedPts[2*k+1]
		}
		ns.net.SetPositions(ns.nextBuf)
	} else {
		// Apply only what moved: each write is an incremental index update
		// (two cell buckets), so the converged tail writes nothing and a few
		// movers cost O(moved), never an O(n) grid rebuild. Both branches
		// leave the index answering queries identically, so the split is
		// invisible to trajectories.
		for k, i := range ns.movedIDs {
			ns.net.SetPosition(i, ns.movedPts[2*k+1])
		}
	}
	ns.invalidate(ns.movedPts, false)
}

// foldStats folds the outcomes of ids into st, in ascending order, and
// records each node's R̂ (and region, when retained) for finalization.
// Extrema skip empty regions.
func (ns *nodeState) foldStats(st *RoundStats, ids []int) {
	for _, i := range ids {
		o := &ns.outs[i]
		ns.lastRhat[i] = o.rhat
		if ns.regions != nil {
			ns.regions[i] = o.polys
		}
		if o.empty {
			continue
		}
		p := RoundStats{MaxCircumradius: o.ri, MinCircumradius: o.ri, MaxRhat: o.rhat}
		if o.moved {
			p.Moved, p.MaxMove = 1, o.moveDist
		}
		st.Merge(p)
	}
}

// finalRadii assigns the final sensing range (line 7 of Algorithm 1) of
// every node of ids into radii, and its region into regions (either may be
// nil). With reuse — a converged deployment whose last round ran at the
// current positions — each radius is the node's last R̂, bitwise the max
// vertex distance a recompute would measure (same vertices, same position,
// same fold), or is measured from the retained region under
// Config.KeepRegions. Otherwise every region is recomputed at the current
// positions, fanning out across Config.Workers, each search from the density
// fallback rather than the warm start; in Localized mode the searches run
// (and charge) under the negative round tag (FinalRoundTag) — a domain
// separate from every Step round, so an inspection fan-out never replays the
// loss draws the next Step is about to make. It reports false when admit
// rejected some recomputation (neither charged nor stored).
func (ns *nodeState) finalRadii(ids []int, reuse bool, tag int, radii []float64, regions [][]geom.Polygon) bool {
	if reuse {
		for _, i := range ids {
			if ns.regions == nil {
				radii[i] = ns.lastRhat[i]
				continue
			}
			radii[i] = voronoi.MaxDistFrom(ns.net.Position(i), ns.regions[i])
			if regions != nil {
				regions[i] = ns.regions[i]
			}
		}
		return true
	}
	ns.net.Rebuild()
	workers := parallel.Workers(ns.cfg.Workers)
	ns.ensurePool(workers)
	var rejected atomic.Bool
	parallel.ForWorker(len(ids), workers, func(w, k int) {
		i := ids[k]
		var flag bool
		var rng *rand.Rand
		if ns.cfg.Mode == Localized {
			flag, rng = ns.boundary[i], ns.lossRNG(tag, i)
		}
		if ns.admit != nil {
			ns.net.BeginEscrow(i)
		}
		polys, readRad := ns.regionOf(i, 0, flag, rng, ns.pool[w])
		rhat := voronoi.MaxDistFrom(ns.net.Position(i), polys)
		if ns.admit != nil {
			ns.net.EndEscrow(i)
			if !ns.admit(i, readRad, rhat) {
				ns.net.VoidEscrow(i)
				rejected.Store(true)
				return
			}
			ns.net.CommitEscrow(i)
		}
		if radii != nil {
			radii[i] = rhat
		}
		if regions != nil {
			regions[i] = polys
		}
	})
	return !rejected.Load()
}

// repairFlags brings the incremental boundary-flag cache up to date with the
// current (start-of-round) positions and returns the full flag array. Only
// nodes on the dirty list — those whose γ-ball a move endpoint touched, or
// that a flush dirtied — are re-evaluated, so a converged round repairs
// nothing and a few-movers round repairs O(disturbed), never O(n). A large
// dirty set (first round, topology change) fans the evaluations out across
// the worker pool; each evaluation reads only start-of-round positions, so
// the result is independent of worker count and evaluation order.
func (ns *nodeState) repairFlags(pn boundary.PerNode, n int) []bool {
	if len(ns.flagVals) != n {
		// Node count changed (or first use): the indices belong to another
		// numbering, so every flag is re-evaluated.
		ns.flagVals = make([]bool, n)
		ns.flagValid = make([]bool, n)
		ns.flagDirty = ns.flagDirty[:0]
		for i := 0; i < n; i++ {
			ns.flagDirty = append(ns.flagDirty, i)
		}
	}
	dirty := ns.flagDirty
	if len(dirty) == 0 {
		return ns.flagVals
	}
	ns.net.Rebuild()
	scratched, scratchOK := pn.(boundary.PerNodeScratch)
	if workers := parallel.Workers(ns.cfg.Workers); scratchOK && workers > 1 && len(dirty) >= 256 {
		for len(ns.flagPool) < workers {
			ns.flagPool = append(ns.flagPool, &boundary.Scratch{})
		}
		parallel.ForWorker(len(dirty), workers, func(w, idx int) {
			i := dirty[idx]
			ns.flagVals[i] = scratched.BoundaryNodeScratch(ns.net, i, ns.flagPool[w])
			ns.flagValid[i] = true
		})
	} else {
		for _, i := range dirty {
			if scratchOK {
				ns.flagVals[i] = scratched.BoundaryNodeScratch(ns.net, i, &ns.flagScratch)
			} else {
				ns.flagVals[i] = pn.BoundaryNode(ns.net, i)
			}
			ns.flagValid[i] = true
		}
	}
	ns.counters.FlagEvals += uint64(len(dirty))
	ns.flagDirty = ns.flagDirty[:0]
	return ns.flagVals
}

// markFlagsNear invalidates every cached boundary flag whose γ-ball contains
// p — the flag-cache analogue of invalidateNear, run for both endpoints of
// every move (a neighbor entering the ball changes the flag input by its new
// position, one leaving it by its old one; the mover itself is always within
// distance zero of its own new endpoint). The invalidation radius is exactly
// the PerNode locality contract's γ, so a flag left valid provably has an
// unchanged input set.
func (ns *nodeState) markFlagsNear(p geom.Point) {
	if len(ns.flagVals) != ns.net.Len() {
		return // no live flag cache (or stale numbering; repair resets it)
	}
	r := ns.net.Gamma()
	r2 := r * r
	if 2*ns.net.CellWindowSize(r) >= len(ns.flagVals) {
		// Degenerate geometry: the window covers the grid, scan densely.
		for j := range ns.flagVals {
			if ns.flagValid[j] && ns.net.Position(j).Dist2(p) <= r2 {
				ns.flagValid[j] = false
				ns.flagDirty = append(ns.flagDirty, j)
			}
		}
		return
	}
	ns.net.VisitCellsWithin(p, r, func(ci int) {
		if ns.net.CellDist2(ci, p) > r2 {
			return
		}
		for _, j := range ns.net.CellNodes(ci) {
			if ns.flagValid[j] && ns.net.Position(int(j)).Dist2(p) <= r2 {
				ns.flagValid[j] = false
				ns.flagDirty = append(ns.flagDirty, int(j))
			}
		}
	})
}

// dropEntry invalidates node j's cache entry. An unconsumed speculative
// entry dying here means its search ran for nothing: its escrowed message
// cost is voided — the public counters never saw it, so the round's visible
// accounting is exactly what the eager serial sweep would have charged, at
// every instant, with no refund ever needed.
func (ns *nodeState) dropEntry(j int) {
	c := &ns.cache[j]
	if c.spec {
		c.spec = false
		ns.counters.SpecWasted++
		ns.net.VoidEscrow(j)
	}
	c.valid = false
}

// invalidate applies position-change endpoints: every boundary flag whose
// γ-ball contains one of pts is marked for repair (flag cache live), and
// every cache entry whose exactness ball does is dropped (cache on): a node
// entering the ball changes the site set by its new position,
// a node leaving it by its old one, and any move inside it changes a site's
// coordinates. Entries outside stay valid — the expanding search provably
// never read those positions, so recomputing would reproduce the cached
// outcome bit for bit. Callers drop a mover's own entry first.
//
// Strategy: the balls live in the same space as the spatial index, so each
// endpoint runs an inverse range query against the grid — visit only cells
// within the largest exactness radius, prune those whose per-cell ρ-bound
// cannot reach the endpoint, and distance-test the survivors. That makes
// invalidation O(endpoints × local). When the balls are so large that the
// query window would cover the whole grid anyway (early rounds, sparse
// neighborhoods), the dense O(valid × endpoints) pair-scan is cheaper and is
// used as the fallback; both strategies invalidate exactly the same set.
//
// A one-shot call (a round's whole batch of moves) rebuilds the per-cell
// bounds. A sweep call (one Sequential move) keeps them live across calls:
// the first move of a sweep builds them, and entries recomputed later in the
// sweep feed them via noteRhoBound, so they stay upper bounds throughout and
// the inverse queries never miss an affected entry.
func (ns *nodeState) invalidate(pts []geom.Point, sweep bool) {
	if ns.flagsLive {
		for _, p := range pts {
			ns.markFlagsNear(p)
		}
	}
	if !ns.cacheOn || len(pts) == 0 {
		return
	}
	stale := !sweep || !ns.boundsLive || ns.boundGen != ns.net.GridShape().Gen
	rhoMax, basis := ns.rhoMax, len(ns.cache)
	if stale {
		// A cheap O(valid) scan decides the strategy; the per-cell bound
		// array is only built if the inverse branch is actually taken.
		rhoMax = 0
		valid := 0
		for j := range ns.cache {
			if c := &ns.cache[j]; c.valid {
				valid++
				if c.rho > rhoMax {
					rhoMax = c.rho
				}
			}
		}
		if !sweep {
			if valid == 0 {
				return
			}
			basis = valid
		}
	}
	if 2*ns.net.CellWindowSize(rhoMax) >= basis {
		ns.pairScan(pts)
		return
	}
	if stale {
		ns.rebuildRhoBounds()
		ns.boundsLive = sweep
	}
	ns.counters.InverseScans++
	for _, p := range pts {
		ns.invalidateNear(p)
	}
}

// pairScan is the dense invalidation fallback: every valid entry is tested
// against every endpoint.
func (ns *nodeState) pairScan(pts []geom.Point) {
	ns.counters.PairScans++
	for j := range ns.cache {
		c := &ns.cache[j]
		if !c.valid {
			continue
		}
		ns.counters.PairVisits++
		uj := ns.net.Position(j)
		r2 := c.rho * c.rho
		for _, p := range pts {
			if uj.Dist2(p) <= r2 {
				ns.dropEntry(j)
				break
			}
		}
	}
}

// rebuildRhoBounds recomputes the per-cell ρ-bound array (and rhoMax) from
// the valid cache entries, in O(n + cells), and stamps it with the index
// generation it was computed against.
func (ns *nodeState) rebuildRhoBounds() {
	shape := ns.net.GridShape()
	ncells := shape.NX * shape.NY
	if cap(ns.rhoBound) < ncells {
		ns.rhoBound = make([]float64, ncells)
	}
	ns.rhoBound = ns.rhoBound[:ncells]
	clear(ns.rhoBound)
	ns.rhoMax = 0
	for i := range ns.cache {
		c := &ns.cache[i]
		if !c.valid {
			continue
		}
		ci := ns.net.CellOfNode(i)
		if c.rho > ns.rhoBound[ci] {
			ns.rhoBound[ci] = c.rho
		}
		if c.rho > ns.rhoMax {
			ns.rhoMax = c.rho
		}
	}
	ns.boundGen = shape.Gen
	ns.counters.BoundRebuilds++
}

// noteRhoBound folds one freshly written cache entry into the live per-cell
// ρ-bounds during a Sequential sweep. A grid rebuild between moves renumbers
// the cells, in which case the bounds are recomputed wholesale.
func (ns *nodeState) noteRhoBound(i int, rho float64) {
	if ns.boundGen != ns.net.GridShape().Gen {
		ns.rebuildRhoBounds()
		return
	}
	ci := ns.net.CellOfNode(i)
	if rho > ns.rhoBound[ci] {
		ns.rhoBound[ci] = rho
	}
	if rho > ns.rhoMax {
		ns.rhoMax = rho
	}
}

// invalidateNear runs one inverse range query: drop every valid cache entry
// whose exactness ball contains p. The cell-window walk itself lives with the
// index (wsn.VisitCellsWithin); here each visited cell is pruned with the
// per-cell ρ-bound (an upper bound, so pruning can only skip cells that
// provably hold no affected entry) and surviving candidates get the exact
// distance test, which matches the pair-scan predicate bit for bit.
func (ns *nodeState) invalidateNear(p geom.Point) {
	ns.net.VisitCellsWithin(p, ns.rhoMax, func(ci int) {
		b := ns.rhoBound[ci]
		if b == 0 || ns.net.CellDist2(ci, p) > b*b {
			return
		}
		ns.counters.CellVisits++
		for _, j := range ns.net.CellNodes(ci) {
			c := &ns.cache[j]
			if !c.valid {
				continue
			}
			ns.counters.CandidateVisits++
			if ns.net.Position(int(j)).Dist2(p) <= c.rho*c.rho {
				ns.dropEntry(int(j))
			}
		}
	})
}
