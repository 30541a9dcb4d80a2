package core

import (
	"fmt"
	"math/rand"
	"slices"
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
	cfg Config
	reg *region.Region
	net *wsn.Network
	// arc holds the unit directions of the domination check's ρ/2-circle
	// samples, built by install for cfg.ArcSamples.
	arc geom.CircleTable

	// admit, when set, decides whether an outcome computed over net is exact
	// given the radius it read and its R̂; a rejected outcome is neither
	// charged nor cached.
	admit func(i int, readRad, rhat float64) bool

	// cacheOn and boundary are the current round's cache policy and boundary
	// flags (Localized mode).
	cacheOn  bool
	boundary []bool

	nodeArrays
	// spare is the other half of renumber's double buffer.
	spare nodeArrays

	// pool holds one Scratch per worker slot so the per-node geometry
	// pipeline runs without heap allocation. team runs the fan-outs
	// (Pool.Fan) and the Sequential sweep's speculation waves. stepFn and
	// flagFn are the fan-out bodies of stepAll and repairFlags, built once so
	// a fan-out allocates nothing; stepFn reads its nodes and round from
	// stepIDs and stepRound.
	pool      []*Scratch
	team      parallel.Pool
	stepFn    func(w, k int)
	flagFn    func(w, k int)
	stepIDs   []int
	stepRound int

	// movedIDs lists the nodes the last commit moved, movedPts their (old,
	// new) endpoint pairs — both endpoints matter for invalidation, because
	// a node entering an exactness ball invalidates it by its new position
	// and a node leaving it by its old one. nextBuf stages bulk writes.
	movedIDs []int
	movedPts []geom.Point
	nextBuf  []geom.Point

	// dirty is settleHits' reused list of the invalid entries, the only ones
	// a round or a final collection computes. A round sizes it for every node
	// up front, so it never regrows by doubling.
	dirty []int

	// hits counts cache reuses. Every reuse is settled serially (settleHits,
	// a Sequential turn), so it is a plain counter. batchNodes
	// counts dominating regions computed on the SoA batch kernel, from the
	// fan-out's worker goroutines, so it is atomic.
	hits       uint64
	batchNodes atomic.Uint64
	counters   CacheCounters

	// Incremental boundary flags (Localized mode): flagValid marks entries
	// whose γ-ball is provably untouched since they were computed ("ball
	// unchanged ⇒ flag unchanged", the angular-gap detector's locality), and
	// flagDirty lists the invalid ones so the repair pass touches only what
	// a move disturbed — never O(n). flagScratch and flagPool keep the
	// repair evaluations allocation-free (serial and parallel respectively).
	flagDirty   []int
	flagScratch boundary.Scratch
	flagPool    []*boundary.Scratch

	// Grid-accelerated invalidation state. rhoBound[c] upper-bounds the
	// exactness radius ρ of the valid cache entries whose nodes currently
	// sit in grid cell c, and rhoMax is the global maximum — together they
	// let an inverse range query around a moved endpoint prune cells that
	// cannot possibly hold an affected entry. The bounds are live: built
	// once, then raised by every installed entry (noteRhoBounds) and never
	// lowered, so a dropped entry leaves them stale-high, which costs only
	// pruning. boundGen records the index geometry (wsn.GridShape.Gen) they
	// were built for; a full grid rebuild renumbers the cells, so a mismatch
	// forces a rebuild. boundsLive is false until the first build and again
	// whenever a different network is attached, whose Gen can coincide with
	// the old one's. churn counts the entries noted since the last build;
	// once it reaches the node count the bounds are rebuilt, so their
	// staleness stays bounded at O(1) amortized cost per install.
	rhoBound   []float64
	rhoMax     float64
	boundGen   uint64
	boundsLive bool
	churn      int
}

// nodeArrays are the per-node arrays, indexed by network index. Each holds
// one fact per node, and each has exactly one slot per network index for the
// state's whole life: grow appends slots, renumber permutes them.
type nodeArrays struct {
	// outs holds each node's last admitted outcome, the only copy of it: a
	// computation writes it (computeEntry), a cache hit reads it in place,
	// the round's stats fold and the final collection read R̂ from it, and
	// the colored sweep's planner reads the stale outcome of a dirty node.
	outs []nodeOutcome
	// cache is the incremental dirty-set: each entry says whether outs[i] is
	// still exact, with the exactness radius ρ of the search that produced
	// it. The outcome is a pure function of the positions inside the ρ-ball
	// around the node (see centralizedRegionSoA and localizedSearch), so it
	// is reused verbatim until some position inside that ball changes —
	// which collapses the long converged tail of a deployment to near-zero
	// work per round.
	cache []nodeCache
	// flagVals holds each node's boundary flag as of the start of the
	// current round; flagValid marks the ones still provably current.
	flagVals  []bool
	flagValid []bool
}

// nodeCache is the validity record of one node's outcome (outs[i]). rho is
// the exactness radius that bounds which position changes can invalidate it;
// an invalidation leaves it in place, so it doubles as the node's warm-start
// hint — the Centralized search's start radius and the colored sweep's
// interference prediction. A Localized entry carries the metered message
// cost of the search that produced the outcome (charged on every use, so the
// accounting stays exactly what the eager protocol would have paid); spec
// marks an entry written by a speculation wave this round and not yet
// consumed, so nothing has been charged for it yet.
type nodeCache struct {
	valid bool
	spec  bool
	rho   float64
	cost  int64
}

// nodeOutcome is one node's contribution to a round. Each outcome depends
// only on the positions at the start of the round (Synchronous order), so
// outcomes can be computed independently and in any order; the round's
// statistics are reduced from them in node order afterwards.
type nodeOutcome struct {
	next     geom.Point
	ri       float64 // circumradius of the dominating region
	rhat     float64 // max vertex distance from the current position
	moveDist float64
	moved    bool
	empty    bool // pathological empty region: node stands still
}

// init validates cfg against the node count n and installs it over reg with
// the defaults applied (see install). Workers is
// deliberately left as given: the -1 "all CPUs" sentinel must survive in the
// Config so a recorded run replays portably across machines with different
// core counts; the engine resolves it per fan-out via parallel.Workers.
func (ns *nodeState) init(reg *region.Region, n int, cfg Config) error {
	if reg == nil {
		return fmt.Errorf("core: nil region")
	}
	if err := cfg.Validate(n); err != nil {
		return err
	}
	ns.install(reg, cfg)
	return nil
}

// install applies cfg's defaults and installs it over reg, with the
// domination check's sample directions (see circleDominated) tabulated for
// the normalized ArcSamples.
func (ns *nodeState) install(reg *region.Region, cfg Config) {
	if cfg.RingCap == 0 {
		cfg.RingCap = reg.BBox().Diagonal() + cfg.Gamma
	}
	if cfg.LossRetries == 0 {
		cfg.LossRetries = 2
	}
	if cfg.ArcSamples == 0 {
		cfg.ArcSamples = 64
	}
	ns.cfg, ns.reg = cfg, reg
	ns.arc = geom.NewCircleTable(cfg.ArcSamples, arcPhase)
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
	c.CacheHits = ns.hits
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
// or nil when loss sampling is off — the search consumes no randomness then,
// so skipping the generator allocation is invisible to trajectories.
func (ns *nodeState) lossRNG(round, i int) *rand.Rand {
	if ns.cfg.LossRate <= 0 {
		return nil
	}
	return nodeRNG(ns.cfg.Seed, round, i)
}

// ensurePool sizes the per-worker scratch pool. A slot it adds starts at
// slot 0's capacities, which warmPool keeps at the largest any slot has
// reached.
func (ns *nodeState) ensurePool(workers int) {
	for len(ns.pool) < workers {
		s := NewScratch()
		if len(ns.pool) > 0 {
			s.reserve(ns.pool[0])
		}
		ns.pool = append(ns.pool, s)
	}
}

// warmPool grows every scratch slot to the largest capacity any slot has
// reached (see warmSlots). Run after each fan-out, it leaves every slot warm
// once one round has computed every node.
func (ns *nodeState) warmPool() { warmSlots(ns.pool, (*Scratch).reserve) }

// warmSlots grows every per-worker slot, buffer by buffer (reserve), to the
// largest capacity any slot has reached: slot 0 first takes the maximum,
// then every other slot takes slot 0's. Slots are handed out dynamically,
// so a slot that a fan-out left idle would otherwise grow — and allocate —
// in some later round. Warm slots only compare capacities.
func warmSlots[S any](slots []*S, reserve func(s, o *S)) {
	if len(slots) < 2 {
		return
	}
	hw := slots[0]
	for _, s := range slots[1:] {
		reserve(hw, s)
	}
	for _, s := range slots[1:] {
		reserve(s, hw)
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

// stepNode brings node i's round outcome in outs[i] up to date, serving it
// from the cache when a valid entry exists (cacheOn), and reports whether it
// was admitted: the compute step of a Sequential turn.
//
// A Localized hit charges the entry's recorded message cost — reusing the
// outcome must cost exactly what re-running the search would have, or
// Result.Messages stops being faithful to the protocol. An entry speculated
// earlier this same round is no exception: its search charged nothing when
// it ran, so consuming it charges at the instant the eager serial sweep
// would have. A valid Localized entry was also computed under the node's
// current boundary flag: the entry's ρ-ball covers the flag's γ-ball (ρ ≥ γ),
// so any move that could change the flag has dropped the entry.
func (ns *nodeState) stepNode(i, round int, s *Scratch) bool {
	if ns.cacheOn {
		if c := &ns.cache[i]; c.valid {
			ns.consume(c)
			ns.charge(c.cost)
			return true
		}
	}
	return ns.computeEntry(i, round, s, false)
}

// consume counts a cache reuse, settling a speculated entry as used.
func (ns *nodeState) consume(c *nodeCache) {
	ns.hits++
	if c.spec {
		c.spec = false
		ns.counters.SpecUsed++
	}
}

// computeEntry computes node i's outcome from the current positions into
// outs[i] and, with the cache on, marks it valid (speculative when spec is
// set — the colored sweep's waves write through here from worker
// goroutines). Slot i is only ever written by the worker owning node i, so
// a fan-out needs no locking. It reports false when admit rejected the
// outcome, which is then neither charged nor stored. An admitted plain
// computation charges its search's metered cost at once; a speculative one
// charges nothing until its entry is consumed (see stepNode), so an external
// MessageCount read mid-wave sees only what the eager sweep has paid, exact
// and monotone.
//
// A speculative outcome may overwrite outs[i] before node i's turn: nothing
// reads it in between (the planner ran before the first wave), and the turn
// either consumes it or overwrites it.
func (ns *nodeState) computeEntry(i, round int, s *Scratch, spec bool) bool {
	var out nodeOutcome
	var rho, readRad float64
	if ns.cfg.Mode == Localized {
		out, rho = ns.stepNodeLocalized(i, ns.boundary[i], ns.lossRNG(round, i), s)
		readRad = rho
	} else {
		out, rho = ns.stepNodeCentralized(i, ns.cache[i].rho, s)
		readRad = s.searchRho
	}
	if ns.admit != nil && !ns.admit(i, readRad, out.rhat) {
		return false
	}
	cost := ns.searchCost(s)
	if !spec {
		ns.charge(cost)
	}
	ns.outs[i] = out
	if ns.cacheOn {
		ns.cache[i] = nodeCache{valid: true, spec: spec, rho: rho, cost: cost}
	}
	return true
}

// searchCost is the metered message cost of the search last run on s: the
// Localized ring search's (see localizedSearch). A Centralized search sends
// no messages.
func (ns *nodeState) searchCost(s *Scratch) int64 {
	if ns.cfg.Mode != Localized {
		return 0
	}
	return s.msgs
}

// charge pays a node's message cost into the network's counter — the only
// place a search's cost reaches it. It runs at the node's turn: for an
// admitted computation, for a consumed cache entry, and in an out-of-round
// final collection for an admitted recompute or a reused entry; never for a
// rejected outcome or a dropped speculation.
func (ns *nodeState) charge(cost int64) {
	if cost != 0 {
		ns.net.Charge(cost)
	}
}

// stepAll steps every node of ids at the start-of-round positions — the
// Synchronous round's compute phase — and returns the nodes it computed,
// valid until the next call. The hit pass (settleHits) settles every cache
// hit, whose outcome already sits in outs; their recorded message costs are
// charged in one sum (a Localized hit pays exactly what re-running its
// search would have). Only the invalid entries fan out across
// Config.Workers, so a converged or healing round costs O(dirty)
// computations plus O(n) plain reads. After the fan-out the computed entries
// are noted into the live per-cell ρ-bounds, serially and in O(dirty).
func (ns *nodeState) stepAll(ids []int, round int) []int {
	ns.net.Rebuild() // build the spatial index once, before the fan-out
	ns.dirty = slices.Grow(ns.dirty[:0], len(ids))
	todo, cost := ns.settleHits(ids, nil)
	ns.charge(cost)
	workers := parallel.Workers(ns.cfg.Workers)
	ns.ensurePool(workers)
	if ns.stepFn == nil {
		ns.stepFn = func(w, k int) {
			ns.computeEntry(ns.stepIDs[k], ns.stepRound, ns.pool[w], false)
		}
	}
	ns.stepIDs, ns.stepRound = todo, round
	ns.team.Fan(len(todo), workers, ns.stepFn)
	ns.warmPool()
	ns.noteRhoBounds(todo)
	return todo
}

// settleHits is the hit pass of a Synchronous round and of a final
// collection, neither of which meets a speculative entry: it counts every
// valid entry of ids as a cache hit, sums their recorded message costs and,
// given radii, writes their R̂ into it. It returns the nodes left to compute
// (a reused buffer): the invalid ones, or all of ids with the cache off.
func (ns *nodeState) settleHits(ids []int, radii []float64) (dirty []int, cost int64) {
	if !ns.cacheOn {
		return ids, 0
	}
	dirty = ns.dirty[:0]
	for _, i := range ids {
		c := &ns.cache[i]
		if !c.valid {
			dirty = append(dirty, i)
			continue
		}
		cost += c.cost
		if radii != nil {
			radii[i] = ns.outs[i].rhat
		}
	}
	ns.hits += uint64(len(ids) - len(dirty))
	ns.dirty = dirty
	return dirty, cost
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
	turned := [1]int{i}
	ns.noteRhoBounds(turned[:])
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
	ns.invalidate(ends[:])
	return old, true, true
}

// commitMoves applies the moves of ids at once — the Synchronous commit: all
// reads were at start-of-round positions — records them in movedIDs and
// movedPts, and invalidates around both endpoints of each. ids need only
// hold the nodes computed this round: a cache hit never moves, because a
// committed mover's own entry is dropped.
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
	ns.invalidate(ns.movedPts)
}

// foldStats folds the outcomes of ids into st, in the order of ids. Extrema
// skip empty regions. It is RoundStats.Merge of each node's one-node stats,
// unrolled into one loop: the same > and < comparisons in the same order
// (a node that stood still offers MaxMove 0), so NaN and −0 fold exactly as
// Merge folds them.
func (ns *nodeState) foldStats(st *RoundStats, ids []int) {
	s := *st
	for _, i := range ids {
		o := &ns.outs[i]
		if o.empty {
			continue
		}
		if o.ri > s.MaxCircumradius {
			s.MaxCircumradius = o.ri
		}
		if o.ri < s.MinCircumradius {
			s.MinCircumradius = o.ri
		}
		if o.rhat > s.MaxRhat {
			s.MaxRhat = o.rhat
		}
		var move float64
		if o.moved {
			s.Moved++
			move = o.moveDist
		}
		if move > s.MaxMove {
			s.MaxMove = move
		}
	}
	*st = s
}

// finalRadii assigns the final sensing range (line 7 of Algorithm 1) of
// every node of ids into radii, or its region into regions (DebugRegions,
// which recomputes every node). One rule: a valid entry supplies its last R̂
// (outs[i].rhat), bitwise what a recompute would measure, and counts as a
// cache hit (settleHits); only the other nodes' regions are recomputed,
// fanning out from the density fallback, with R̂ measured on the slab.
//
// tag names the round the collection belongs to. A non-negative tag is the
// last round of a converged run, which already paid for every node: the
// searches replay its loss draws and nothing is charged. A negative tag
// (finalRoundTag) is an out-of-round collection, which never replays the
// draws of a Step round and charges every node what the eager protocol
// would pay: a recomputed node its search cost, a reused one its recorded
// cost. It reports false when admit rejected some recomputation (neither
// charged nor stored).
func (ns *nodeState) finalRadii(ids []int, tag int, radii []float64, regions [][]geom.Polygon) bool {
	paid := tag >= 0
	todo := ids
	if regions == nil {
		var cost int64
		todo, cost = ns.settleHits(ids, radii)
		if !paid {
			ns.charge(cost)
		}
		if len(todo) == 0 {
			return true
		}
	}
	ns.net.Rebuild()
	workers := parallel.Workers(ns.cfg.Workers)
	ns.ensurePool(workers)
	var rejected atomic.Bool
	ns.team.Fan(len(todo), workers, func(w, k int) {
		i, s := todo[k], ns.pool[w]
		var flag bool
		var rng *rand.Rand
		if ns.cfg.Mode == Localized {
			flag, rng = ns.boundary[i], ns.lossRNG(tag, i)
		}
		refs, readRad := ns.regionRefs(i, 0, flag, rng, s)
		rhat := voronoi.MaxDistFromRefs(ns.net.Position(i), &s.vor.Slab, refs)
		if ns.admit != nil && !ns.admit(i, readRad, rhat) {
			rejected.Store(true)
			return
		}
		if !paid {
			ns.charge(ns.searchCost(s))
		}
		if radii != nil {
			radii[i] = rhat
		}
		if regions != nil {
			regions[i] = voronoi.CompactRefs(&s.vor.Slab, refs)
		}
	})
	ns.warmPool()
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
func (ns *nodeState) repairFlags() []bool {
	dirty := ns.flagDirty
	if len(dirty) == 0 {
		return ns.flagVals
	}
	ns.net.Rebuild()
	var det boundary.AngularGap
	if workers := parallel.Workers(ns.cfg.Workers); workers > 1 && len(dirty) >= 256 {
		for len(ns.flagPool) < workers {
			ns.flagPool = append(ns.flagPool, &boundary.Scratch{})
		}
		if ns.flagFn == nil {
			ns.flagFn = func(w, k int) {
				i := ns.flagDirty[k]
				ns.flagVals[i] = boundary.AngularGap{}.BoundaryNodeScratch(ns.net, i, ns.flagPool[w])
				ns.flagValid[i] = true
			}
		}
		ns.team.Fan(len(dirty), workers, ns.flagFn)
		warmSlots(ns.flagPool, (*boundary.Scratch).Reserve)
	} else {
		for _, i := range dirty {
			ns.flagVals[i] = det.BoundaryNodeScratch(ns.net, i, &ns.flagScratch)
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
// the γ the angular-gap detector reads, so a flag left valid provably has an
// unchanged input set.
func (ns *nodeState) markFlagsNear(p geom.Point) {
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

// grow appends m fresh slots to the per-node state, for the nodes a network
// gained at its end: no cache entry, no outcome, and in Localized mode a
// boundary flag on the repair list. It also reserves the commit's move
// buffers for the new node count, so a round never grows them.
func (ns *nodeState) grow(m int) {
	n := len(ns.outs)
	ns.outs = extend(ns.outs, m)
	ns.cache = extend(ns.cache, m)
	ns.flagVals = extend(ns.flagVals, m)
	ns.flagValid = extend(ns.flagValid, m)
	if ns.cfg.Mode == Localized {
		for i := n; i < n+m; i++ {
			ns.flagDirty = append(ns.flagDirty, i)
		}
	}
	ns.movedIDs = slices.Grow(ns.movedIDs[:0], n+m)
	ns.movedPts = slices.Grow(ns.movedPts[:0], 2*(n+m))
}

// extend appends m zero values to s.
func extend[T any](s []T, m int) []T {
	n := len(s)
	s = slices.Grow(s, m)[:n+m]
	clear(s[n:])
	return s
}

// renumber carries every node's state across a renumbering of the nodes:
// from[i] is the previous index of the node now at index i, or -1 for a node
// whose state starts fresh (no entry, no outcome, no hint, its flag
// invalid). Both the Stepper (a shard's membership change) and the Engine (a
// removal) renumber through it. The previous arrays become the spare half of
// the double buffer, so a steady stream of renumberings allocates nothing.
// The flag repair list is rebuilt in the new numbering. The per-cell bounds
// are kept: they are indexed by cell, not by node, and a renumbering over
// the same network (a removal) leaves every remaining node in its cell; a
// caller that attaches a different network drops them (Stepper.Renumber).
func (ns *nodeState) renumber(from []int32) {
	cur, nxt := &ns.nodeArrays, &ns.spare
	nxt.outs = permute(nxt.outs, cur.outs, from)
	nxt.cache = permute(nxt.cache, cur.cache, from)
	nxt.flagVals = permute(nxt.flagVals, cur.flagVals, from)
	nxt.flagValid = permute(nxt.flagValid, cur.flagValid, from)
	ns.nodeArrays, ns.spare = ns.spare, ns.nodeArrays
	ns.flagDirty = ns.flagDirty[:0]
	if ns.cfg.Mode == Localized {
		for i, ok := range ns.flagValid {
			if !ok {
				ns.flagDirty = append(ns.flagDirty, i)
			}
		}
	}
}

// permute fills dst (reusing its storage) with src rearranged by from; -1
// entries get the zero value.
func permute[T any](dst, src []T, from []int32) []T {
	dst = slices.Grow(dst[:0], len(from))[:len(from)]
	var zero T
	for i, o := range from {
		if o >= 0 {
			dst[i] = src[o]
		} else {
			dst[i] = zero
		}
	}
	return dst
}

// dropEntry invalidates node j's cache entry. An unconsumed speculative
// entry dying here means its search ran for nothing; it was never charged,
// so the round's visible accounting is exactly what the eager serial sweep
// would have charged, at every instant, with no refund ever needed.
func (ns *nodeState) dropEntry(j int) {
	c := &ns.cache[j]
	if c.spec {
		c.spec = false
		ns.counters.SpecWasted++
	}
	c.valid = false
}

// invalidate applies position-change endpoints: every boundary flag whose
// γ-ball contains one of pts is marked for repair (Localized mode), and
// every cache entry whose exactness ball does is dropped (cache on): a node
// entering the ball changes the site set by its new position,
// a node leaving it by its old one, and any move inside it changes a site's
// coordinates. Entries outside stay valid — the expanding search provably
// never read those positions, so recomputing would reproduce the cached
// outcome bit for bit. Callers drop a mover's own entry first. Every caller
// runs through here: the Synchronous commit, a Sequential turn, MoveNode,
// RemoveNode and the shard Stepper.
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
// The per-cell bounds are live (see noteRhoBounds), so an invalidation
// around a few endpoints costs no O(n) pass. The strategy is decided afresh
// on exact numbers — an O(n) scan for the valid entries and their largest ρ
// — only when the live bounds cannot decide it: none exist for the attached
// network, the grid generation changed, as many entries were installed
// since the last build as there are nodes, or the live rhoMax, which can be
// stale-high, leaves the pair-scan possibly cheaper. The bounds are then
// rebuilt only if they are stale and the inverse queries are taken; a
// pair-scan costs O(n) anyway, and it never runs because of a stale bound.
func (ns *nodeState) invalidate(pts []geom.Point) {
	if ns.cfg.Mode == Localized {
		for _, p := range pts {
			ns.markFlagsNear(p)
		}
	}
	if !ns.cacheOn || len(pts) == 0 {
		return
	}
	stale := !ns.boundsLive || ns.boundGen != ns.net.GridShape().Gen || ns.churn >= len(ns.cache)
	if stale || ns.pairScanCheaper(ns.rhoMax, 0, len(pts)) {
		valid, rhoMax := ns.validRho()
		if valid == 0 {
			return
		}
		if ns.pairScanCheaper(rhoMax, valid, len(pts)) {
			ns.pairScan(pts)
			return
		}
		if stale {
			ns.rebuildRhoBounds()
		} else {
			ns.rhoMax = rhoMax // exact, so still an upper bound
		}
	}
	ns.counters.InverseScans++
	for _, p := range pts {
		ns.invalidateNear(p)
	}
}

// pairScanCheaper reports whether the dense pair-scan — a pass over all n
// entries at two units each plus one distance test per valid entry and
// endpoint — costs no more than an inverse query per endpoint over the cell
// window of radius rhoMax, at two units per cell. With valid 0 it is the
// most the pair-scan could save. For a large batch of endpoints it picks
// the pair-scan about when the window has half as many cells as there are
// valid entries, and for the single move of a Sequential turn about when it
// has n/2 cells or more.
func (ns *nodeState) pairScanCheaper(rhoMax float64, valid, endpoints int) bool {
	return 2*len(ns.cache)+valid*endpoints <= 2*ns.net.CellWindowSize(rhoMax)*endpoints
}

// validRho returns the number of valid cache entries and their largest ρ.
func (ns *nodeState) validRho() (valid int, rhoMax float64) {
	for j := range ns.cache {
		if c := &ns.cache[j]; c.valid {
			valid++
			if c.rho > rhoMax {
				rhoMax = c.rho
			}
		}
	}
	return valid, rhoMax
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
// the valid cache entries, in O(n + cells), stamps it with the index
// generation it was computed against and marks it live.
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
	ns.boundsLive = true
	ns.churn = 0
	ns.counters.BoundRebuilds++
}

// noteRhoBounds raises the live per-cell ρ-bounds to cover the valid entries
// of ids, just installed: by a Sequential turn, by stepAll after its fan-out
// and by the colored sweep after each speculation wave (a fan-out's workers
// install concurrently, so their entries are noted afterwards, serially).
// Every install is noted, so the bounds stay upper bounds of every valid
// entry. Without live bounds for the current grid generation there is
// nothing to keep up: the next invalidation rebuilds them from every entry.
func (ns *nodeState) noteRhoBounds(ids []int) {
	if !ns.cacheOn || !ns.boundsLive || ns.boundGen != ns.net.GridShape().Gen {
		return
	}
	for _, i := range ids {
		c := &ns.cache[i]
		if !c.valid {
			continue
		}
		ns.churn++
		ci := ns.net.CellOfNode(i)
		if c.rho > ns.rhoBound[ci] {
			ns.rhoBound[ci] = c.rho
		}
		if c.rho > ns.rhoMax {
			ns.rhoMax = c.rho
		}
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
