package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/parallel"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// RoundStats records one round of the deployment for convergence analysis
// (the series plotted in the paper's Fig. 6).
type RoundStats struct {
	Round int
	// MaxCircumradius and MinCircumradius are the extrema over nodes of the
	// circumradius of each node's dominating region (the smallest-enclosing-
	// circle radius R_i computed at the node's position for that round).
	MaxCircumradius float64
	MinCircumradius float64
	// MaxRhat is max_i max_{v∈V_i} ‖v−u_i‖ — the quantity R̂ that the
	// convergence proof (Prop. 4) shows non-increasing.
	MaxRhat float64
	// MaxMove is the largest distance any node moved this round.
	MaxMove float64
	// Moved is the number of nodes that moved more than ε.
	Moved int
	// Messages is the number of link-level messages sent this round
	// (Localized mode only).
	Messages int64
}

// Result is the outcome of a deployment run.
type Result struct {
	// Positions are the final node locations u*_i.
	Positions []geom.Point
	// Radii are the final sensing ranges r*_i (circumradius of each node's
	// dominating region about its final position).
	Radii []float64
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports whether every node ended within ε of its Chebyshev
	// center (as opposed to hitting MaxRounds).
	Converged bool
	// Trace holds per-round statistics.
	Trace []RoundStats
	// Messages is the total link-level message count (Localized mode).
	Messages int64
	// Regions holds each node's final dominating region if
	// Config.KeepRegions was set.
	Regions [][]geom.Polygon
}

// MaxRadius returns max_i r*_i — the paper's objective R. A degenerate
// result with no radii reports 0.
func (r *Result) MaxRadius() float64 {
	if len(r.Radii) == 0 {
		return 0
	}
	m := r.Radii[0]
	for _, v := range r.Radii[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// MinRadius returns min_i r*_i. A degenerate result with no radii reports 0.
func (r *Result) MinRadius() float64 {
	if len(r.Radii) == 0 {
		return 0
	}
	m := r.Radii[0]
	for _, v := range r.Radii[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Engine executes LAACAD rounds. Create with New, then call Step until
// convergence or use Run. The Engine may be mutated between steps (e.g.
// RemoveNode for failure injection); it re-validates node counts.
type Engine struct {
	cfg      Config
	reg      *region.Region
	net      *wsn.Network
	detector boundary.Detector

	round     int
	converged bool
	trace     []RoundStats
	regions   [][]geom.Polygon // last round's dominating regions
	prevMsgs  int64
	// msgBase is the message count carried over from before a Resume; the
	// live network counter restarts at zero on every (re)construction.
	msgBase int64
	// finalMsgs counts messages charged by Finalize's out-of-round region
	// recomputation (the final radius collection of an unconverged run).
	// Result.Messages includes them, but Snapshot subtracts them: a
	// checkpoint is the state at a round boundary, and a run resumed from it
	// performs its own final collection — counting the interrupted run's
	// partial-result assembly too would double-charge it.
	finalMsgs int64
	// observer, if set, runs after every round of Run with that round's
	// statistics (see SetObserver).
	observer func(RoundStats) error

	// pool holds one Scratch per worker slot so the per-node geometry
	// pipeline runs without heap allocation; outs/nextBuf/movedBuf are the
	// reusable per-round buffers.
	pool     []*Scratch
	outs     []nodeOutcome
	nextBuf  []geom.Point
	movedBuf []movedNode

	// cache is the incremental dirty-set: each entry holds a node's last
	// computed outcome together with the exactness radius ρ of the search
	// that produced it. The outcome is a pure function of the positions
	// inside the ρ-ball around the node (see centralizedRegionSoA and
	// localizedSearch), so it is reused verbatim until some position
	// inside that ball changes — which collapses the long converged tail of
	// a deployment to near-zero work per round. In Localized mode each entry
	// additionally records the search's link-level message cost; a reuse
	// re-charges that cost so the per-round accounting stays exactly what
	// the eager protocol would have paid. cacheVer mirrors net.Version() so
	// out-of-band position writes (anything other than the engine's own
	// moves) invalidate — locally via the per-cell version diff when
	// possible, wholesale otherwise.
	cache    []nodeCache
	cacheVer uint64
	// rhoHint is each node's last known exactness radius, kept across
	// invalidations — the interference-prediction input of the colored
	// Sequential sweep (a stale hint only costs a wasted speculation, never
	// correctness; see planWave).
	rhoHint []float64
	// lastRhat is each node's R̂ from the most recent round — the same
	// max-vertex-distance a converged Finalize would measure over the node's
	// last region at its (unchanged) position. It lets Finalize assign final
	// radii without any region having been materialized (regions are only
	// compacted and retained under Config.KeepRegions).
	lastRhat []float64
	// hits counts cache reuses; atomic because the Synchronous fan-out
	// consults the cache from worker goroutines.
	hits atomic.Uint64
	// batchNodes counts dominating regions computed on the SoA batch kernel;
	// atomic because batch step functions run from worker goroutines.
	batchNodes atomic.Uint64

	// Level-scheduled colored-sweep (Sequential order) state. schedKeys is
	// the round's speculation schedule — packed (trigger, node) keys sorted
	// ascending, built once per round by planLevelSchedule — and schedPos the
	// consumption cursor; schedOn gates execution (planning declined, or the
	// waste cutoff latched off mid-round). schedWidthCap is the adaptive
	// per-wave width budget and schedLevel the per-node Kahn level of the
	// current plan (read only for same-round dirty-mover predecessors, so it
	// needs no clearing). waveBase* snapshot the speculation counters at
	// round start for the waste cutoff; waveCands/waveSel/waveMark are the
	// reusable planning buffers. waveHook, when set (tests), observes each
	// launched wave; schedHook observes each round's plan while the
	// disturber marks are still live.
	schedKeys        []int64
	schedPos         int
	schedOn          bool
	schedWidthCap    int
	schedLevel       []int32
	waveBaseComputed uint64
	waveBaseWasted   uint64
	waveCands        []int
	waveSel          []int
	waveMark         []uint8
	waveHook         func(from int, selected []int)
	schedHook        func(keys []int64)
	// wavePool serves every speculation wave of a sweep from one set of
	// parked goroutines (opened around the sweep, closed after it), and
	// waveFn is the one persistent fan-out closure — together they make a
	// wave launch allocation-free. waveRound/waveBoundary carry the
	// per-round arguments the closure reads.
	wavePool     parallel.Pool
	waveFn       func(w, idx int)
	waveRound    int
	waveBoundary []bool
	// eager, when set (tests), turns the dirty-set cache off: every round
	// recomputes every node. The cache is semantically invisible —
	// trajectories, traces, results and message accounting are
	// bit-identical either way — and the eager engine is the reference the
	// equivalence suites diff the cached engine against.
	eager bool
	// commitHook, when set (tests), runs after every node's turn of a
	// Sequential sweep completes — the mid-round observation point at which
	// externally visible accounting must be exact and monotone.
	commitHook func(i int)

	// Incremental boundary flags (Localized mode with a PerNode detector and
	// the cache on): flagVals holds each node's flag as of the start of the
	// current round, flagValid marks entries whose γ-ball is provably
	// untouched since they were computed ("ball unchanged ⇒ flag unchanged",
	// the PerNode locality contract), and flagDirty lists the invalid ones so
	// the per-round repair pass touches only what a move disturbed — never
	// O(n). flagsLive marks rounds the cache is serving; flagScratch and
	// flagPool keep the repair evaluations allocation-free (serial and
	// parallel respectively).
	flagVals    []bool
	flagValid   []bool
	flagDirty   []int
	flagsLive   bool
	flagScratch boundary.Scratch
	flagPool    []*boundary.Scratch

	// statsEpoch mirrors wsn.Network.StatsEpoch: an out-of-band ResetStats
	// zeroes counters the cache's recorded costs and the per-round message
	// baseline were measured against, so the engine flushes and re-bases when
	// the epochs diverge.
	statsEpoch uint64

	// Out-of-band write localization: a snapshot of the grid's per-cell
	// mutation versions from the last time the cache was known in sync.
	// When an external position write bumps net.Version between rounds, the
	// engine diffs the live cell versions against this snapshot and
	// invalidates only entries whose ρ-ball can touch a changed cell,
	// instead of flushing wholesale (localFlush). The snapshot is patched
	// with the engine's own move cells after every round and recopied after
	// any full grid rebuild (its cell numbering belongs to one generation).
	cellSnap    []uint32
	cellSnapGen uint64
	cellSnapOK  bool

	// Grid-accelerated invalidation state. rhoBound[c] upper-bounds the
	// exactness radius ρ of the valid cache entries whose nodes currently
	// sit in grid cell c, and rhoMax is the global maximum — together they
	// let an inverse range query around a moved endpoint prune cells that
	// cannot possibly hold an affected entry. boundGen records the index
	// geometry (wsn.GridShape.Gen) the bounds were computed for; a full grid
	// rebuild invalidates the cell numbering, so a mismatch forces a bound
	// recomputation. seqBoundsLive tracks whether the bounds are being kept
	// current within a Sequential sweep (see invalidateAround).
	rhoBound      []float64
	rhoMax        float64
	boundGen      uint64
	seqBoundsLive bool
	counters      CacheCounters
}

// CacheCounters reports the work performed by the incremental cache's
// invalidation machinery — the observability surface behind the scaling
// contract that steady-state round cost is proportional to what moved, not
// what exists. Read it via Engine.CacheCounters; all counters are cumulative
// over the engine's lifetime.
type CacheCounters struct {
	// InverseScans and PairScans count invalidation passes executed as grid
	// inverse range queries vs. the dense pair-scan fallback (chosen only
	// when exactness balls are so large the grid window would cover
	// everything anyway).
	InverseScans, PairScans uint64
	// CellVisits and CandidateVisits count grid cells inspected and cache
	// entries distance-tested by inverse queries.
	CellVisits, CandidateVisits uint64
	// PairVisits counts cache entries visited by pair-scans.
	PairVisits uint64
	// BoundRebuilds counts recomputations of the per-cell ρ-bound array.
	BoundRebuilds uint64
	// CacheHits counts outcomes served from the dirty-set cache (all modes).
	CacheHits uint64
	// Waves, SpecComputed, SpecUsed and SpecWasted describe the colored
	// Sequential sweep: parallel speculation waves planned, entries computed
	// by them, entries consumed at their node's turn, and entries that a
	// committed move invalidated before use (wasted work; a Localized wasted
	// speculation voids its escrowed message cost, which the public counters
	// never saw — see wsn.BeginEscrow).
	Waves, SpecComputed, SpecUsed, SpecWasted uint64
	// FlagEvals counts per-node boundary-flag evaluations performed by the
	// incremental flag cache (Localized mode, PerNode detectors). Converged
	// steady-state rounds perform none — the counter-asserted contract that
	// boundary detection is no longer an O(n)-per-round term.
	FlagEvals uint64
	// LocalFlushes counts out-of-band position writes absorbed by the
	// per-cell version diff instead of a wholesale cache flush.
	LocalFlushes uint64
	// Levels and LevelWidthMax describe the level scheduler behind the
	// Sequential waves: cumulative interference-DAG layers laid out across
	// all planned rounds, and the widest single wave ever launched. A
	// mover-heavy round that parallelizes cleanly shows few levels with
	// large widths; Levels staying at zero means every Sequential round ran
	// serially.
	Levels, LevelWidthMax uint64
	// BatchCalls counts batched speculation-wave launches (fan-outs through
	// the SoA kernel), BatchNodes the dominating regions computed on that
	// kernel (all entry points, including serial turns and Synchronous
	// fan-outs), and BatchSizeHist buckets each wave's node count into
	// 1, 2–3, 4–7, 8–15, 16–31 and 32+.
	BatchCalls, BatchNodes uint64
	BatchSizeHist          [6]uint64
}

// batchSizeBucket maps a wave's node count to its BatchSizeHist bucket.
func batchSizeBucket(n int) int {
	b := 0
	for n > 1 && b < 5 {
		n >>= 1
		b++
	}
	return b
}

// CacheCounters returns the cumulative invalidation-work counters.
func (e *Engine) CacheCounters() CacheCounters {
	c := e.counters
	c.CacheHits = e.hits.Load()
	c.BatchNodes = e.batchNodes.Load()
	return c
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
	c.BatchCalls = 0
	c.BatchNodes = 0
	c.BatchSizeHist = [6]uint64{}
	return c
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

// movedNode records one move for application and cache invalidation: the ID
// drives the incremental position write, and both endpoints matter for
// invalidation, because a node entering an exactness ball invalidates it by
// its new position and a node leaving it by its old one.
type movedNode struct {
	id       int
	old, new geom.Point
}

// ErrStop is the sentinel an Observer returns to stop a run early and
// cleanly: Run finalizes the deployment and returns the partial Result with
// a nil error. Any other observer error also stops the run but is returned
// (alongside the partial Result) to the caller.
var ErrStop = errors.New("core: observer stopped the run")

// New creates an Engine deploying the given initial node positions over reg.
// Initial positions outside the region are clamped inside.
func New(reg *region.Region, initial []geom.Point, cfg Config) (*Engine, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: nil region")
	}
	if err := cfg.validate(len(initial)); err != nil {
		return nil, err
	}
	if cfg.RingCap == 0 {
		cfg.RingCap = reg.BBox().Diagonal() + cfg.Gamma
	}
	pos := make([]geom.Point, len(initial))
	for i, p := range initial {
		pos[i] = reg.ClampInside(p)
	}
	gamma := cfg.Gamma
	if gamma <= 0 {
		// Centralized mode has no radio range; gamma only floors the spatial
		// index's cell side. Keep the floor far below the deployment scale so
		// the index's occupancy-adaptive rule (cell ≈ span/√n) decides — at
		// 10k+ nodes a diagonal-scale floor would put hundreds of nodes in
		// every cell. Query answers are independent of cell geometry, so this
		// is purely an indexing choice.
		gamma = reg.BBox().Diagonal() * 1e-3
	}
	det := cfg.Detector
	if det == nil {
		det = boundary.AngularGap{}
	}
	net := wsn.New(pos, gamma)
	// The engine clamps every position into reg, so the region's bounding
	// box bounds the deployment for its whole lifetime: seeding the spatial
	// index with it means expansion-phase moves (a corner pile spreading
	// out) never exit the grid bounds and never force a rebuild.
	net.SetBoundsHint(reg.BBox())
	return &Engine{
		cfg:      cfg,
		reg:      reg,
		net:      net,
		detector: det,
	}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Network exposes the underlying WSN substrate (positions, message stats).
func (e *Engine) Network() *wsn.Network { return e.net }

// Positions returns a copy of the current node positions.
func (e *Engine) Positions() []geom.Point { return e.net.Positions() }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Converged reports whether the last Step found every node within ε of its
// Chebyshev center.
func (e *Engine) Converged() bool { return e.converged }

// Trace returns the per-round statistics collected so far.
func (e *Engine) Trace() []RoundStats { return e.trace }

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

// finishMove applies the motion rule (step α toward the clamped Chebyshev
// center, stand still within ε) to an outcome under construction.
func (e *Engine) finishMove(ui, ci geom.Point, out *nodeOutcome) {
	ci = e.reg.ClampInside(ci)
	if d := ui.Dist(ci); d > e.cfg.Epsilon {
		target := ui.Add(ci.Sub(ui).Scale(e.cfg.Alpha))
		target = e.reg.ClampInside(target)
		out.next = target
		out.moved = true
		out.moveDist = ui.Dist(target)
	}
}

// stepNodeAny dispatches one node's round computation, consulting the
// dirty-set cache first when it is enabled. Cache entries are written only
// by the worker that owns node i this round, so the fan-out needs no
// locking.
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
func (e *Engine) stepNodeAny(i, round int, isBoundary []bool, s *Scratch, cacheOn bool) nodeOutcome {
	if e.cfg.Mode == Localized {
		if cacheOn {
			if c := &e.cache[i]; c.valid && c.boundary == isBoundary[i] {
				e.hits.Add(1)
				if c.spec {
					c.spec = false
					e.counters.SpecUsed++
					e.net.CommitEscrow(i)
				} else if c.cost != 0 {
					e.net.Charge(i, c.cost)
				}
				return c.out
			}
			return e.computeEntry(i, round, isBoundary, s, false)
		}
		b := isBoundary != nil && isBoundary[i]
		out, _ := e.stepNodeLocalized(i, b, e.lossRNG(round, i), s)
		return out
	}
	if cacheOn {
		if c := &e.cache[i]; c.valid {
			e.hits.Add(1)
			if c.spec {
				c.spec = false
				e.counters.SpecUsed++
			}
			return c.out
		}
		return e.computeEntry(i, round, isBoundary, s, false)
	}
	out, _ := e.stepNodeCentralized(i, e.rhoHint[i], s)
	return out
}

// computeEntry computes node i's outcome from the current positions and
// installs it as a cache entry (speculative when spec is set — the colored
// sweep's waves write through here from worker goroutines; entry i is only
// ever written by the worker owning i, so no locking). Localized entries
// measure the search's link-level cost: a serial computation diffs the
// node's own message counter around the search — every charge of an
// expanding-ring search is attributed to the searching node, so the diff is
// exact even while other workers charge their own searches concurrently — a
// speculative one instead runs the search inside the node's wsn escrow, so
// the cost is measured without ever reaching the public counters: an
// external Stats read mid-wave sees only committed work, exact and monotone.
func (e *Engine) computeEntry(i, round int, isBoundary []bool, s *Scratch, spec bool) nodeOutcome {
	if e.cfg.Mode == Localized {
		b := isBoundary[i]
		var out nodeOutcome
		var inv float64
		var cost int64
		if spec {
			e.net.BeginEscrow(i)
			out, inv = e.stepNodeLocalized(i, b, e.lossRNG(round, i), s)
			cost = e.net.EndEscrow(i)
		} else {
			before := e.net.NodeMessages(i)
			out, inv = e.stepNodeLocalized(i, b, e.lossRNG(round, i), s)
			cost = e.net.NodeMessages(i) - before
		}
		e.cache[i] = nodeCache{valid: true, spec: spec, boundary: b, rho: inv, cost: cost, out: out}
		e.rhoHint[i] = inv
		return out
	}
	out, rho := e.stepNodeCentralized(i, e.rhoHint[i], s)
	e.cache[i] = nodeCache{valid: true, spec: spec, rho: rho, out: out}
	e.rhoHint[i] = rho
	return out
}

// cacheEnabled reports whether the dirty-set cache applies. Centralized mode
// always caches; Localized mode caches only when message loss is off — loss
// draws are per-round randomness, so an outcome computed last round is not
// the outcome this round's search would produce even over identical
// positions. Lossy Localized runs therefore take the eager path, which the
// equivalence suites also force through the eager hook.
func (e *Engine) cacheEnabled() bool {
	if e.eager {
		return false
	}
	if e.cfg.Mode == Localized {
		return e.cfg.LossRate == 0
	}
	return true
}

// ensureBuffers sizes the per-round buffers and the dirty-set cache for n
// nodes. A node-count change (AddNode/RemoveNode, which also drop the cache
// explicitly) discards the cache wholesale here too: its indices belong to
// the old numbering.
func (e *Engine) ensureBuffers(n int) {
	if cap(e.outs) < n {
		e.outs = make([]nodeOutcome, n)
		e.nextBuf = make([]geom.Point, n)
	}
	e.outs = e.outs[:n]
	e.nextBuf = e.nextBuf[:n]
	if cap(e.lastRhat) < n {
		e.lastRhat = make([]float64, n)
	}
	e.lastRhat = e.lastRhat[:n]
	if len(e.cache) != n {
		e.cache = make([]nodeCache, n)
		e.rhoHint = make([]float64, n)
		e.cacheVer = e.net.Version()
		// The cell-version snapshot indexes entries by the old numbering's
		// occupancy; a node-count change makes it meaningless.
		e.cellSnapOK = false
	}
}

// ensurePool sizes the per-worker scratch pool.
func (e *Engine) ensurePool(workers int) {
	for len(e.pool) < workers {
		e.pool = append(e.pool, NewScratch())
	}
}

// repairFlags brings the incremental boundary-flag cache up to date with the
// current (start-of-round) positions and returns the full flag array. Only
// nodes on the dirty list — those whose γ-ball a move endpoint, an external
// write, or a flush touched — are re-evaluated, so a converged round repairs
// nothing and a few-movers round repairs O(disturbed), never O(n). A large
// dirty set (first round, topology change) fans the evaluations out across
// the worker pool; each evaluation reads only start-of-round positions, so
// the result is independent of worker count and evaluation order.
func (e *Engine) repairFlags(pn boundary.PerNode, n int) []bool {
	if len(e.flagVals) != n {
		// Node count changed (or first use): the indices belong to another
		// numbering, so every flag is re-evaluated.
		e.flagVals = make([]bool, n)
		e.flagValid = make([]bool, n)
		e.flagDirty = e.flagDirty[:0]
		for i := 0; i < n; i++ {
			e.flagDirty = append(e.flagDirty, i)
		}
	}
	dirty := e.flagDirty
	if len(dirty) == 0 {
		return e.flagVals
	}
	e.net.Rebuild()
	scratched, scratchOK := pn.(boundary.PerNodeScratch)
	if workers := parallel.Workers(e.cfg.Workers); scratchOK && workers > 1 && len(dirty) >= 256 {
		for len(e.flagPool) < workers {
			e.flagPool = append(e.flagPool, &boundary.Scratch{})
		}
		parallel.ForWorker(len(dirty), workers, func(w, idx int) {
			i := dirty[idx]
			e.flagVals[i] = scratched.BoundaryNodeScratch(e.net, i, e.flagPool[w])
			e.flagValid[i] = true
		})
	} else {
		for _, i := range dirty {
			if scratchOK {
				e.flagVals[i] = scratched.BoundaryNodeScratch(e.net, i, &e.flagScratch)
			} else {
				e.flagVals[i] = pn.BoundaryNode(e.net, i)
			}
			e.flagValid[i] = true
		}
	}
	e.counters.FlagEvals += uint64(len(dirty))
	e.flagDirty = e.flagDirty[:0]
	return e.flagVals
}

// markFlagsNear invalidates every cached boundary flag whose γ-ball,
// inflated by slack, contains p — the flag-cache analogue of invalidateNear,
// run for both endpoints of every move (a neighbor entering the ball changes
// the flag input by its new position, one leaving it by its old one; the
// mover itself is always within distance zero of its own new endpoint). The
// invalidation radius is exactly the PerNode locality contract's γ, so a
// flag left valid provably has an unchanged input set.
func (e *Engine) markFlagsNear(p geom.Point, slack float64) {
	if len(e.flagVals) != e.net.Len() {
		return // no live flag cache (or stale numbering; repair resets it)
	}
	r := e.net.Gamma() + slack
	r2 := r * r
	if 2*e.net.CellWindowSize(r) >= len(e.flagVals) {
		// Degenerate geometry: the window covers the grid, scan densely.
		for j := range e.flagVals {
			if e.flagValid[j] && e.net.Position(j).Dist2(p) <= r2 {
				e.flagValid[j] = false
				e.flagDirty = append(e.flagDirty, j)
			}
		}
		return
	}
	e.net.VisitCellsWithin(p, r, func(ci int) {
		if e.net.CellDist2(ci, p) > r2 {
			return
		}
		for _, j := range e.net.CellNodes(ci) {
			if e.flagValid[j] && e.net.Position(int(j)).Dist2(p) <= r2 {
				e.flagValid[j] = false
				e.flagDirty = append(e.flagDirty, int(j))
			}
		}
	})
}

// flushCache invalidates every cache entry (and every cached boundary flag)
// and re-syncs with the network's mutation counter. It runs only between
// rounds, when no speculative entry can exist (waves live and die within one
// sweep), so no escrow is outstanding.
func (e *Engine) flushCache() {
	for i := range e.cache {
		e.cache[i].valid = false
	}
	for i := range e.flagValid {
		if e.flagValid[i] {
			e.flagValid[i] = false
			e.flagDirty = append(e.flagDirty, i)
		}
	}
	e.cacheVer = e.net.Version()
}

// dropEntry invalidates node j's cache entry. An unconsumed speculative
// entry dying here means its search ran for nothing: its escrowed message
// cost is voided — the public counters never saw it, so the round's visible
// accounting is exactly what the eager serial sweep would have charged, at
// every instant, with no refund ever needed.
func (e *Engine) dropEntry(j int) {
	c := &e.cache[j]
	if c.spec {
		c.spec = false
		e.counters.SpecWasted++
		e.net.VoidEscrow(j)
	}
	c.valid = false
}

// invalidateMoved drops every cache entry whose exactness ball contains
// either endpoint of a recorded move: a node entering the ball changes the
// site set by its new position, a node leaving it by its old one, and any
// move inside it changes a site's coordinates. Entries outside stay valid —
// the expanding search provably never read those positions, so recomputing
// would reproduce the cached outcome bit for bit.
//
// Strategy: the balls live in the same space as the spatial index, so each
// moved endpoint runs an inverse range query against the grid — visit only
// cells within the largest exactness radius, prune those whose per-cell
// ρ-bound cannot reach the endpoint, and distance-test the survivors. That
// makes invalidation O(moved × local). When the balls are so large that the
// query window would cover the whole grid anyway (early rounds, sparse
// neighborhoods), the dense O(valid × moved) pair-scan is cheaper and is
// used as the fallback; both strategies invalidate exactly the same set.
func (e *Engine) invalidateMoved() {
	if len(e.movedBuf) == 0 {
		return
	}
	valid := 0
	rhoMax := 0.0
	for i := range e.cache {
		if c := &e.cache[i]; c.valid {
			valid++
			if c.rho > rhoMax {
				rhoMax = c.rho
			}
		}
	}
	if valid == 0 {
		return
	}
	if 2*e.net.CellWindowSize(rhoMax) >= valid {
		e.pairScanMoved()
		return
	}
	e.rebuildRhoBounds()
	e.counters.InverseScans++
	for _, m := range e.movedBuf {
		e.invalidateNear(m.old, 0)
		e.invalidateNear(m.new, 0)
	}
}

// pairScanMoved is the dense invalidation fallback: every valid entry is
// tested against every recorded move.
func (e *Engine) pairScanMoved() {
	e.counters.PairScans++
	for i := range e.cache {
		c := &e.cache[i]
		if !c.valid {
			continue
		}
		e.counters.PairVisits++
		ui := e.net.Position(i) // unchanged: moved nodes were invalidated already
		r2 := c.rho * c.rho
		for _, m := range e.movedBuf {
			if ui.Dist2(m.old) <= r2 || ui.Dist2(m.new) <= r2 {
				e.dropEntry(i)
				break
			}
		}
	}
}

// rebuildRhoBounds recomputes the per-cell ρ-bound array (and rhoMax) from
// the valid cache entries, in O(n + cells), and stamps it with the index
// generation it was computed against.
func (e *Engine) rebuildRhoBounds() {
	shape := e.net.GridShape()
	ncells := shape.NX * shape.NY
	if cap(e.rhoBound) < ncells {
		e.rhoBound = make([]float64, ncells)
	}
	e.rhoBound = e.rhoBound[:ncells]
	clear(e.rhoBound)
	e.rhoMax = 0
	for i := range e.cache {
		c := &e.cache[i]
		if !c.valid {
			continue
		}
		ci := e.net.CellOfNode(i)
		if c.rho > e.rhoBound[ci] {
			e.rhoBound[ci] = c.rho
		}
		if c.rho > e.rhoMax {
			e.rhoMax = c.rho
		}
	}
	e.boundGen = shape.Gen
	e.counters.BoundRebuilds++
}

// invalidateNear runs one inverse range query: drop every valid cache entry
// whose exactness ball, inflated by slack, contains p. The cell-window walk
// itself lives with the index (wsn.VisitCellsWithin); here each visited cell
// is pruned with the per-cell ρ-bound (an upper bound, so pruning can only
// skip cells that provably hold no affected entry) and surviving candidates
// get the exact distance test, which with slack 0 — the moved-endpoint case —
// matches the pair-scan predicate bit for bit. A positive slack turns the
// point test into "ball touches a square of half-diagonal slack around p",
// the conservative form localFlush needs for changed grid cells.
func (e *Engine) invalidateNear(p geom.Point, slack float64) {
	e.net.VisitCellsWithin(p, e.rhoMax+slack, func(ci int) {
		b := e.rhoBound[ci]
		if b == 0 {
			return
		}
		if r := b + slack; e.net.CellDist2(ci, p) > r*r {
			return
		}
		e.counters.CellVisits++
		for _, j := range e.net.CellNodes(ci) {
			c := &e.cache[j]
			if !c.valid {
				continue
			}
			e.counters.CandidateVisits++
			if r := c.rho + slack; e.net.Position(int(j)).Dist2(p) <= r*r {
				e.dropEntry(int(j))
			}
		}
	})
}

// localFlush attempts to absorb out-of-band position writes locally: diff
// the grid's per-cell mutation versions against the snapshot taken when the
// cache was last in sync, and invalidate only entries whose exactness ball
// (inflated by the cell half-diagonal) can touch a changed cell. Both
// endpoints of any external move live in bumped cells, so every affected
// entry is dropped; entries farther away provably never read the rewritten
// positions and stay valid — which is what makes interactive what-if editing
// of a converged deployment cheap. It reports false when localization is
// impossible — no snapshot, a full rebuild renumbered the cells (node
// removal, bulk rewrite, bounds exit), or so many cells changed that a
// wholesale flush is the cheaper response — and the caller falls back to
// flushCache.
func (e *Engine) localFlush() bool {
	if !e.cellSnapOK || e.cellSnapGen != e.net.GridShape().Gen {
		return false
	}
	changed := e.waveCands[:0] // reuse: the wave buffer is idle between rounds
	for ci := range e.cellSnap {
		if e.net.CellVersionAt(ci) != e.cellSnap[ci] {
			changed = append(changed, ci)
		}
	}
	e.waveCands = changed[:0]
	if len(changed)*8 >= len(e.cellSnap) {
		return false
	}
	e.rebuildRhoBounds()
	e.counters.LocalFlushes++
	for _, ci := range changed {
		center, slack := e.net.CellCenter(ci)
		e.invalidateNear(center, slack)
		e.markFlagsNear(center, slack)
		e.cellSnap[ci] = e.net.CellVersionAt(ci)
	}
	e.cacheVer = e.net.Version()
	return true
}

// syncCellSnapshot brings the per-cell version snapshot up to date with the
// round's own writes. After a full rebuild the cell numbering is new, so the
// snapshot is recopied wholesale (that round already paid O(n)); otherwise
// only the movers' cells are patched, so a converged round patches nothing.
func (e *Engine) syncCellSnapshot() {
	if gen := e.net.GridShape().Gen; !e.cellSnapOK || gen != e.cellSnapGen {
		e.cellSnapGen, e.cellSnap = e.net.AppendCellVersions(e.cellSnap)
		e.cellSnapOK = true
		return
	}
	for _, m := range e.movedBuf {
		if ci := e.net.CellIndex(m.old); ci >= 0 {
			e.cellSnap[ci] = e.net.CellVersionAt(ci)
		}
		if ci := e.net.CellIndex(m.new); ci >= 0 {
			e.cellSnap[ci] = e.net.CellVersionAt(ci)
		}
	}
}

// Step executes one LAACAD round and returns its statistics. The returned
// bool is true once the deployment has converged (no node needed to move
// more than ε this round). With Config.Order == Synchronous all moves apply
// at the end of the round and the per-node region computations fan out
// across Config.Workers goroutines; with Sequential each node's move is
// visible to the nodes processed after it — the commit order stays serial,
// but the expensive region recomputations are precomputed in parallel by
// the colored sweep's speculation waves (see colored.go). Either way the
// result is bit-identical for every worker count.
func (e *Engine) Step() (RoundStats, bool) {
	n := e.net.Len()
	round := e.round + 1
	stats := RoundStats{
		Round:           round,
		MinCircumradius: math.Inf(1),
	}
	e.ensureBuffers(n)
	cacheOn := e.cacheEnabled()
	if ep := e.net.StatsEpoch(); ep != e.statsEpoch {
		// An out-of-band ResetStats zeroed the counters this engine's
		// accounting state was measured against. Re-base the per-round
		// message baseline (or the first post-reset round would report a
		// negative count), and in Localized mode drop the cached recorded
		// costs: the eager protocol would re-run every search after a reset,
		// so the cached engine recomputes and re-measures too.
		e.statsEpoch = ep
		e.prevMsgs = e.net.MessageCount()
		if cacheOn && e.cfg.Mode == Localized {
			e.flushCache()
		}
	}
	if cacheOn && e.cacheVer != e.net.Version() {
		// Positions were written behind the engine's back (direct Network
		// mutation, resume restore). When the per-cell version diff can
		// localize the damage, only the entries whose exactness ball touches
		// a changed cell are dropped; otherwise (renumbering, rebuild,
		// wholesale rewrites) nothing cached can be trusted.
		if !e.localFlush() {
			e.flushCache()
		}
	}
	sequential := e.cfg.Order == Sequential
	var isBoundary []bool
	e.flagsLive = false
	if e.cfg.Mode == Localized {
		if pn, ok := e.detector.(boundary.PerNode); ok && cacheOn {
			// Per-node-local detector + cache: serve this round's flags from
			// the incremental cache, re-evaluating only nodes whose γ-ball a
			// move (or out-of-band write) touched since their flag was last
			// computed — "ball unchanged ⇒ flag unchanged" is the PerNode
			// locality contract. The repaired array holds start-of-round
			// truth for every node, which is exactly what the eager engine's
			// wholesale Boundary pass would produce: a Sequential sweep's
			// mid-round recomputes read the same start-of-round flags in
			// both engines, so trajectories and accounting stay bit-equal.
			isBoundary = e.repairFlags(pn, n)
			e.flagsLive = true
		} else {
			isBoundary = e.detector.Boundary(e.net)
		}
	}
	outs := e.outs
	e.movedBuf = e.movedBuf[:0]
	if sequential {
		workers := parallel.Workers(e.cfg.Workers)
		e.ensurePool(workers)
		// The per-cell ρ-bounds are rebuilt lazily by the first move of the
		// sweep and then kept current entry-by-entry (see invalidateAround),
		// so a converged sweep pays nothing for them.
		e.seqBoundsLive = false
		e.waveBaseComputed = e.counters.SpecComputed
		e.waveBaseWasted = e.counters.SpecWasted
		e.schedOn = false
		if cacheOn && workers > 1 {
			// Level-scheduled colored sweep: lay the round's dirty set out
			// as an interference DAG once, then fill upcoming entries in
			// parallel waves as the scan passes each node's trigger. The
			// serial loop below consumes an entry only if it is still valid
			// at the node's turn, so the sweep's fixed point and trace are
			// bit-identical to the one-worker sweep.
			e.planLevelSchedule(workers)
			if e.schedOn {
				// One set of parked worker goroutines serves every wave of
				// the sweep — a wave launch allocates nothing.
				e.wavePool.Open(workers)
			}
		}
		for i := 0; i < n; i++ {
			if e.schedOn {
				e.speculateAt(i, round, isBoundary)
			}
			outs[i] = e.stepNodeAny(i, round, isBoundary, e.pool[0], cacheOn)
			if cacheOn && e.seqBoundsLive {
				if c := &e.cache[i]; c.valid {
					e.noteRhoBound(i, c.rho)
				}
			}
			if ui := e.net.Position(i); outs[i].next != ui {
				e.net.SetPosition(i, outs[i].next)
				e.movedBuf = append(e.movedBuf, movedNode{id: i, old: ui, new: outs[i].next})
				if cacheOn {
					e.invalidateAround(i, ui, outs[i].next)
				}
				if e.flagsLive {
					// Flags whose γ-ball either endpoint disturbs repair at
					// the start of the next round; the values this sweep is
					// reading stay frozen at start-of-round truth.
					e.markFlagsNear(ui, 0)
					e.markFlagsNear(outs[i].next, 0)
				}
				e.cacheVer = e.net.Version()
			}
			if e.commitHook != nil {
				e.commitHook(i)
			}
		}
		e.wavePool.Close()
	} else {
		e.net.Rebuild() // build the spatial index once, before the fan-out
		workers := parallel.Workers(e.cfg.Workers)
		e.ensurePool(workers)
		parallel.ForWorker(n, workers, func(w, i int) {
			outs[i] = e.stepNodeAny(i, round, isBoundary, e.pool[w], cacheOn)
		})
	}

	var polysPerNode [][]geom.Polygon
	if e.cfg.KeepRegions {
		polysPerNode = make([][]geom.Polygon, n)
	}
	moved := 0
	for i := range outs {
		o := &outs[i]
		if polysPerNode != nil {
			polysPerNode[i] = o.polys
		}
		e.lastRhat[i] = o.rhat
		if o.empty {
			continue
		}
		if o.ri > stats.MaxCircumradius {
			stats.MaxCircumradius = o.ri
		}
		if o.ri < stats.MinCircumradius {
			stats.MinCircumradius = o.ri
		}
		if o.rhat > stats.MaxRhat {
			stats.MaxRhat = o.rhat
		}
		if o.moved {
			moved++
			if o.moveDist > stats.MaxMove {
				stats.MaxMove = o.moveDist
			}
			if !sequential {
				if cacheOn {
					e.cache[i].valid = false // own position is about to change
				}
				e.movedBuf = append(e.movedBuf, movedNode{id: i, old: e.net.Position(i), new: o.next})
			}
		}
	}
	if math.IsInf(stats.MinCircumradius, 1) {
		stats.MinCircumradius = 0
	}
	if !sequential && len(e.movedBuf) > 0 {
		if len(e.movedBuf)*4 >= n {
			// Most of the network moved (the active phase): one bulk write
			// plus a CSR counting-sort rebuild has better constants than
			// that many incremental bucket edits.
			next := e.nextBuf
			for i := range outs {
				next[i] = outs[i].next
			}
			e.net.SetPositions(next)
		} else {
			// Apply only what moved: each write is an incremental index
			// update (two cell buckets), so the converged tail writes
			// nothing and a few movers cost O(moved), never an O(n) grid
			// rebuild. Both branches leave the index answering queries
			// identically, so the split is invisible to trajectories.
			for _, m := range e.movedBuf {
				e.net.SetPosition(m.id, m.new)
			}
		}
		if cacheOn {
			e.invalidateMoved()
		}
		if e.flagsLive {
			for _, m := range e.movedBuf {
				e.markFlagsNear(m.old, 0)
				e.markFlagsNear(m.new, 0)
			}
		}
		e.cacheVer = e.net.Version()
	}
	if cacheOn {
		e.syncCellSnapshot()
	}
	e.regions = polysPerNode
	e.round++
	stats.Moved = moved
	cur := e.net.MessageCount()
	stats.Messages = cur - e.prevMsgs
	e.prevMsgs = cur
	e.trace = append(e.trace, stats)
	e.converged = moved == 0
	return stats, e.converged
}

// invalidateAround is the Sequential-order form of invalidateMoved: applied
// immediately after each position change, so nodes processed later in the
// same round see a cache that reflects every earlier move — exactly
// mirroring what the eager Gauss–Seidel sweep would recompute. The first
// move of a sweep builds the per-cell ρ-bounds; entries recomputed later in
// the same sweep feed them via noteRhoBound, so the bounds stay upper bounds
// throughout and the inverse queries never miss an affected entry.
func (e *Engine) invalidateAround(i int, old, new geom.Point) {
	e.dropEntry(i)
	boundsStale := !e.seqBoundsLive || e.boundGen != e.net.GridShape().Gen
	rhoMax := e.rhoMax
	if boundsStale {
		// A cheap O(valid) scan decides the strategy; the per-cell bound
		// array is only built if the inverse branch is actually taken.
		rhoMax = 0
		for j := range e.cache {
			if c := &e.cache[j]; c.valid && c.rho > rhoMax {
				rhoMax = c.rho
			}
		}
	}
	if 2*e.net.CellWindowSize(rhoMax) >= len(e.cache) {
		// Degenerate balls: the dense scan is cheaper than a whole-grid walk.
		e.counters.PairScans++
		for j := range e.cache {
			c := &e.cache[j]
			if !c.valid {
				continue
			}
			e.counters.PairVisits++
			uj := e.net.Position(j)
			r2 := c.rho * c.rho
			if uj.Dist2(old) <= r2 || uj.Dist2(new) <= r2 {
				e.dropEntry(j)
			}
		}
		return
	}
	if boundsStale {
		e.rebuildRhoBounds()
		e.seqBoundsLive = true
	}
	e.counters.InverseScans++
	e.invalidateNear(old, 0)
	e.invalidateNear(new, 0)
}

// noteRhoBound folds one freshly written cache entry into the live per-cell
// ρ-bounds during a Sequential sweep. A grid rebuild between moves renumbers
// the cells, in which case the bounds are recomputed wholesale.
func (e *Engine) noteRhoBound(i int, rho float64) {
	if e.boundGen != e.net.GridShape().Gen {
		e.rebuildRhoBounds()
		return
	}
	ci := e.net.CellOfNode(i)
	if rho > e.rhoBound[ci] {
		e.rhoBound[ci] = rho
	}
	if rho > e.rhoMax {
		e.rhoMax = rho
	}
}

// SetObserver installs a per-round callback invoked by Run after every
// completed round, with that round's statistics. The callback runs between
// rounds, so it may safely inspect the engine, take a Snapshot, or mutate
// topology (AddNode/RemoveNode for failure injection); determinism is
// preserved because each round's randomness depends only on (Seed, round,
// node), never on wall-clock or scheduling. Returning ErrStop ends the run
// cleanly; returning any other error aborts it with a partial Result. A nil
// observer removes the callback.
func (e *Engine) SetObserver(fn func(RoundStats) error) { e.observer = fn }

// Run executes Step until convergence, MaxRounds, ctx cancellation, or an
// observer-requested stop, then assigns final sensing ranges and returns the
// Result.
//
// Cancellation is checked between rounds: when ctx is done, Run finalizes
// whatever progress was made and returns the partial Result together with
// ctx's error, so callers can distinguish an interrupted run (res non-nil,
// errors.Is(err, context.Canceled) or context.DeadlineExceeded) from a
// completed one (err == nil). A Snapshot taken after an interrupted Run
// resumes the remaining rounds bit-identically (see Snapshot/Resume).
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	for e.round < e.cfg.MaxRounds {
		// Checked at the top (not after Step) so an engine that is already
		// converged — e.g. resumed from a checkpoint of a finished run —
		// executes no further rounds, and so that an observer's topology
		// change (AddNode/RemoveNode), which resets convergence, keeps the
		// run going.
		if e.converged {
			break
		}
		if err := ctx.Err(); err != nil {
			return e.finalizePartial(err)
		}
		stats, _ := e.Step()
		if e.observer != nil {
			if oerr := e.observer(stats); oerr != nil {
				if errors.Is(oerr, ErrStop) {
					return e.Finalize()
				}
				return e.finalizePartial(oerr)
			}
		}
	}
	return e.Finalize()
}

// finalizePartial packages the current progress as a Result and attaches
// cause as the run's error.
func (e *Engine) finalizePartial(cause error) (*Result, error) {
	res, err := e.Finalize()
	if err != nil {
		return nil, err
	}
	return res, cause
}

// Finalize assigns final sensing ranges (line 7 of Algorithm 1) and packages
// the Result. It can be called at any point, converged or not. When the run
// has converged, the dominating regions from the last round are reused (no
// node moved, so they are exact for the final positions); otherwise they are
// recomputed, which in Localized mode costs additional messages beyond the
// per-round trace.
func (e *Engine) Finalize() (*Result, error) {
	n := e.net.Len()
	radii := make([]float64, n)
	polysPerNode := e.regions
	if e.converged && polysPerNode == nil && !e.cfg.KeepRegions && len(e.lastRhat) == n {
		// Converged without region retention: each node's last-round R̂ is
		// bitwise the max vertex distance Finalize would measure — same
		// vertices, same position (nothing moved since), same fold.
		copy(radii, e.lastRhat)
	} else {
		if !e.converged || polysPerNode == nil {
			before := e.net.MessageCount()
			polysPerNode = e.computeRegions()
			e.finalMsgs += e.net.MessageCount() - before
		}
		for i := 0; i < n; i++ {
			radii[i] = voronoi.MaxDistFrom(e.net.Position(i), polysPerNode[i])
		}
	}
	res := &Result{
		Positions: e.net.Positions(),
		Radii:     radii,
		Rounds:    e.round,
		Converged: e.converged,
		Trace:     append([]RoundStats(nil), e.trace...),
		Messages:  e.msgBase + e.net.MessageCount(),
	}
	if e.cfg.KeepRegions {
		res.Regions = polysPerNode
	}
	return res, nil
}

// DebugRegions computes and returns every node's dominating region at the
// current positions without advancing the round counter. In Localized mode
// this performs (and charges) real expanding-ring searches. Intended for
// inspection, rendering and cross-validation.
func (e *Engine) DebugRegions() [][]geom.Polygon {
	return e.computeRegions()
}

// RemoveNode deletes node i from the deployment (failure injection). The
// engine continues with the remaining nodes; convergence state is reset.
// The network is mutated in place (message accounting continues), so only
// the removal itself is paid — no full reconstruction.
func (e *Engine) RemoveNode(i int) error {
	n := e.net.Len()
	if i < 0 || i >= n {
		return fmt.Errorf("core: RemoveNode index %d out of range [0,%d)", i, n)
	}
	if n-1 < e.cfg.K {
		return fmt.Errorf("core: removing node %d would leave %d < K=%d nodes", i, n-1, e.cfg.K)
	}
	e.net.RemoveNode(i)
	e.converged = false
	// The cache indexes the old node numbering (removal renumbers every
	// node above i), so no per-entry salvage is possible: drop it wholesale.
	e.cache = nil
	return nil
}

// AddNode inserts a node at p (clamped into the region). Convergence state
// is reset. Like RemoveNode, the network is extended in place.
func (e *Engine) AddNode(p geom.Point) {
	e.net.AddNode(e.reg.ClampInside(p))
	e.converged = false
	// A node-count change resizes the cache and every neighborhood near p
	// changed; ensureBuffers discards the old cache on the size mismatch,
	// dropping it here just makes that explicit.
	e.cache = nil
}

// computeRegions returns every node's dominating region at the current
// positions, fanning the per-node computations across Config.Workers. In
// Localized mode the searches run (and charge) under a negative round tag —
// a domain separate from every Step round, so an inspection fan-out
// (DebugRegions, Finalize) never replays the loss draws the next Step is
// about to make.
func (e *Engine) computeRegions() [][]geom.Polygon {
	n := e.net.Len()
	out := make([][]geom.Polygon, n)
	var isBoundary []bool
	if e.cfg.Mode == Localized {
		isBoundary = e.detector.Boundary(e.net)
	}
	e.net.Rebuild()
	round := FinalRoundTag(e.round)
	workers := parallel.Workers(e.cfg.Workers)
	e.ensurePool(workers)
	parallel.ForWorker(n, workers, func(w, i int) {
		if isBoundary == nil {
			out[i], _ = e.regionOf(i, 0, false, nil, e.pool[w])
			return
		}
		out[i], _ = e.regionOf(i, 0, isBoundary[i], e.lossRNG(round, i), e.pool[w])
	})
	return out
}
