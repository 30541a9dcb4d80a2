package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/parallel"
	"laacad/internal/region"
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

// Merge folds p — the statistics of a disjoint set of nodes in the same
// round — into s. Extrema and counts merge order-independently, so merging
// per-partition folds is bitwise the single fold over all nodes.
func (s *RoundStats) Merge(p RoundStats) {
	if p.MaxCircumradius > s.MaxCircumradius {
		s.MaxCircumradius = p.MaxCircumradius
	}
	if p.MinCircumradius < s.MinCircumradius {
		s.MinCircumradius = p.MinCircumradius
	}
	if p.MaxRhat > s.MaxRhat {
		s.MaxRhat = p.MaxRhat
	}
	if p.MaxMove > s.MaxMove {
		s.MaxMove = p.MaxMove
	}
	s.Moved += p.Moved
	s.Messages += p.Messages
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
// convergence or use Run. The Engine may be mutated between steps through
// MoveNode, RemoveNode and AddNode (what-if edits, failure injection); it
// re-validates node counts.
//
// Its per-node state is the embedded nodeState over the global network; the
// Engine adds the round record, the colored Sequential sweep's speculation
// waves and the version stamp that catches writes made around it.
type Engine struct {
	nodeState

	round     int
	converged bool
	trace     []RoundStats
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

	// all is the identity node list (see every).
	all []int

	// cacheVer is net.Version() as of the end of the last Step or MoveNode,
	// the last time every position change reached the per-node state as
	// explicit endpoints. A mismatch means a write went through Network():
	// the next Step flushes the cache wholesale, and the converged flag no
	// longer describes the current positions.
	cacheVer uint64

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
	// wave launch allocation-free. waveRound carries the round the closure
	// reads.
	wavePool  parallel.Pool
	waveFn    func(w, idx int)
	waveRound int
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

// ErrStop is the sentinel an Observer returns to stop a run early and
// cleanly: Run finalizes the deployment and returns the partial Result with
// a nil error. Any other observer error also stops the run but is returned
// (alongside the partial Result) to the caller.
var ErrStop = errors.New("core: observer stopped the run")

// New creates an Engine deploying the given initial node positions over reg.
// Initial positions outside the region are clamped inside.
func New(reg *region.Region, initial []geom.Point, cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.init(reg, len(initial), cfg); err != nil {
		return nil, err
	}
	pos := make([]geom.Point, len(initial))
	for i, p := range initial {
		pos[i] = reg.ClampInside(p)
	}
	e.net = wsn.New(pos, e.indexGamma())
	// The engine clamps every position into reg, so the region's bounding
	// box bounds the deployment for its whole lifetime: seeding the spatial
	// index with it means expansion-phase moves (a corner pile spreading
	// out) never exit the grid bounds and never force a rebuild.
	e.net.SetBoundsHint(reg.BBox())
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Network exposes the underlying WSN substrate for reading (positions,
// message stats, index counters). Edit positions with MoveNode: a position
// written through the network directly stays correct, but the next Step
// drops every cached outcome, and the run counts as unconverged until then.
func (e *Engine) Network() *wsn.Network { return e.net }

// Positions returns a copy of the current node positions.
func (e *Engine) Positions() []geom.Point { return e.net.Positions() }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Converged reports whether the last Step found every node within ε of its
// Chebyshev center and no position has changed since.
func (e *Engine) Converged() bool { return e.converged && e.cacheVer == e.net.Version() }

// Trace returns the per-round statistics collected so far.
func (e *Engine) Trace() []RoundStats { return e.trace }

// cacheEnabled reports whether the dirty-set cache applies this round: the
// state allows it (see cacheable) and the eager test hook is off. Lossy
// Localized runs therefore take the eager path, which the equivalence suites
// also force through the hook.
func (e *Engine) cacheEnabled() bool {
	return !e.eager && e.cacheable()
}

// every returns the node list 0..n-1 the state operations run over.
func (e *Engine) every() []int {
	n := e.net.Len()
	if len(e.all) < n {
		e.all = make([]int, n)
		for i := range e.all {
			e.all[i] = i
		}
	}
	return e.all[:n]
}

// ensureBuffers sizes the per-round buffers and the dirty-set cache for n
// nodes. A node-count change (AddNode/RemoveNode, which also drop the cache
// explicitly) discards the cache wholesale here too: its indices belong to
// the old numbering.
func (e *Engine) ensureBuffers(n int) {
	if cap(e.outs) < n {
		e.outs = make([]nodeOutcome, n)
		e.movedIDs, e.movedPts = make([]int, 0, n), make([]geom.Point, 0, 2*n)
	}
	e.outs = e.outs[:n]
	if cap(e.lastRhat) < n {
		e.lastRhat = make([]float64, n)
	}
	e.lastRhat = e.lastRhat[:n]
	if len(e.cache) != n {
		e.cache = make([]nodeCache, n)
		e.rhoHint = make([]float64, n)
		e.cacheVer = e.net.Version()
	}
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
	e.cacheOn = e.cacheEnabled()
	if e.cacheOn && e.cacheVer != e.net.Version() {
		// Positions were written through Network(), so no endpoints say what
		// changed: nothing cached can be trusted.
		e.flushCache()
	}
	sequential := e.cfg.Order == Sequential
	e.boundary = nil
	e.flagsLive = false
	if e.cfg.Mode == Localized {
		if pn, ok := e.detector.(boundary.PerNode); ok && e.cacheOn {
			// Per-node-local detector + cache: serve this round's flags from
			// the incremental cache, re-evaluating only nodes whose γ-ball a
			// move endpoint touched (or a flush dirtied) since their flag was
			// last computed — "ball unchanged ⇒ flag unchanged" is the PerNode
			// locality contract. The repaired array holds start-of-round
			// truth for every node, which is exactly what the eager engine's
			// wholesale Boundary pass would produce: a Sequential sweep's
			// mid-round recomputes read the same start-of-round flags in
			// both engines, so trajectories and accounting stay bit-equal.
			e.boundary = e.repairFlags(pn, n)
			e.flagsLive = true
		} else {
			e.boundary = e.detector.Boundary(e.net)
		}
	}
	e.movedIDs, e.movedPts = e.movedIDs[:0], e.movedPts[:0]
	if sequential {
		workers := parallel.Workers(e.cfg.Workers)
		e.ensurePool(workers)
		// The per-cell ρ-bounds are rebuilt lazily by the first move of the
		// sweep and then kept current entry-by-entry (see invalidate),
		// so a converged sweep pays nothing for them.
		e.boundsLive = false
		e.waveBaseComputed = e.counters.SpecComputed
		e.waveBaseWasted = e.counters.SpecWasted
		e.schedOn = false
		if e.cacheOn && workers > 1 {
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
				e.speculateAt(i, round)
			}
			if old, moved, _ := e.turn(i, round); moved {
				e.movedIDs = append(e.movedIDs, i)
				e.movedPts = append(e.movedPts, old, e.outs[i].next)
			}
			if e.commitHook != nil {
				e.commitHook(i)
			}
		}
		e.wavePool.Close()
	} else {
		e.stepAll(e.every(), round)
	}

	e.regions = nil
	if e.cfg.KeepRegions {
		e.regions = make([][]geom.Polygon, n)
	}
	e.foldStats(&stats, e.every())
	if math.IsInf(stats.MinCircumradius, 1) {
		stats.MinCircumradius = 0
	}
	if !sequential {
		e.commitMoves(e.every())
	}
	e.cacheVer = e.net.Version()
	e.round++
	cur := e.net.MessageCount()
	stats.Messages = cur - e.prevMsgs
	e.prevMsgs = cur
	e.trace = append(e.trace, stats)
	e.converged = stats.Moved == 0
	return stats, e.converged
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
	if err := Drive(ctx, e, e.cfg.MaxRounds, e.observer); err != nil {
		return e.finalizePartial(err)
	}
	return e.Finalize()
}

// Drive steps r until it converges or completes maxRounds rounds, ctx is
// done, or observer — called after every round — returns an error. It
// returns what interrupted the run: ctx's error or the observer's, nil for a
// completed run or an ErrStop. Both engines' Run loops are this one.
//
// Convergence is checked before each round (not after Step), so an engine
// that is already converged — e.g. resumed from a checkpoint of a finished
// run — executes no further rounds, and an observer's edit (MoveNode,
// AddNode, RemoveNode), which resets convergence, keeps the run going.
func Drive(ctx context.Context, r interface {
	Round() int
	Converged() bool
	Step() (RoundStats, bool)
}, maxRounds int, observer func(RoundStats) error) error {
	for r.Round() < maxRounds && !r.Converged() {
		if err := ctx.Err(); err != nil {
			return err
		}
		stats, _ := r.Step()
		if observer == nil {
			continue
		}
		if err := observer(stats); errors.Is(err, ErrStop) {
			return nil
		} else if err != nil {
			return err
		}
	}
	return nil
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
// has converged, each node's last-round R̂ (or retained region) is reused —
// no node moved, so it is exact for the final positions; otherwise the
// regions are recomputed, which in Localized mode costs additional messages
// beyond the per-round trace.
func (e *Engine) Finalize() (*Result, error) {
	n := e.net.Len()
	radii := make([]float64, n)
	var regions [][]geom.Polygon
	if e.cfg.KeepRegions {
		regions = make([][]geom.Polygon, n)
	}
	// A round stepped by this engine at the current positions left R̂ for
	// every node (and the regions, when kept); a resumed engine has neither.
	converged := e.Converged()
	reuse := converged && len(e.lastRhat) == n && (e.regions != nil) == e.cfg.KeepRegions
	if !reuse && e.cfg.Mode == Localized {
		e.boundary = e.detector.Boundary(e.net)
	}
	before := e.net.MessageCount()
	e.finalRadii(e.every(), reuse, FinalRoundTag(e.round), radii, regions)
	e.finalMsgs += e.net.MessageCount() - before
	return &Result{
		Positions: e.net.Positions(),
		Radii:     radii,
		Rounds:    e.round,
		Converged: converged,
		Trace:     append([]RoundStats(nil), e.trace...),
		Messages:  e.msgBase + e.net.MessageCount(),
		Regions:   regions,
	}, nil
}

// DebugRegions computes and returns every node's dominating region at the
// current positions without advancing the round counter. In Localized mode
// this performs (and charges) real expanding-ring searches. Intended for
// inspection, rendering and cross-validation (see finalRadii).
func (e *Engine) DebugRegions() [][]geom.Polygon {
	out := make([][]geom.Polygon, e.net.Len())
	if e.cfg.Mode == Localized {
		e.boundary = e.detector.Boundary(e.net)
	}
	e.finalRadii(e.every(), false, FinalRoundTag(e.round), nil, out)
	return out
}

// MoveNode moves node i to p (clamped into the region) between rounds: the
// what-if edit of a live deployment. The move reaches the per-node state as
// its two endpoints, exactly like the engine's own moves, so only the cached
// outcomes and boundary flags whose balls contain the old or the new
// position are dropped. Convergence state is reset.
func (e *Engine) MoveNode(i int, p geom.Point) error {
	n := e.net.Len()
	if i < 0 || i >= n {
		return fmt.Errorf("core: MoveNode index %d out of range [0,%d)", i, n)
	}
	old, p := e.net.Position(i), e.reg.ClampInside(p)
	if p == old {
		return nil
	}
	// With a Network() write still unabsorbed (or no cache for this node
	// count yet), the stamp stays stale and the next Step flushes wholesale.
	inSync := e.cacheVer == e.net.Version() && len(e.cache) == n
	e.net.SetPosition(i, p)
	e.converged = false
	if inSync {
		if e.cacheOn {
			e.dropEntry(i)
		}
		ends := [2]geom.Point{old, p}
		e.invalidate(ends[:], false)
		e.cacheVer = e.net.Version()
	}
	return nil
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
