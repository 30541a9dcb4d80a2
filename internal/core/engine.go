package core

import (
	"context"
	"errors"
	"fmt"
	"math"

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
// MoveNode, RemoveNode and AddNode (what-if edits, failure injection). A move
// or a removal reaches the per-node state as position-change endpoints (plus
// a renumbering for the removal), so the next round recomputes only the
// nodes around the edit; an insertion appends a fresh slot and leaves the
// version stamp stale, so the next round recomputes every node.
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
	// offRoundMsgs counts messages charged out of round (see offRound): by
	// Finalize's final collection (an unconverged run's; a converged run's
	// charges nothing) and by DebugRegions' Localized searches.
	// Result.Messages includes them, but Snapshot subtracts them: a
	// checkpoint is the state at a round boundary, and a run resumed from it
	// performs its own final collection — counting the interrupted run's
	// partial-result assembly or inspections too would overcharge it.
	offRoundMsgs int64
	// observer, if set, runs after every round of Run with that round's
	// statistics (see SetObserver).
	observer func(RoundStats) error

	// all is the identity node list (see every), fromBuf the renumbering
	// map of the last RemoveNode.
	all     []int
	fromBuf []int32

	// cacheVer is net.Version() as of the last sync or in-sync edit
	// (MoveNode, RemoveNode), the last time every position change reached
	// the per-node state as explicit endpoints. A mismatch means a write went
	// through Network() or an AddNode: the next sync flushes the cache
	// wholesale, and the converged flag no longer describes the current
	// positions. This flush is the state's only wholesale invalidation.
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
	// The state's worker team serves every speculation wave of a sweep from
	// one set of parked goroutines (opened around the sweep, closed after
	// it), and waveFn is the one persistent fan-out closure — together they
	// make a wave launch allocation-free. waveRound carries the round the
	// closure reads.
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
	// CacheHits counts outcomes served from the dirty-set cache (all modes),
	// by rounds and by Finalize (a valid entry's R̂ reused as a final radius).
	CacheHits uint64
	// Waves, SpecComputed, SpecUsed and SpecWasted describe the colored
	// Sequential sweep: parallel speculation waves planned, entries computed
	// by them, entries consumed at their node's turn, and entries that a
	// committed move invalidated before use (wasted work; a Localized wasted
	// speculation is never charged — its search only metered the cost).
	Waves, SpecComputed, SpecUsed, SpecWasted uint64
	// FlagEvals counts per-node boundary-flag evaluations performed by the
	// incremental flag cache (Localized mode). Converged steady-state rounds
	// perform none — the counter-asserted contract that boundary detection
	// is no longer an O(n)-per-round term.
	FlagEvals uint64
	// Levels and LevelWidthMax describe the level scheduler behind the
	// Sequential waves: cumulative interference-DAG layers laid out across
	// all planned rounds, and the widest single wave ever launched. A
	// mover-heavy round that parallelizes cleanly shows few levels with
	// large widths; Levels staying at zero means every Sequential round ran
	// serially.
	Levels, LevelWidthMax uint64
	// BatchNodes counts the dominating regions computed on the SoA kernel
	// (all entry points, including serial turns and Synchronous fan-outs),
	// and BatchSizeHist buckets each wave's node count into 1, 2–3, 4–7,
	// 8–15, 16–31 and 32+.
	BatchNodes    uint64
	BatchSizeHist [6]uint64
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
	e.grow(len(pos))
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Network exposes the underlying WSN substrate for reading (positions,
// message stats, index counters). Edit positions with MoveNode: a position
// written through the network directly stays correct, but the next Step or
// Finalize drops every cached outcome and counts the run as unconverged.
// Add and remove nodes only with AddNode and RemoveNode, which keep the
// per-node state one slot per node.
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

// sync brings the per-node state up to the current positions before a round
// or a final collection: it sets the cache policy, flushes the cache after a
// write made around the engine (nothing cached, not even convergence, can be
// trusted then), and in Localized mode repairs the boundary flags of the
// nodes whose γ-ball a move endpoint touched or a flush dirtied — exactly the
// flags a wholesale pass would give, start-of-round truth for a sweep.
func (e *Engine) sync() {
	e.cacheOn = e.cacheEnabled()
	if e.cacheVer != e.net.Version() {
		e.flushCache()
		e.converged = false
	}
	e.boundary = nil
	if e.cfg.Mode == Localized {
		e.boundary = e.repairFlags()
	}
}

// flushCache invalidates every cache entry (and every cached boundary flag)
// and re-syncs with the network's mutation counter. It runs only between
// rounds, when no speculative entry can exist (waves live and die within one
// sweep).
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
// at the end of the round: one serial pass reuses every valid cache entry
// and only the remaining region computations fan out across Config.Workers
// goroutines; with Sequential each node's move is
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
	e.sync()
	sequential := e.cfg.Order == Sequential
	e.movedIDs, e.movedPts = e.movedIDs[:0], e.movedPts[:0]
	var computed []int // the Synchronous round's computed nodes
	if sequential {
		workers := parallel.Workers(e.cfg.Workers)
		e.ensurePool(workers)
		// Each turn invalidates around its move through the live per-cell
		// ρ-bounds, which every installed entry raises (see invalidate), so
		// the sweep rebuilds them only on a grid generation change and a
		// converged sweep pays nothing for them.
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
				// the sweep — a wave launch allocates nothing. Closing on
				// return releases them even when a wave re-panics.
				e.team.Open(workers)
				defer e.team.Close()
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
		e.warmPool()
	} else {
		computed = e.stepAll(e.every(), round)
	}

	e.foldStats(&stats, e.every())
	if math.IsInf(stats.MinCircumradius, 1) {
		stats.MinCircumradius = 0
	}
	if !sequential {
		e.commitMoves(computed)
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
// topology (AddNode/RemoveNode for failure injection; a removal keeps the
// cache outside the failed node's neighborhood); determinism is preserved
// because each round's randomness depends only on (Seed, round, node), never
// on wall-clock or scheduling. Returning ErrStop ends the run cleanly;
// returning any other error aborts it with a partial Result. A nil observer
// removes the callback.
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
// the Result. It can be called at any point, converged or not. One rule
// (see finalRadii): a node with a valid cache entry supplies its last R̂,
// counted as a cache hit, and only the other nodes are recomputed. A
// converged run collects as part of its last round, which already paid, so
// it charges nothing; an unconverged one collects out of round, which in
// Localized mode costs messages beyond the per-round trace.
func (e *Engine) Finalize() (*Result, error) {
	e.sync()
	radii := make([]float64, e.net.Len())
	tag := finalRoundTag(e.round)
	if e.converged {
		tag = e.round
	}
	before := e.net.MessageCount()
	e.finalRadii(e.every(), tag, radii, nil)
	e.offRound(before)
	return &Result{
		Positions: e.net.Positions(),
		Radii:     radii,
		Rounds:    e.round,
		Converged: e.converged,
		Trace:     append([]RoundStats(nil), e.trace...),
		Messages:  e.msgBase + e.net.MessageCount(),
	}, nil
}

// DebugRegions computes and returns every node's dominating region at the
// current positions without advancing the round counter, recomputing every
// node. In Localized mode this performs (and charges) real expanding-ring
// searches, out of round: Result.Messages counts them, but neither a
// Snapshot nor the next round's statistics do. Intended for inspection,
// rendering and cross-validation (see finalRadii).
func (e *Engine) DebugRegions() [][]geom.Polygon {
	e.sync()
	out := make([][]geom.Polygon, e.net.Len())
	before := e.net.MessageCount()
	e.finalRadii(e.every(), finalRoundTag(e.round), nil, out)
	e.offRound(before)
	return out
}

// offRound books the messages charged since the network counter read before
// as out of round: Snapshot leaves them out, and so does the next round's
// RoundStats.Messages, which counts only what its own searches charge.
func (e *Engine) offRound(before int64) {
	d := e.net.MessageCount() - before
	e.offRoundMsgs += d
	e.prevMsgs += d
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
	inSync := e.inSync()
	e.net.SetPosition(i, p)
	e.converged = false
	if inSync {
		if e.cacheOn {
			e.dropEntry(i)
		}
		ends := [2]geom.Point{old, p}
		e.invalidate(ends[:])
		e.cacheVer = e.net.Version()
	}
	return nil
}

// RemoveNode deletes node i from the deployment (failure injection). The
// engine continues with the remaining nodes; convergence state is reset. The
// removal reaches the per-node state as a renumbering (every node above i
// moves down by one) plus one endpoint at the removed position, so only the
// cached outcomes and boundary flags whose balls contain that position are
// dropped: a heal recomputes the failed node's neighborhood, not the whole
// deployment. The endpoint applies only while the state is in sync (see
// inSync); otherwise the stamp stays stale and the next sync flushes. The
// network is mutated in place (message accounting continues, the spatial
// index is renumbered without a rebuild).
func (e *Engine) RemoveNode(i int) error {
	n := e.net.Len()
	if i < 0 || i >= n {
		return fmt.Errorf("core: RemoveNode index %d out of range [0,%d)", i, n)
	}
	if n-1 < e.cfg.K {
		return fmt.Errorf("core: removing node %d would leave %d < K=%d nodes", i, n-1, e.cfg.K)
	}
	inSync := e.inSync()
	old := e.net.Position(i)
	e.net.RemoveNode(i)
	e.converged = false
	from := e.fromBuf[:0]
	for j := 0; j < n-1; j++ {
		if j < i {
			from = append(from, int32(j))
		} else {
			from = append(from, int32(j+1))
		}
	}
	e.fromBuf = from
	e.renumber(from)
	if inSync {
		ends := [1]geom.Point{old}
		e.invalidate(ends[:])
		e.cacheVer = e.net.Version()
	}
	return nil
}

// AddNode inserts a node at p (clamped into the region). Convergence state
// is reset. The network is extended in place and the per-node state by one
// fresh slot, so every other node keeps its warm-start hint; the version
// stamp is left stale, so the next Step or Finalize recomputes every node
// and re-evaluates every boundary flag.
func (e *Engine) AddNode(p geom.Point) {
	e.net.AddNode(e.reg.ClampInside(p))
	e.grow(1)
	e.converged = false
}

// inSync reports whether every position change so far reached the per-node
// state as explicit endpoints — the precondition for applying an edit's
// endpoints. Otherwise (a Network() write or an AddNode not yet absorbed by
// a sync) an edit leaves the stamp stale and the next sync flushes
// wholesale.
func (e *Engine) inSync() bool {
	return e.cacheVer == e.net.Version()
}
