package shard

import (
	"context"
	"fmt"
	"math"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/parallel"
	"laacad/internal/region"
	"laacad/internal/snapshot"
)

// Engine is the sharded LAACAD engine: a drop-in Runner that executes the
// same rounds as core.Engine, but with the deployment partitioned into
// stripe-owned shards, each computing its nodes over a window of positions
// kept coherent by a ρ-halo exchange of border positions. Trajectories,
// trace, radii and message totals are bit-identical to the shared-memory
// engine for every shard count, worker count and update order — asserted by
// the bit-identity matrix test.
//
// The orchestrator (this type) runs the round protocol as phase calls on its
// shards: migrate ownership, grant windows, drive the serve/merge halo
// exchange, fan computation out to the shards, fold their partial
// statistics, and route Sequential mid-round position updates. The sending
// phases (migrate, serve) run shard by shard and append their batches to the
// receivers' mailboxes; every other phase runs on all shards at once, and
// its return is the barrier. It keeps a global position mirror so Snapshot
// works at any round boundary without consulting the shards. An engine holds
// no goroutine between calls, so a dropped engine releases everything.
type Engine struct {
	cfg  core.Config
	reg  *region.Region
	bbox geom.BBox
	part Partition
	// owner maps node→shard, re-derived from the position mirror at each
	// round's migration point (the same pure function of x the shards
	// apply, so orchestrator and shards never disagree).
	owner []int
	// fallbackRad is the expanding search's density guess — the first-round
	// halo width prediction before any node has a read-radius history.
	fallbackRad float64

	workers []*worker

	pos       []geom.Point // global position mirror (current truth)
	windows   []xband      // each shard's granted window
	round     int
	converged bool
	stepped   bool // a round completed this session (finalization shortcuts)
	trace     []core.RoundStats
	roundMsgs int64
	msgBase   int64
	finalMsgs int64
	observer  func(core.RoundStats) error
	halo      haloCounters
	final     *core.Result
}

// New builds a sharded engine over reg with the given initial positions
// (clamped inside the region, like core.New) and shard count.
func New(reg *region.Region, initial []geom.Point, cfg core.Config, shards int) (*Engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	st0, err := core.NewStepper(reg, len(initial), cfg)
	if err != nil {
		return nil, err
	}
	cfg = st0.Config() // normalized (RingCap default applied)
	n := len(initial)
	part := NewPartition(reg, shards)
	pos := make([]geom.Point, n)
	owner := make([]int, n)
	for i, p := range initial {
		pos[i] = reg.ClampInside(p)
		owner[i] = part.Shard(pos[i].X)
	}
	S := part.Shards()
	diag := reg.BBox().Diagonal()
	e := &Engine{
		cfg:         cfg,
		reg:         reg,
		bbox:        reg.BBox(),
		part:        part,
		owner:       owner,
		fallbackRad: diag / math.Sqrt(float64(n)) * math.Sqrt(float64(4*cfg.K+4)),
		pos:         pos,
		windows:     make([]xband, S),
	}
	for s := 0; s < S; s++ {
		st, err := core.NewStepper(reg, n, cfg)
		if err != nil {
			return nil, err
		}
		e.workers = append(e.workers, newWorker(s, e, st, pos, owner))
	}
	return e, nil
}

// Resume reconstructs a sharded engine from an engine checkpoint — the
// sharded counterpart of core.Resume (same schema, KindEngine).
func Resume(reg *region.Region, st *snapshot.State, shards int) (*Engine, error) {
	if st.Kind != snapshot.KindEngine {
		return nil, fmt.Errorf("shard: cannot resume %q checkpoint with the sharded engine", st.Kind)
	}
	e, err := New(reg, st.Positions(), core.ConfigFromState(st.Config), shards)
	if err != nil {
		return nil, err
	}
	e.round = st.Round
	e.converged = st.Converged
	e.msgBase = st.Messages
	e.trace = core.TraceFromState(st.Trace)
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.part.Shards() }

// Config returns the (normalized) configuration.
func (e *Engine) Config() core.Config { return e.cfg }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Converged reports whether the last round moved no node.
func (e *Engine) Converged() bool { return e.converged }

// Trace returns the per-round statistics collected so far.
func (e *Engine) Trace() []core.RoundStats { return e.trace }

// Positions returns a copy of the current node positions (the mirror).
func (e *Engine) Positions() []geom.Point { return append([]geom.Point(nil), e.pos...) }

// HaloStats returns the cumulative halo-exchange traffic counters. Safe to
// call concurrently with a running round (atomics).
func (e *Engine) HaloStats() HaloStats { return e.halo.snapshot() }

// SetObserver installs the per-round callback Run invokes after every
// completed round (scenario.observable).
func (e *Engine) SetObserver(fn func(core.RoundStats) error) { e.observer = fn }

// each runs phase on every shard at once and returns when all are done —
// the barrier between round phases. A phase touches only its own shard's
// state, plus distinct per-node slots of shared outputs.
func (e *Engine) each(phase func(w *worker)) {
	S := len(e.workers)
	parallel.For(S, S, func(s int) { phase(e.workers[s]) })
}

// serveCycle runs one halo serve: every shard serves each requested band
// from its owned set into the requesters' mailboxes. bands[r] is what shard
// r asked for; empty requests are skipped. Counts one exchange when any
// request exists.
func (e *Engine) serveCycle(bands []xband) {
	any := false
	for _, b := range bands {
		if b.ok {
			any = true
			break
		}
	}
	if !any || e.part.Shards() == 1 {
		return
	}
	e.halo.exchanges.Add(1)
	for _, w := range e.workers {
		w.doServe(bands)
	}
}

// deltaBands splits the extension of old to new into the (≤ 2) bands not
// already covered — what peers must additionally serve.
func deltaBands(old, new xband) (left, right xband) {
	if new.lo < old.lo {
		left = xband{lo: new.lo, hi: math.Nextafter(old.lo, math.Inf(-1)), ok: true}
	}
	if new.hi > old.hi {
		right = xband{lo: math.Nextafter(old.hi, math.Inf(1)), hi: new.hi, ok: true}
	}
	return
}

// extendWindows grows the windows of the shards with a deficit (defs[s].ok)
// and serves the deltas: one or two serve cycles (left and right
// extensions), then a merge-delta on each grown shard. It reports whether
// any shard had a deficit.
func (e *Engine) extendWindows(defs []xband) bool {
	S := e.part.Shards()
	bandsL := make([]xband, S)
	bandsR := make([]xband, S)
	grown := false
	for s, d := range defs {
		if !d.ok {
			continue
		}
		// A request the window already covers (an earlier cycle granted an
		// overlapping deficit) still gets a merge-delta to clear its retry.
		newWin := e.windows[s].union(d)
		bandsL[s], bandsR[s] = deltaBands(e.windows[s], newWin)
		e.windows[s] = newWin
		grown = true
	}
	if !grown {
		return false
	}
	e.serveCycle(bandsL)
	e.serveCycle(bandsR)
	e.each(func(w *worker) {
		if defs[w.id].ok {
			w.doMergeDelta(e.windows[w.id])
		}
	})
	return true
}

// settle runs phase on every shard, re-running it as a retry after widening
// the windows of the shards that reported a deficit, until none does. A
// retry reaches only the deficit shards' pending nodes; every other shard
// no-ops.
func (e *Engine) settle(phase func(w *worker, retry bool) xband) {
	defs := make([]xband, e.part.Shards())
	for retry := false; ; retry = true {
		e.each(func(w *worker) { defs[w.id] = phase(w, retry) })
		if !e.extendWindows(defs) {
			return
		}
	}
}

// refresh runs the round-start halo phases: migrate ownership of nodes that
// left their stripe (re-deriving the orchestrator's ownership map from the
// mirror — the same pure function of x the shards just applied), absorb and
// predict windows, then serve and merge every window wholesale. After it
// returns, every shard's window is complete at current truth.
func (e *Engine) refresh() {
	for _, w := range e.workers {
		w.doMigrate()
	}
	for g := range e.pos {
		e.owner[g] = e.part.Shard(e.pos[g].X)
	}
	e.each(func(w *worker) { e.windows[w.id] = w.doAbsorb() })
	e.serveCycle(e.windows)
	e.each(func(w *worker) { w.doMergeRefresh(e.windows[w.id]) })
}

// Step executes one round and reports its statistics and whether the
// deployment converged — the sharded mirror of core.Engine.Step.
func (e *Engine) Step() (core.RoundStats, bool) {
	round := e.round + 1

	// Phases 1–4: migrate, absorb, serve, merge.
	e.refresh()

	// Phase 5: compute (+ deficit cycles), commit, fold. A Sequential sweep
	// commits each move at its turn, leaving the commit phase nothing to move.
	if e.cfg.Order == core.Sequential {
		e.sequentialRound(round)
	} else {
		e.settle(func(w *worker, retry bool) xband { return w.doComputeSync(round, retry) })
	}
	parts := make([]core.RoundStats, e.part.Shards())
	e.each(func(w *worker) { parts[w.id] = w.doCommit() })
	stats := core.RoundStats{Round: round, MinCircumradius: math.Inf(1)}
	for _, p := range parts {
		stats.Merge(p)
	}
	if math.IsInf(stats.MinCircumradius, 1) {
		stats.MinCircumradius = 0
	}

	e.round++
	e.roundMsgs += stats.Messages
	e.trace = append(e.trace, stats)
	e.converged = stats.Moved == 0
	e.stepped = true
	return stats, e.converged
}

// sequentialRound drives the Gauss–Seidel sweep: every node takes its turn
// on its owner in ascending global-ID order; committed moves are mirrored
// and routed to every other shard whose window sees either endpoint.
func (e *Engine) sequentialRound(round int) {
	defs := make([]xband, e.part.Shards())
	for g := range e.pos {
		w := e.workers[e.owner[g]]
		for {
			d := w.doTurn(g, round)
			if !d.ok {
				break
			}
			defs[w.id] = d
			e.extendWindows(defs)
			defs[w.id] = xband{}
		}
		old, p := e.pos[g], w.pos[g]
		if p == old {
			continue
		}
		e.pos[g] = p
		for s, peer := range e.workers {
			if peer != w && (e.windows[s].contains(old.X) || e.windows[s].contains(p.X)) {
				peer.applyPosUpdate(g, p)
				e.halo.posUpdate()
			}
		}
	}
}

// Run executes rounds until convergence, MaxRounds, ctx cancellation, or an
// observer stop — core.Drive, the same loop as core.Engine.Run — then assigns
// final radii and returns the Result. A clean completion caches its Result,
// which later calls return; an interrupted run returns the cause with its
// partial Result and can be resumed by calling Run again, as with
// core.Engine.
func (e *Engine) Run(ctx context.Context) (*core.Result, error) {
	if e.final != nil {
		return e.final, nil
	}
	if err := core.Drive(ctx, e, e.cfg.MaxRounds, e.observer); err != nil {
		return e.finalize(), err
	}
	e.final = e.finalize()
	return e.final, nil
}

// finalize assigns final radii — the sharded mirror of core.Engine.Finalize:
// each shard writes its owned nodes' radii through the same state operation
// the engine runs, reusing the last round's for a converged run this engine
// stepped and recomputing them otherwise.
func (e *Engine) finalize() *core.Result {
	n := len(e.pos)
	res := &core.Result{
		Positions: append([]geom.Point(nil), e.pos...),
		Radii:     make([]float64, n),
		Rounds:    e.round,
		Converged: e.converged,
		Trace:     append([]core.RoundStats(nil), e.trace...),
	}
	reuse := e.converged && e.stepped
	if !reuse {
		// The last committed round's remote moves were never served (a round
		// refreshes windows at its start, and there is no next round), so the
		// shards' non-owned copies are stale. Refresh first: the recompute
		// must read exactly the final positions the engine's recompute reads.
		e.refresh()
	}
	tag := core.FinalRoundTag(e.round)
	e.settle(func(w *worker, retry bool) xband { return w.doFinal(res, reuse, tag, retry) })
	for _, w := range e.workers {
		e.finalMsgs += w.msgs
		w.msgs = 0
	}
	res.Messages = e.msgBase + e.roundMsgs + e.finalMsgs
	return res
}

// Snapshot captures a resumable checkpoint — byte-identical to what the
// shared-memory engine would write at the same round boundary (positions,
// round, convergence, trace, config; finalization messages excluded).
func (e *Engine) Snapshot() (*snapshot.State, error) {
	return core.Checkpoint(e.pos, e.cfg, e.round, e.converged, e.trace, e.msgBase+e.roundMsgs), nil
}
