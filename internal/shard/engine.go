package shard

import (
	"context"
	"fmt"
	"math"
	"sync"

	"laacad/internal/boundary"
	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/snapshot"
)

// Engine is the sharded LAACAD engine: a drop-in Runner that executes the
// same rounds as core.Engine, but with the deployment partitioned into
// stripe-owned shards (one goroutine each) exchanging ρ-halos of border
// positions over typed channels. Trajectories, trace, radii and message
// totals are bit-identical to the shared-memory engine for every shard
// count, worker count and update order — asserted by the bit-identity
// matrix test.
//
// The orchestrator (this type) runs the round protocol: migrate ownership,
// grant windows, drive the serve/merge halo exchange, fan computation out to
// the shards, fold their partial statistics, and route Sequential mid-round
// position updates. It keeps a global position mirror so Snapshot works at
// any round boundary without consulting the shards.
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
	cmds    []chan cmd
	replies chan reply
	inbox   []chan dataMsg
	started bool
	once    sync.Once

	pos       []geom.Point // global position mirror (current truth)
	windows   []xband      // each shard's granted window
	sent      []int64      // data messages ever sent to each shard (fences)
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
// (clamped inside the region, like core.New) and shard count. Localized mode
// with more than one shard requires a per-node boundary detector (or the
// default): a global detector reads every position, which no window short of
// the whole deployment can serve.
func New(reg *region.Region, initial []geom.Point, cfg core.Config, shards int) (*Engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	st0, err := core.NewStepper(reg, len(initial), cfg)
	if err != nil {
		return nil, err
	}
	cfg = st0.Config() // normalized (RingCap default applied)
	if shards > 1 && cfg.Mode == core.Localized && cfg.Detector != nil {
		if _, ok := cfg.Detector.(boundary.PerNode); !ok {
			return nil, fmt.Errorf("shard: Localized mode with %d shards requires a per-node boundary detector", shards)
		}
	}
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
		sent:        make([]int64, S),
		cmds:        make([]chan cmd, S),
		replies:     make(chan reply, S),
		inbox:       make([]chan dataMsg, S),
	}
	for s := 0; s < S; s++ {
		e.cmds[s] = make(chan cmd, 1)
		e.inbox[s] = make(chan dataMsg, n+4*S+64)
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

func (e *Engine) start() {
	e.once.Do(func() {
		for _, w := range e.workers {
			go w.loop()
		}
		e.started = true
	})
}

// Close releases the shard goroutines. Only needed by callers that drive
// rounds through Step directly; Run shuts down on its own. Terminal: the
// engine can only serve mirror reads afterwards.
func (e *Engine) Close() {
	if !e.started {
		return
	}
	for _, c := range e.cmds {
		close(c)
	}
	e.started = false
}

// send issues one command to shard s with the current data-message fence.
func (e *Engine) send(s int, c cmd) {
	c.expect = e.sent[s]
	e.cmds[s] <- c
}

// collect gathers k replies, folding any send counts into the fences.
func (e *Engine) collect(k int) []reply {
	out := make([]reply, 0, k)
	for i := 0; i < k; i++ {
		r := <-e.replies
		for t, c := range r.sentTo {
			e.sent[t] += c
		}
		out = append(out, r)
	}
	return out
}

// broadcast sends c to every shard and collects all replies.
func (e *Engine) broadcast(c cmd) []reply {
	S := e.part.Shards()
	for s := 0; s < S; s++ {
		e.send(s, c)
	}
	return e.collect(S)
}

// serveCycle runs one halo serve: every shard serves each requested band
// from its owned set. bands[r] is what shard r asked for; empty requests are
// skipped. Counts one exchange when any request exists.
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
	e.broadcast(cmd{op: opServe, bands: bands})
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

// extendWindows grows the deficit shards' windows and serves the deltas:
// one or two serve cycles (left and right extensions), then a merge-delta on
// each grown shard.
func (e *Engine) extendWindows(deficits []reply) {
	S := e.part.Shards()
	bandsL := make([]xband, S)
	bandsR := make([]xband, S)
	grown := make([]int, 0, len(deficits))
	newWins := make([]xband, S)
	for _, r := range deficits {
		s := r.shard
		// A request the window already covers (an earlier cycle granted an
		// overlapping deficit) still gets a merge-delta to clear its retry.
		newWin := e.windows[s].union(r.window)
		bandsL[s], bandsR[s] = deltaBands(e.windows[s], newWin)
		newWins[s] = newWin
		grown = append(grown, s)
	}
	e.serveCycle(bandsL)
	e.serveCycle(bandsR)
	for _, s := range grown {
		e.windows[s] = newWins[s]
		e.send(s, cmd{op: opMergeDelta, window: newWins[s]})
	}
	e.collect(len(grown))
}

// settle broadcasts c and hands every reply to each, re-issuing c as a retry
// after widening the windows of the shards that reported a deficit, until
// none does. A retry reaches only the deficit shards' pending nodes; every
// other shard no-ops.
func (e *Engine) settle(c cmd, each func(reply)) {
	for ; ; c.retry = true {
		var deficits []reply
		for _, r := range e.broadcast(c) {
			each(r)
			if r.window.ok {
				deficits = append(deficits, r)
			}
		}
		if len(deficits) == 0 {
			return
		}
		e.extendWindows(deficits)
	}
}

// refresh runs the round-start halo phases: migrate ownership of nodes that
// left their stripe (re-deriving the orchestrator's ownership map from the
// mirror — the same pure function of x the shards just applied), absorb and
// predict windows, then serve and merge every window wholesale. After it
// returns, every shard's window is complete at current truth.
func (e *Engine) refresh() {
	S := e.part.Shards()
	e.broadcast(cmd{op: opMigrate})
	for g := range e.pos {
		e.owner[g] = e.part.Shard(e.pos[g].X)
	}
	for _, r := range e.broadcast(cmd{op: opAbsorb}) {
		e.windows[r.shard] = r.window
	}
	bands := make([]xband, S)
	copy(bands, e.windows)
	e.serveCycle(bands)
	for s := 0; s < S; s++ {
		e.send(s, cmd{op: opMergeRefresh, window: e.windows[s]})
	}
	e.collect(S)
}

// Step executes one round and reports its statistics and whether the
// deployment converged — the sharded mirror of core.Engine.Step.
func (e *Engine) Step() (core.RoundStats, bool) {
	e.start()
	round := e.round + 1

	// Phases 1–4: migrate, absorb, serve, merge.
	e.refresh()

	// Phase 5: compute (+ deficit cycles), commit, fold. A Sequential sweep
	// commits each move at its turn, leaving the commit phase nothing to move.
	if e.cfg.Order == core.Sequential {
		e.sequentialRound(round)
	} else {
		e.settle(cmd{op: opComputeSync, round: round}, func(reply) {})
	}
	stats := core.RoundStats{Round: round, MinCircumradius: math.Inf(1)}
	for _, r := range e.broadcast(cmd{op: opCommit}) {
		stats.Merge(r.stats)
		for _, m := range r.movedNodes {
			e.pos[m.id] = m.new
		}
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

// sequentialRound drives the Gauss–Seidel sweep: every node's turn goes to
// its owner in ascending global-ID order; committed moves are mirrored and
// routed to every shard whose window sees either endpoint.
func (e *Engine) sequentialRound(round int) {
	S := e.part.Shards()
	for g := range e.pos {
		owner := e.owner[g]
		for {
			e.send(owner, cmd{op: opTurn, node: g, round: round})
			r := <-e.replies
			for t, c := range r.sentTo {
				e.sent[t] += c
			}
			if r.window.ok {
				e.extendWindows([]reply{r})
				continue
			}
			for _, m := range r.movedNodes {
				old := e.pos[g]
				e.pos[g] = m.new
				for s := 0; s < S; s++ {
					if s != owner && (e.windows[s].contains(old.X) || e.windows[s].contains(m.new.X)) {
						e.inbox[s] <- posUpdateMsg{id: g, old: old, new: m.new}
						e.halo.posUpdate()
						e.sent[s]++
					}
				}
			}
			break
		}
	}
}

// Run executes rounds until convergence, MaxRounds, ctx cancellation, or an
// observer stop — core.Drive, the same loop as core.Engine.Run — then assigns
// final radii and returns the Result. A clean completion releases the shard
// goroutines; the Result and Snapshot stay available.
func (e *Engine) Run(ctx context.Context) (*core.Result, error) {
	if e.final != nil {
		return e.final, nil
	}
	if err := core.Drive(ctx, e, e.cfg.MaxRounds, e.observer); err != nil {
		return e.finalizePartial(err)
	}
	return e.finishRun()
}

// finishRun finalizes a terminal run, caches the Result and releases the
// shard goroutines.
func (e *Engine) finishRun() (*core.Result, error) {
	res, err := e.finalize()
	if err != nil {
		return nil, err
	}
	e.final = res
	e.Close()
	return res, nil
}

// finalizePartial finalizes an interrupted run: the shards stay alive so the
// caller can Run again (core.Engine allows it), and the Result carries the
// interruption cause.
func (e *Engine) finalizePartial(cause error) (*core.Result, error) {
	res, err := e.finalize()
	if err != nil {
		return nil, err
	}
	return res, cause
}

// finalize assigns final radii — the sharded mirror of core.Engine.Finalize:
// each shard collects its owned nodes' radii through the same state
// operation the engine runs, reusing the last round's for a converged run
// this engine stepped and recomputing them otherwise.
func (e *Engine) finalize() (*core.Result, error) {
	e.start()
	n := len(e.pos)
	radii := make([]float64, n)
	var regions [][]geom.Polygon
	if e.cfg.KeepRegions {
		regions = make([][]geom.Polygon, n)
	}
	reuse := e.converged && e.stepped
	if !reuse {
		// The last committed round's remote moves were never served (a round
		// refreshes windows at its start, and there is no next round), so the
		// shards' non-owned copies are stale. Refresh first: the recompute
		// must read exactly the final positions the engine's recompute reads.
		e.refresh()
	}
	e.settle(cmd{op: opFinal, round: core.FinalRoundTag(e.round), reuse: reuse}, func(r reply) {
		e.finalMsgs += r.msgs
		for i, g := range r.ids {
			radii[g] = r.vals[i]
			if regions != nil {
				regions[g] = r.polys[i]
			}
		}
	})
	return &core.Result{
		Positions: append([]geom.Point(nil), e.pos...),
		Radii:     radii,
		Rounds:    e.round,
		Converged: e.converged,
		Trace:     append([]core.RoundStats(nil), e.trace...),
		Messages:  e.msgBase + e.roundMsgs + e.finalMsgs,
		Regions:   regions,
	}, nil
}

// Snapshot captures a resumable checkpoint — byte-identical to what the
// shared-memory engine would write at the same round boundary (positions,
// round, convergence, trace, config; finalization messages excluded).
func (e *Engine) Snapshot() (*snapshot.State, error) {
	return core.Checkpoint(e.pos, e.cfg, e.round, e.converged, e.trace, e.msgBase+e.roundMsgs), nil
}
