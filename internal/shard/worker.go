package shard

import (
	"math"
	"sync"
	"sync/atomic"

	"laacad/internal/boundary"
	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/parallel"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// worker is one shard: the owner of a vertical stripe of the deployment. It
// holds a local wsn.Network over its window — every global node whose current
// position lies inside the window, plus its own owned nodes — and computes
// round outcomes for the nodes it owns through a core.Stepper over that
// local network.
//
// The correctness argument has three layers:
//
//  1. Window completeness: after a refresh the local membership contains
//     every global node positioned inside the window, at globally current
//     positions (peers serve their owned nodes by exact position test, and
//     the union of owned sets is the whole deployment). Extra members whose
//     position has left the window are removed, so strict range queries over
//     the local network agree with global queries for any ball inside the
//     window.
//
//  2. Trust: an outcome whose read ball (StepOutcome.ReadRad around the
//     node) lies inside the window read only globally current positions, so
//     by the stepper's any-start-radius contract it is bitwise the global
//     engine's outcome. Centralized outcomes additionally require the
//     exactness exit (2·R̂ ≤ ReadRad) unless the window spans the whole
//     deployment, because the expanding search may also stop by exhausting
//     the *local* node count. Untrusted outcomes raise a halo deficit; the
//     orchestrator widens the window and the node recomputes — windows only
//     grow within a round, so the loop terminates (at spansAll at the
//     latest).
//
//  3. Cache validity: an entry is reused only while its invalidation ball
//     has stayed inside the window at every round since it was computed and
//     no known position change touched it. Every position change the shard
//     learns of (serve diff, membership add/remove, posUpdate, own commit)
//     invalidates by both endpoints, and the per-refresh window check kills
//     entries whose ball a window shrink ever exposed — without it a
//     shrink-then-grow window could hide a move inside the ball.
type worker struct {
	id  int
	eng *Engine
	st  *core.Stepper
	cfg core.Config

	// Region bbox x-extent: windows and read balls are clamped to it before
	// comparison (nothing exists outside it).
	regLoX, regHiX float64
	stripe         xband // owned stripe bounds

	// Global-length state. pos is the shard's view of current-truth
	// positions (meaningful for members), localOf maps global→local index
	// (-1 when not a member).
	owned   []bool
	member  []bool
	pos     []geom.Point
	localOf []int32
	members []int // ascending global IDs of members (local i → members[i])
	ownedID []int // ascending global IDs of owned nodes

	net      *wsn.Network
	netStale bool // membership changed since the net was built

	window xband // current complete window

	// Caches, global-length, maintained only for owned nodes (absorbing a
	// migrated node drops its stale state).
	cache   []entry
	hint    []float64 // last InvRad per node: centralized warm start
	readRad []float64 // last ReadRad per node: halo width prediction
	flagVal []bool
	flagOK  []bool
	lastRH  []float64        // last committed R̂ per owned node
	lastPol [][]geom.Polygon // last committed regions (KeepRegions)
	outs    []core.StepOutcome

	// Round-scoped buffers.
	pending   []int // owned nodes whose last attempt was untrusted
	changes   []geom.Point
	mark      []uint32 // serve-mark generations (refresh sweep)
	markGen   uint32
	rxServe   []serveMsg
	rxMigrate []migrateMsg
	sendIDs   [][]int // per-target staging for migrate/serve
	sendPos   [][]geom.Point
	scanBuf   []int

	msgAcc atomic.Int64 // round message charges (compute fan-out adds)
	seen   int64        // data messages drained so far

	pool  []*core.Scratch
	bpool []*boundary.Scratch

	pendMu sync.Mutex // guards pending/deficit under the compute fan-out
	defic  xband
}

func newWorker(id int, eng *Engine, st *core.Stepper, n int) *worker {
	lo, hi := eng.part.Bounds(id)
	xmin, xmax := eng.part.XRange()
	w := &worker{
		id:      id,
		eng:     eng,
		st:      st,
		cfg:     st.Config(),
		regLoX:  xmin,
		regHiX:  xmax,
		stripe:  xband{lo: lo, hi: hi, ok: true},
		owned:   make([]bool, n),
		member:  make([]bool, n),
		pos:     make([]geom.Point, n),
		localOf: make([]int32, n),
		cache:   make([]entry, n),
		hint:    make([]float64, n),
		readRad: make([]float64, n),
		flagVal: make([]bool, n),
		flagOK:  make([]bool, n),
		lastRH:  make([]float64, n),
		outs:    make([]core.StepOutcome, n),
		mark:    make([]uint32, n),
		sendIDs: make([][]int, eng.part.Shards()),
		sendPos: make([][]geom.Point, eng.part.Shards()),
	}
	if w.cfg.KeepRegions {
		w.lastPol = make([][]geom.Polygon, n)
	}
	for i := range w.localOf {
		w.localOf[i] = -1
	}
	return w
}

// seed installs the initial ownership and positions (round 0). Every shard
// knows every initial position (they arrive with construction, not over the
// halo), but only window members enter the local net — the first refresh
// establishes the steady-state membership.
func (w *worker) seed(positions []geom.Point, owner []int) {
	for g, p := range positions {
		w.pos[g] = p
		if owner[g] == w.id {
			w.owned[g] = true
			w.ownedID = append(w.ownedID, g)
			w.memberAdd(g)
		}
	}
	w.netStale = true
	w.window = w.clampBand(w.stripe)
}

// loop is the shard goroutine: drain the inbox to the command's fence, then
// execute it and reply.
func (w *worker) loop() {
	for c := range w.eng.cmds[w.id] {
		w.drainTo(c.expect)
		w.eng.replies <- w.execute(c)
	}
}

func (w *worker) drainTo(expect int64) {
	for w.seen < expect {
		w.apply(<-w.eng.inbox[w.id])
		w.seen++
	}
}

// apply buffers serve/migrate batches for the phase handlers and applies
// position updates immediately (they are self-contained).
func (w *worker) apply(m dataMsg) {
	switch m := m.(type) {
	case serveMsg:
		w.rxServe = append(w.rxServe, m)
	case migrateMsg:
		w.rxMigrate = append(w.rxMigrate, m)
	case posUpdateMsg:
		w.applyPosUpdate(m)
	}
}

func (w *worker) execute(c cmd) reply {
	switch c.op {
	case opMigrate:
		return w.doMigrate()
	case opAbsorb:
		return w.doAbsorb()
	case opServe:
		return w.doServe(c.bands)
	case opMergeRefresh:
		return w.doMergeRefresh(c.window)
	case opMergeDelta:
		return w.doMergeDelta(c.window)
	case opComputeSync:
		return w.doComputeSync(c.round, c.retry)
	case opCommitSync:
		return w.doCommitSync()
	case opTurn:
		return w.doTurn(c.node, c.round, c.retry)
	case opFold:
		return w.doFold()
	case opFinalRhat:
		return w.doFinalRhat()
	case opFinalRegions:
		return w.doFinalRegions()
	case opFinalRecompute:
		return w.doFinalRecompute(c.round, c.retry)
	}
	return reply{shard: w.id}
}

// ---- membership -----------------------------------------------------------

func (w *worker) memberAdd(g int) {
	if w.member[g] {
		return
	}
	w.member[g] = true
	// Insert keeping members sorted by global ID: local IDs then preserve
	// global relative order, which is what makes local strict-range query
	// results (and loss-draw assignment) order-isomorphic to global ones.
	i := len(w.members)
	for i > 0 && w.members[i-1] > g {
		i--
	}
	w.members = append(w.members, 0)
	copy(w.members[i+1:], w.members[i:])
	w.members[i] = g
	w.netStale = true
}

func (w *worker) memberRemove(g int) {
	if !w.member[g] {
		return
	}
	w.member[g] = false
	for i, m := range w.members {
		if m == g {
			w.members = append(w.members[:i], w.members[i+1:]...)
			break
		}
	}
	w.localOf[g] = -1
	w.netStale = true
}

// syncNet brings the local network in line with the membership. A membership
// change rebuilds it wholesale (local IDs are positional); otherwise it is
// already current (position changes are applied incrementally as they land).
func (w *worker) syncNet() {
	if !w.netStale {
		return
	}
	ps := make([]geom.Point, len(w.members))
	for i, g := range w.members {
		ps[i] = w.pos[g]
		w.localOf[g] = int32(i)
	}
	w.net = wsn.New(ps, w.st.IndexGamma())
	w.net.SetSearchCount(len(w.pos)) // global n: keeps the probe sequence engine-identical
	w.net.SetBoundsHint(w.eng.bbox)
	w.st.SetNetwork(w.net)
	w.netStale = false
}

// ---- invalidation ---------------------------------------------------------

// noteChange records a position-change endpoint for cache and flag
// invalidation. Flushed by flushChanges; callers batch several endpoints
// before flushing.
func (w *worker) noteChange(p geom.Point) { w.changes = append(w.changes, p) }

// flushChanges drops every owned cache entry whose invalidation ball
// contains a recorded endpoint, and marks every owned boundary flag whose
// γ-ball does — the shard-side mirror of the engine's invalidateMoved +
// markFlagsNear, as dense scans over the owned set (O(owned × changes); the
// shard's owned set is 1/S of the deployment, and converged rounds record
// no changes at all).
func (w *worker) flushChanges() {
	if len(w.changes) == 0 {
		return
	}
	gamma := w.st.IndexGamma()
	g2 := gamma * gamma
	for _, g := range w.ownedID {
		ug := w.pos[g]
		if c := &w.cache[g]; c.valid {
			r2 := c.inv * c.inv
			for _, p := range w.changes {
				if ug.Dist2(p) <= r2 {
					c.valid = false
					break
				}
			}
		}
		if w.flagOK[g] {
			for _, p := range w.changes {
				if ug.Dist2(p) <= g2 {
					w.flagOK[g] = false
					break
				}
			}
		}
	}
	w.changes = w.changes[:0]
}

// enforceWindow kills owned cache entries whose invalidation ball is not
// inside the current window — the per-refresh half of the validity
// invariant (a ball that ever stuck out may have missed a move).
func (w *worker) enforceWindow() {
	for _, g := range w.ownedID {
		if c := &w.cache[g]; c.valid && !w.ballInWindow(w.pos[g], c.inv) {
			c.valid = false
		}
	}
}

// ballInWindow reports whether the ball of radius r around p, clamped to
// the region's x-extent, lies inside the window.
func (w *worker) ballInWindow(p geom.Point, r float64) bool {
	lo, hi := p.X-r, p.X+r
	if lo < w.regLoX {
		lo = w.regLoX
	}
	if hi > w.regHiX {
		hi = w.regHiX
	}
	return lo >= w.window.lo && hi <= w.window.hi
}

func (w *worker) clampBand(b xband) xband {
	if !b.ok {
		return b
	}
	if b.lo < w.regLoX {
		b.lo = w.regLoX
	}
	if b.hi > w.regHiX {
		b.hi = w.regHiX
	}
	return b
}

// spansAll reports whether the window covers the whole deployment — local
// computation is then unconditionally global.
func (w *worker) spansAll() bool {
	return w.window.lo <= w.regLoX && w.window.hi >= w.regHiX
}

// ---- phase handlers -------------------------------------------------------

// doMigrate hands off owned nodes whose position left the stripe. Ownership
// follows Partition.Shard(x) — the same pure function every shard applies —
// so no two shards ever claim a node.
func (w *worker) doMigrate() reply {
	S := w.eng.part.Shards()
	for t := 0; t < S; t++ {
		w.sendIDs[t] = w.sendIDs[t][:0]
		w.sendPos[t] = w.sendPos[t][:0]
	}
	kept := w.ownedID[:0]
	for _, g := range w.ownedID {
		t := w.eng.part.Shard(w.pos[g].X)
		if t == w.id {
			kept = append(kept, g)
			continue
		}
		w.owned[g] = false
		w.sendIDs[t] = append(w.sendIDs[t], g)
		w.sendPos[t] = append(w.sendPos[t], w.pos[g])
		// The node stays a member for now; the refresh sweep re-serves or
		// removes it. Its cache/flag state is dropped by the absorbing shard.
	}
	w.ownedID = kept
	sent := make([]int64, S)
	for t := 0; t < S; t++ {
		if len(w.sendIDs[t]) == 0 {
			continue
		}
		ids := append([]int(nil), w.sendIDs[t]...)
		ps := append([]geom.Point(nil), w.sendPos[t]...)
		hints := make([]float64, len(ids))
		reads := make([]float64, len(ids))
		for i, g := range ids {
			hints[i] = w.hint[g]
			reads[i] = w.readRad[g]
		}
		w.eng.inbox[t] <- migrateMsg{from: w.id, ids: ids, pos: ps, hints: hints, reads: reads}
		w.eng.halo.batch(len(ids))
		sent[t]++
	}
	return reply{shard: w.id, sentTo: sent}
}

// doAbsorb takes ownership of migrated-in nodes and predicts the halo width
// the coming round needs, replying with the desired window.
func (w *worker) doAbsorb() reply {
	for _, m := range w.rxMigrate {
		for i, g := range m.ids {
			w.owned[g] = true
			w.insertOwned(g)
			if w.member[g] {
				// Migration implies the node moved last round; a boundary
				// member's local copy still holds the pre-move position —
				// update the net and invalidate around both endpoints, just
				// as a refresh serve would.
				if old := w.pos[g]; old != m.pos[i] {
					w.noteChange(old)
					w.noteChange(m.pos[i])
					w.pos[g] = m.pos[i]
					if !w.netStale {
						w.net.SetPosition(int(w.localOf[g]), m.pos[i])
					}
				}
			} else {
				w.pos[g] = m.pos[i]
				w.memberAdd(g)
				w.noteChange(m.pos[i])
			}
			// The previous owner maintained this node's caches; ours are
			// stale from whenever we last owned it. Drop them — but adopt the
			// carried hint/read-radius history, which is global state.
			w.cache[g].valid = false
			w.flagOK[g] = false
			w.hint[g] = m.hints[i]
			w.readRad[g] = m.reads[i]
		}
	}
	w.rxMigrate = w.rxMigrate[:0]
	return reply{shard: w.id, window: w.desiredWindow()}
}

func (w *worker) insertOwned(g int) {
	i := len(w.ownedID)
	for i > 0 && w.ownedID[i-1] > g {
		i--
	}
	w.ownedID = append(w.ownedID, 0)
	copy(w.ownedID[i+1:], w.ownedID[i:])
	w.ownedID[i] = g
}

// desiredWindow predicts each edge's halo width as the maximum, over owned
// nodes, of the node's last read radius minus its distance to the edge —
// the ρ-ball bound: a node's search reads at most ReadRad out, so positions
// farther outside the stripe than that cannot influence it. Nodes with no
// history fall back to the expanding search's density guess. Localized
// windows are floored at γ (the boundary flag reads the full γ-ball).
func (w *worker) desiredWindow() xband {
	if w.eng.part.Shards() == 1 {
		return w.clampBand(xband{lo: math.Inf(-1), hi: math.Inf(1), ok: true})
	}
	guess := w.eng.fallbackRad
	minW := 0.0
	if w.cfg.Mode == core.Localized {
		minW = w.cfg.Gamma
	}
	wl, wr := minW, minW
	for _, g := range w.ownedID {
		r := w.readRad[g]
		if r <= 0 {
			r = guess
		}
		x := w.pos[g].X
		if v := r - (x - w.stripe.lo); v > wl {
			wl = v
		}
		if v := r - (w.stripe.hi - x); v > wr {
			wr = v
		}
	}
	return w.clampBand(xband{lo: w.stripe.lo - wl, hi: w.stripe.hi + wr, ok: true})
}

// doServe sends each requesting shard the current positions of owned nodes
// inside its band. During a round-start serve the local net may be stale
// (membership churn), so the scan walks the owned list directly; delta
// serves run mid-round on a fresh net and use the sub-range index view.
func (w *worker) doServe(bands []xband) reply {
	S := w.eng.part.Shards()
	sent := make([]int64, S)
	for t := 0; t < S; t++ {
		if t == w.id || !bands[t].ok {
			continue
		}
		b := bands[t]
		ids := []int(nil)
		ps := []geom.Point(nil)
		if !w.netStale && w.net != nil {
			w.scanBuf = w.net.AppendInXRange(b.lo, b.hi, w.scanBuf)
			for _, li := range w.scanBuf {
				g := w.members[li]
				if w.owned[g] {
					ids = append(ids, g)
					ps = append(ps, w.pos[g])
				}
			}
		} else {
			for _, g := range w.ownedID {
				if b.contains(w.pos[g].X) {
					ids = append(ids, g)
					ps = append(ps, w.pos[g])
				}
			}
		}
		if len(ids) == 0 {
			continue
		}
		w.eng.inbox[t] <- serveMsg{from: w.id, ids: ids, pos: ps}
		w.eng.halo.batch(len(ids))
		sent[t]++
	}
	return reply{shard: w.id, sentTo: sent}
}

// doMergeRefresh reconciles the buffered round-start serves against the
// membership: update changed positions, add newcomers, remove members the
// sweep proves have left the window (their owner did not re-serve them), and
// enforce the cache validity invariant against the new window.
func (w *worker) doMergeRefresh(win xband) reply {
	w.window = w.clampBand(win)
	w.markGen++
	for _, m := range w.rxServe {
		for i, g := range m.ids {
			w.mark[g] = w.markGen
			p := m.pos[i]
			if w.member[g] {
				if old := w.pos[g]; old != p {
					w.noteChange(old)
					w.noteChange(p)
					w.pos[g] = p
					if !w.netStale {
						w.net.SetPosition(int(w.localOf[g]), p)
					}
				}
			} else {
				w.pos[g] = p
				w.memberAdd(g)
				w.noteChange(p)
			}
		}
	}
	w.rxServe = w.rxServe[:0]
	// Sweep: a non-owned member the serves did not cover has (at its owner)
	// left the window — keeping the stale copy would poison strict range
	// queries inside the window.
	for i := 0; i < len(w.members); {
		g := w.members[i]
		if !w.owned[g] && w.mark[g] != w.markGen {
			w.noteChange(w.pos[g])
			w.memberRemove(g)
			continue // members shifted down; revisit index i
		}
		i++
	}
	w.enforceWindow()
	w.flushChanges()
	w.syncNet()
	// Repair boundary flags here — and only here — so every turn and fan-out
	// of the round reads start-of-round flag truth, exactly like the engine:
	// mid-round moves mark flags dirty for the NEXT round's repair.
	if w.cfg.Mode == core.Localized {
		w.repairFlags()
	}
	return reply{shard: w.id}
}

// doMergeDelta incorporates serves for a window extension: adds and updates
// only (no removal sweep — the extension adds coverage, it does not replace
// it), then widens the window.
func (w *worker) doMergeDelta(win xband) reply {
	w.window = w.window.union(w.clampBand(win))
	for _, m := range w.rxServe {
		for i, g := range m.ids {
			p := m.pos[i]
			if w.member[g] {
				if old := w.pos[g]; old != p {
					w.noteChange(old)
					w.noteChange(p)
					w.pos[g] = p
					if !w.netStale {
						w.net.SetPosition(int(w.localOf[g]), p)
					}
				}
			} else {
				w.pos[g] = p
				w.memberAdd(g)
				w.noteChange(p)
			}
		}
	}
	w.rxServe = w.rxServe[:0]
	w.flushChanges()
	w.syncNet()
	return reply{shard: w.id}
}

// applyPosUpdate incorporates one Sequential mid-round move. Membership
// follows the window: a node moving in becomes a member, one moving out is
// dropped (a stale copy inside the window would be unsound).
func (w *worker) applyPosUpdate(m posUpdateMsg) {
	inWin := w.window.contains(m.new.X)
	switch {
	case w.member[m.id]:
		old := w.pos[m.id]
		if inWin || w.owned[m.id] {
			w.noteChange(old)
			w.noteChange(m.new)
			w.pos[m.id] = m.new
			if !w.netStale {
				w.net.SetPosition(int(w.localOf[m.id]), m.new)
			}
		} else {
			w.noteChange(old)
			w.memberRemove(m.id)
		}
	case inWin:
		w.pos[m.id] = m.new
		w.memberAdd(m.id)
		w.noteChange(m.new)
	}
	w.flushChanges()
}

// ---- compute --------------------------------------------------------------

func (w *worker) ensurePool(workers int) {
	for len(w.pool) < workers {
		w.pool = append(w.pool, core.NewScratch())
		w.bpool = append(w.bpool, &boundary.Scratch{})
	}
}

// repairFlags brings the owned boundary flags up to date at start-of-round
// positions (Localized mode). The detector is PerNode by construction (the
// engine rejects global detectors for S > 1); the flag for an owned node
// reads only the γ-ball, which the window always covers.
func (w *worker) repairFlags() {
	pn, ok := w.st.Detector().(boundary.PerNode)
	if !ok {
		return
	}
	w.syncNet()
	w.net.Rebuild()
	w.ensurePool(1)
	scratched, scratchOK := pn.(boundary.PerNodeScratch)
	for _, g := range w.ownedID {
		if w.flagOK[g] {
			continue
		}
		li := int(w.localOf[g])
		if scratchOK {
			w.flagVal[g] = scratched.BoundaryNodeScratch(w.net, li, w.bpool[0])
		} else {
			w.flagVal[g] = pn.BoundaryNode(w.net, li)
		}
		w.flagOK[g] = true
	}
}

// tryNode computes (or serves from cache) node g's round outcome and reports
// whether it is trusted. An untrusted attempt records the window the node
// needs into the shared deficit. Safe for concurrent use across distinct g.
func (w *worker) tryNode(g, round int, s *core.Scratch, cacheOn bool) bool {
	if cacheOn {
		if c := &w.cache[g]; c.valid && (w.cfg.Mode != core.Localized || c.flag == w.flagVal[g]) {
			// A Localized hit re-charges the recorded cost — reuse must cost
			// exactly what re-running would (mirrors stepNodeAny).
			if c.cost != 0 {
				w.msgAcc.Add(c.cost)
			}
			w.outs[g] = c.out
			return true
		}
	}
	li := int(w.localOf[g])
	before := w.net.NodeMessages(li)
	out := w.st.StepNode(li, w.hint[g], w.flagVal[g], w.st.LossRNG(round, g), s)
	cost := w.net.NodeMessages(li) - before
	w.readRad[g] = out.ReadRad
	if !w.trusted(g, out) {
		// The attempt's charges never reach the round accounting (only the
		// final, trusted attempt's do — matching the engine, whose single
		// global computation is the trusted one).
		w.raiseDeficit(g, out.ReadRad)
		return false
	}
	w.msgAcc.Add(cost)
	w.outs[g] = out
	if cacheOn {
		// The engine updates rhoHint only inside computeEntry — the cache-on
		// miss path. With the cache disabled its searches always start from
		// the density fallback, and the warm start steers the probe sequence
		// (and with it the floating-point evaluation order), so the shard
		// must follow the same rule bit for bit.
		w.hint[g] = out.InvRad
		w.cache[g] = entry{valid: true, flag: w.flagVal[g], inv: out.InvRad, cost: cost, out: out}
	}
	return true
}

// raiseDeficit records node g as pending and folds the window it needs into
// the shard's deficit request. When the read ball stuck out of the window,
// a band around it with doubling overshoot makes the retry loop converge in
// O(log) exchanges instead of ring-by-ring; when the ball was inside but the
// Centralized search exhausted the local membership without reaching
// exactness, only the full deployment settles the question — request it
// outright (the one-retry hammer; growth is strict either way, so the loop
// terminates at spansAll at the latest).
func (w *worker) raiseDeficit(g int, readRad float64) {
	var req xband
	if w.ballInWindow(w.pos[g], readRad) {
		req = xband{lo: w.regLoX, hi: w.regHiX, ok: true}
	} else {
		need := 2*readRad + w.st.IndexGamma()
		x := w.pos[g].X
		req = w.clampBand(xband{lo: x - need, hi: x + need, ok: true})
	}
	w.pendMu.Lock()
	w.pending = append(w.pending, g)
	w.defic = w.defic.union(req)
	w.pendMu.Unlock()
}

// trusted decides whether a locally computed outcome is bitwise the global
// one: the window spans everything, or the read ball stayed inside the
// window and — Centralized only — the search ended on the exactness exit
// (2·R̂ ≤ ρ) rather than by exhausting the local node count. (The runaway
// exit ρ > 4·diag implies the exactness disjunct: R̂ ≤ diag < ρ/2.)
func (w *worker) trusted(g int, out core.StepOutcome) bool {
	if w.spansAll() {
		return true
	}
	if !w.ballInWindow(w.pos[g], out.ReadRad) {
		return false
	}
	if w.cfg.Mode == core.Localized {
		return true
	}
	return 2*out.Rhat <= out.ReadRad
}

// doComputeSync computes outcomes for the owned set (or the pending retry
// set) at start-of-round positions, fanning out across Config.Workers.
// Replies with the union deficit when any node needs a wider window.
func (w *worker) doComputeSync(round int, retry bool) reply {
	w.syncNet()
	w.net.Rebuild()
	targets := w.ownedID
	if retry {
		targets = w.pending
	}
	w.pending = nil
	w.defic = xband{}
	cacheOn := w.st.CacheEnabled()
	workers := parallel.Workers(w.cfg.Workers)
	w.ensurePool(workers)
	parallel.ForWorker(len(targets), workers, func(wk, idx int) {
		w.tryNode(targets[idx], round, w.pool[wk], cacheOn)
	})
	return reply{shard: w.id, window: w.defic}
}

// doCommitSync applies the round's moves, invalidates around them, folds the
// shard's partial statistics, and reports the moves for the orchestrator's
// position mirror.
func (w *worker) doCommitSync() reply {
	var movedNodes []movedPos
	// Apply every move first (Synchronous: all reads were at start-of-round
	// positions), then invalidate: the engine, too, invalidates after the
	// bulk apply, testing each entry node at its (post-move) position —
	// entry nodes that moved are dropped outright.
	for _, g := range w.ownedID {
		o := &w.outs[g]
		if ui := w.pos[g]; o.Next != ui {
			w.cache[g].valid = false
			movedNodes = append(movedNodes, movedPos{id: g, old: ui, new: o.Next})
			w.pos[g] = o.Next
			if !w.netStale {
				w.net.SetPosition(int(w.localOf[g]), o.Next)
			}
			w.noteChange(ui)
			w.noteChange(o.Next)
		}
	}
	w.flushChanges()
	st := w.foldStats()
	w.msgAcc.Store(0)
	return reply{shard: w.id, stats: st, movedNodes: movedNodes}
}

// foldStats folds the shard's partial RoundStats over its owned nodes in
// ascending global-ID order and stores per-node finalization state.
func (w *worker) foldStats() partialStats {
	st := partialStats{minCR: math.Inf(1)}
	for _, g := range w.ownedID {
		o := &w.outs[g]
		w.lastRH[g] = o.Rhat
		if w.lastPol != nil {
			w.lastPol[g] = o.Polys
		}
		if o.Empty {
			continue
		}
		if o.Ri > st.maxCR {
			st.maxCR = o.Ri
		}
		if o.Ri < st.minCR {
			st.minCR = o.Ri
		}
		if o.Rhat > st.maxRhat {
			st.maxRhat = o.Rhat
		}
		if o.Moved {
			st.moved++
			if o.MoveDist > st.maxMove {
				st.maxMove = o.MoveDist
			}
		}
	}
	st.messages = w.msgAcc.Load()
	return st
}

// doTurn runs one node's Sequential turn: compute at current (mid-round)
// truth, and commit immediately when trusted — later turns must see the
// move, exactly the Gauss–Seidel contract.
func (w *worker) doTurn(g, round int, retry bool) reply {
	w.syncNet()
	w.net.Rebuild()
	w.pending = w.pending[:0]
	w.defic = xband{}
	w.ensurePool(1)
	if !w.tryNode(g, round, w.pool[0], w.st.CacheEnabled()) {
		return reply{shard: w.id, window: w.defic}
	}
	o := &w.outs[g]
	r := reply{shard: w.id}
	if ui := w.pos[g]; o.Next != ui {
		w.cache[g].valid = false
		w.pos[g] = o.Next
		if !w.netStale {
			w.net.SetPosition(int(w.localOf[g]), o.Next)
		}
		w.noteChange(ui)
		w.noteChange(o.Next)
		w.flushChanges()
		r.moved, r.old, r.new = true, ui, o.Next
	}
	return r
}

// doFold folds the Sequential round's partial statistics (every turn already
// committed).
func (w *worker) doFold() reply {
	st := w.foldStats()
	w.msgAcc.Store(0)
	return reply{shard: w.id, stats: st}
}

// ---- finalization ---------------------------------------------------------

// doFinalRhat reports the owned nodes' last committed R̂ — the converged,
// no-regions Finalize path (nothing moved, so R̂ is bitwise the radius a
// recompute would measure).
func (w *worker) doFinalRhat() reply {
	ids := append([]int(nil), w.ownedID...)
	vals := make([]float64, len(ids))
	for i, g := range ids {
		vals[i] = w.lastRH[g]
	}
	return reply{shard: w.id, ids: ids, vals: vals}
}

// doFinalRegions measures radii from the retained last-round regions
// (converged KeepRegions runs) and hands the regions over.
func (w *worker) doFinalRegions() reply {
	ids := append([]int(nil), w.ownedID...)
	vals := make([]float64, len(ids))
	polys := make([][]geom.Polygon, len(ids))
	for i, g := range ids {
		polys[i] = w.lastPol[g]
		vals[i] = voronoi.MaxDistFrom(w.pos[g], w.lastPol[g])
	}
	return reply{shard: w.id, ids: ids, vals: vals, polys: polys}
}

// doFinalRecompute recomputes every owned node's dominating region at the
// final positions under the negative round tag — the unconverged Finalize
// path — with the same trust/deficit loop as a round, but no cache in either
// direction (the engine's recompute is eager too). Charges accumulate and
// are reported as finalization messages.
func (w *worker) doFinalRecompute(roundTag int, retry bool) reply {
	w.syncNet()
	if w.cfg.Mode == core.Localized {
		w.repairFlags()
	}
	w.net.Rebuild()
	targets := w.ownedID
	if retry {
		targets = w.pending
	}
	w.pending = nil
	w.defic = xband{}
	workers := parallel.Workers(w.cfg.Workers)
	w.ensurePool(workers)
	if w.lastPol == nil {
		w.lastPol = make([][]geom.Polygon, len(w.pos))
	}
	var finalMsgs atomic.Int64
	parallel.ForWorker(len(targets), workers, func(wk, idx int) {
		g := targets[idx]
		s := w.pool[wk]
		li := int(w.localOf[g])
		rng := w.st.LossRNG(roundTag, g)
		before := w.net.NodeMessages(li)
		// Hint 0, not the warm start: the engine's finalization recompute
		// searches from the density fallback, and the probe sequence must
		// match bit for bit.
		polys, readRad := w.st.RegionPolys(li, 0, w.flagVal[g], rng, s)
		cost := w.net.NodeMessages(li) - before
		rhat := voronoi.MaxDistFrom(w.pos[g], polys)
		ok := w.spansAll() || (w.ballInWindow(w.pos[g], readRad) &&
			(w.cfg.Mode == core.Localized || 2*rhat <= readRad))
		if !ok {
			w.raiseDeficit(g, readRad)
			return
		}
		finalMsgs.Add(cost)
		w.lastRH[g] = rhat
		w.lastPol[g] = polys
	})
	if w.defic.ok {
		return reply{shard: w.id, window: w.defic, msgs: finalMsgs.Load()}
	}
	ids := append([]int(nil), w.ownedID...)
	vals := make([]float64, len(ids))
	polys := make([][]geom.Polygon, len(ids))
	for i, g := range ids {
		vals[i] = w.lastRH[g]
		polys[i] = w.lastPol[g]
	}
	return reply{shard: w.id, ids: ids, vals: vals, polys: polys, msgs: finalMsgs.Load()}
}
