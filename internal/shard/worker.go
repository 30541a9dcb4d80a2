package shard

import (
	"math"
	"slices"
	"sync"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/wsn"
)

// worker is one shard: the owner of a vertical stripe of the deployment. It
// holds a local wsn.Network over its window — every global node whose current
// position lies inside the window, plus its own owned nodes — and runs the
// per-node state of core.Engine (a core.Stepper: cache, stats fold,
// finalize) over that network for the nodes it owns. What the worker
// adds is the halo protocol: membership, migrate/serve/merge, the admission
// check against the window, and the window invariant on the cache.
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
//  2. Trust: an outcome whose read ball (the radius the stepper reports to
//     admit, around the node) lies inside the window read only globally
//     current positions, so by the stepper's any-start-radius contract it is
//     bitwise the global engine's outcome. Outcomes additionally require the
//     exactness exit (2·R̂ ≤ read radius) unless the window spans the whole
//     deployment, because the expanding search may also stop by exhausting
//     the *local* node count. Untrusted outcomes raise a halo deficit; the
//     orchestrator widens the window and the node recomputes — windows only
//     grow within a round, so the loop terminates (at spansAll at the
//     latest).
//
//  3. Cache validity: an entry is reused only while its invalidation ball
//     has stayed inside the window at every round since it was computed and
//     no known position change touched it. Every position change the shard
//     learns of (serve diff, membership add/remove, own commit)
//     invalidates by both endpoints, and the per-refresh window check kills
//     entries whose ball a window shrink ever exposed — without it a
//     shrink-then-grow window could hide a move inside the ball.
//
// The stepper's state is indexed by local network index. A membership change
// rebuilds the network (local IDs are positional, ascending in global ID) and
// carries the state across in syncNet; a node its shard absorbs starts
// fresh, keeping only the warm-start hint the migration carries.
type worker struct {
	id  int
	eng *Engine
	st  *core.Stepper

	// Region bbox x-extent: windows and read balls are clamped to it before
	// comparison (nothing exists outside it).
	regLoX, regHiX float64
	stripe         xband // owned stripe bounds

	// Global-length state. pos is the shard's view of current-truth
	// positions (meaningful for members), localOf maps global→local index (-1
	// when not a member or not yet numbered), readRad is each owned node's
	// last read radius (halo width prediction; it travels with ownership).
	owned   []bool
	member  []bool
	pos     []geom.Point
	localOf []int32
	readRad []float64
	members []int // ascending global IDs of members (local i → members[i])
	ownedID []int // ascending global IDs of owned nodes
	// ownedLocal lists the owned nodes' local indices, ascending; it is
	// rebuilt with the network, so it matches the stepper's numbering.
	ownedLocal []int
	// adopted holds migrated-in nodes to reset with their carried hint once
	// syncNet has numbered them.
	adopted []adoption

	net      *wsn.Network
	netStale bool // membership changed since the net was built
	ownStale bool // ownership changed since ownedLocal was built
	posBuf   []geom.Point
	fromBuf  []int32
	final    []float64 // finalization radii of the current attempt, by local index

	window xband // current complete window

	// Round-scoped buffers.
	pending   []int        // owned nodes whose last attempt was untrusted
	targets   []int        // local indices of the retry set
	changes   []geom.Point // position-change endpoints not yet invalidated
	mark      []uint32     // serve-mark generations (refresh sweep)
	markGen   uint32
	rxServe   []serveMsg   // mailbox: serve batches for the next merge
	rxMigrate []migrateMsg // mailbox: migrated-in nodes for the next absorb

	pendMu sync.Mutex // guards pending/deficit under the compute fan-out
	defic  xband
}

// adoption is a migrated-in node's carried warm-start hint.
type adoption struct {
	id   int
	hint float64
}

// newWorker builds shard id over the initial positions and ownership (round
// 0). Every shard knows every initial position (they arrive with
// construction, not over the halo), but only its owned nodes enter the local
// net — the first refresh establishes the steady-state membership.
func newWorker(id int, eng *Engine, st *core.Stepper, pos []geom.Point, owner []int) *worker {
	n := len(pos)
	lo, hi := eng.part.Bounds(id)
	xmin, xmax := eng.part.XRange()
	w := &worker{
		id:       id,
		eng:      eng,
		st:       st,
		regLoX:   xmin,
		regHiX:   xmax,
		stripe:   xband{lo: lo, hi: hi, ok: true},
		owned:    make([]bool, n),
		member:   make([]bool, n),
		pos:      append([]geom.Point(nil), pos...),
		localOf:  make([]int32, n),
		readRad:  make([]float64, n),
		mark:     make([]uint32, n),
		netStale: true,
	}
	w.window = w.clampBand(w.stripe)
	for g := range pos {
		w.localOf[g] = -1
		if owner[g] == id {
			w.owned[g] = true
			w.ownedID = append(w.ownedID, g)
			w.memberAdd(g)
		}
	}
	st.SetAdmit(w.admit)
	return w
}

// ---- membership -----------------------------------------------------------

func (w *worker) memberAdd(g int) {
	if w.member[g] {
		return
	}
	w.member[g] = true
	// Keep members sorted by global ID: local IDs then preserve global
	// relative order, which is what makes local strict-range query results
	// order-isomorphic to global ones.
	w.members = insertSorted(w.members, g)
	w.netStale = true
}

func (w *worker) memberRemove(g int) {
	if !w.member[g] {
		return
	}
	w.member[g] = false
	i, _ := slices.BinarySearch(w.members, g)
	w.members = slices.Delete(w.members, i, i+1)
	w.localOf[g] = -1
	w.netStale = true
}

// learn records node g's current position p, served or carried by a peer: a
// member's copy is updated, a newcomer joins, and the endpoints are noted
// for invalidation.
func (w *worker) learn(g int, p geom.Point) {
	if !w.member[g] {
		w.pos[g] = p
		w.memberAdd(g)
		w.changes = append(w.changes, p)
		return
	}
	if old := w.pos[g]; old != p {
		w.changes = append(w.changes, old, p)
		w.pos[g] = p
		if !w.netStale {
			w.net.SetPosition(int(w.localOf[g]), p)
		}
	}
}

// syncNet brings the local network in line with the membership and applies
// the noted position changes to the stepper's caches. A membership change
// rebuilds the network wholesale (local IDs are positional) and renumbers
// the stepper's state onto it, O(members); otherwise the network is already
// current (position changes are applied incrementally as they land).
func (w *worker) syncNet() {
	if w.netStale {
		w.posBuf, w.fromBuf = w.posBuf[:0], w.fromBuf[:0]
		for i, g := range w.members {
			w.posBuf = append(w.posBuf, w.pos[g])
			w.fromBuf = append(w.fromBuf, w.localOf[g])
			w.localOf[g] = int32(i)
		}
		w.net = wsn.New(w.posBuf, w.st.IndexGamma())
		w.net.SetSearchCount(len(w.pos)) // global n: keeps the probe sequence engine-identical
		w.net.SetBoundsHint(w.eng.bbox)
		w.st.Renumber(w.net, w.fromBuf)
		for _, a := range w.adopted {
			w.st.Reset(int(w.localOf[a.id]), a.hint)
		}
		w.adopted = w.adopted[:0]
	}
	if w.netStale || w.ownStale {
		// Local order is global order, so the owned list stays ascending.
		w.ownedLocal = w.ownedLocal[:0]
		for _, g := range w.ownedID {
			w.ownedLocal = append(w.ownedLocal, int(w.localOf[g]))
		}
	}
	w.netStale, w.ownStale = false, false
	w.st.Invalidate(w.changes)
	w.changes = w.changes[:0]
}

// ---- trust ----------------------------------------------------------------

// admit is the stepper's admission check: it records node i's read radius
// for the next halo prediction and decides whether the outcome is bitwise
// the global one — the window spans everything, or the read ball stayed
// inside the window and the search ended on the exactness exit (2·R̂ ≤ ρ)
// rather than by exhausting the local node count. (The runaway exit
// ρ > 4·diag implies the exactness disjunct: R̂ ≤ diag < ρ/2.) A rejected
// outcome raises a deficit. Safe for concurrent use across distinct nodes.
func (w *worker) admit(i int, readRad, rhat float64) bool {
	g := w.members[i]
	w.readRad[g] = readRad
	if w.spansAll() || (w.ballInWindow(w.pos[g], readRad) && 2*rhat <= readRad) {
		return true
	}
	w.raiseDeficit(g, readRad)
	return false
}

// raiseDeficit records node g as pending and folds the window it needs into
// the shard's deficit request. When the read ball stuck out of the window,
// a band around it with doubling overshoot makes the retry loop converge in
// O(log) exchanges instead of ring-by-ring; when the ball was inside but the
// search exhausted the local membership without reaching exactness, only the
// full deployment settles the question — request it outright (the
// one-retry hammer; growth is strict either way, so the loop terminates at
// spansAll at the latest).
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

// enforceWindow drops owned cache entries whose invalidation ball is not
// inside the current window — the per-refresh half of the validity
// invariant (a ball that ever stuck out may have missed a move).
func (w *worker) enforceWindow() {
	w.st.DropUnless(w.ownedLocal, func(i int, rho float64) bool {
		return w.ballInWindow(w.net.Position(i), rho)
	})
}

// ballInWindow reports whether the ball of radius r around p, clamped to
// the region's x-extent, lies inside the window.
func (w *worker) ballInWindow(p geom.Point, r float64) bool {
	b := w.clampBand(xband{lo: p.X - r, hi: p.X + r, ok: true})
	return b.lo >= w.window.lo && b.hi <= w.window.hi
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

// doMigrate hands off owned nodes whose position left the stripe to their
// new owners' mailboxes. Ownership follows Partition.Shard(x) — the same
// pure function every shard applies — so no two shards ever claim a node.
func (w *worker) doMigrate() {
	out := make([]migrateMsg, w.eng.part.Shards())
	kept := w.ownedID[:0]
	for _, g := range w.ownedID {
		t := w.eng.part.Shard(w.pos[g].X)
		if t == w.id {
			kept = append(kept, g)
			continue
		}
		m := &out[t]
		m.ids = append(m.ids, g)
		m.pos = append(m.pos, w.pos[g])
		li := int(w.localOf[g])
		hint := w.st.Hint(li)
		m.hints = append(m.hints, hint)
		m.reads = append(m.reads, w.readRad[g])
		// The node stays a member for now: the refresh sweep re-serves or
		// removes it. Its entry goes now, because its new owner moves it
		// without telling this stepper's ρ-bounds; a node absorbed back
		// starts fresh anyway (doAbsorb).
		w.st.Reset(li, hint)
		w.owned[g] = false
		w.ownStale = true
	}
	w.ownedID = kept
	for t, m := range out {
		if len(m.ids) > 0 {
			rx := w.eng.workers[t]
			rx.rxMigrate = append(rx.rxMigrate, m)
			w.eng.halo.batch(len(m.ids))
		}
	}
}

// doAbsorb takes ownership of migrated-in nodes and predicts the halo width
// the coming round needs, returning the desired window.
func (w *worker) doAbsorb() xband {
	for _, m := range w.rxMigrate {
		for i, g := range m.ids {
			w.owned[g] = true
			w.ownedID = insertSorted(w.ownedID, g)
			// Migration implies the node moved last round; a boundary
			// member's local copy still holds the pre-move position.
			w.learn(g, m.pos[i])
			// The previous owner maintained this node's caches; ours are
			// stale from whenever we last owned it. Start fresh — but adopt
			// the carried hint/read-radius history, which is global state. A
			// node not yet numbered is reset once syncNet numbers it.
			if li := w.localOf[g]; li >= 0 {
				w.st.Reset(int(li), m.hints[i])
			} else {
				w.adopted = append(w.adopted, adoption{id: g, hint: m.hints[i]})
			}
			w.readRad[g] = m.reads[i]
			w.ownStale = true
		}
	}
	w.rxMigrate = w.rxMigrate[:0]
	return w.desiredWindow()
}

// insertSorted inserts g into the ascending list s.
func insertSorted(s []int, g int) []int {
	i, _ := slices.BinarySearch(s, g)
	return slices.Insert(s, i, g)
}

// desiredWindow predicts each edge's halo width as the maximum, over owned
// nodes, of the node's last read radius minus its distance to the edge —
// the ρ-ball bound: a node's search reads no farther out than that, so
// positions farther outside the stripe cannot influence it. Nodes with no
// history fall back to the expanding search's density guess.
func (w *worker) desiredWindow() xband {
	if w.eng.part.Shards() == 1 {
		return w.clampBand(xband{lo: math.Inf(-1), hi: math.Inf(1), ok: true})
	}
	guess := w.eng.fallbackRad
	var wl, wr float64
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
// inside its band, into the requester's mailbox.
func (w *worker) doServe(bands []xband) {
	for t, rx := range w.eng.workers {
		if t == w.id || !bands[t].ok {
			continue
		}
		var ids []int
		var ps []geom.Point
		for _, g := range w.ownedID {
			if bands[t].contains(w.pos[g].X) {
				ids = append(ids, g)
				ps = append(ps, w.pos[g])
			}
		}
		if len(ids) == 0 {
			continue
		}
		rx.rxServe = append(rx.rxServe, serveMsg{ids: ids, pos: ps})
		w.eng.halo.batch(len(ids))
	}
}

// doMergeRefresh reconciles the buffered round-start serves against the
// membership: update changed positions, add newcomers, remove members the
// sweep proves have left the window (their owner did not re-serve them),
// and enforce the cache validity invariant against the new window.
func (w *worker) doMergeRefresh(win xband) {
	w.window = w.clampBand(win)
	w.markGen++
	for _, m := range w.rxServe {
		for i, g := range m.ids {
			w.mark[g] = w.markGen
			w.learn(g, m.pos[i])
		}
	}
	w.rxServe = w.rxServe[:0]
	// Sweep: a non-owned member the serves did not cover has (at its owner)
	// left the window — keeping the stale copy would poison strict range
	// queries inside the window.
	for i := 0; i < len(w.members); {
		g := w.members[i]
		if !w.owned[g] && w.mark[g] != w.markGen {
			w.changes = append(w.changes, w.pos[g])
			w.memberRemove(g)
			continue // members shifted down; revisit index i
		}
		i++
	}
	w.syncNet()
	w.enforceWindow()
}

// doMergeDelta incorporates serves for a window extension: adds and updates
// only (no removal sweep — the extension adds coverage, it does not replace
// it), then widens the window.
func (w *worker) doMergeDelta(win xband) {
	w.window = w.window.union(w.clampBand(win))
	for _, m := range w.rxServe {
		for i, g := range m.ids {
			w.learn(g, m.pos[i])
		}
	}
	w.rxServe = w.rxServe[:0]
	w.syncNet()
}

// ---- compute --------------------------------------------------------------

// beginAttempt prepares a compute phase: the network is synced and the
// targets are the owned set, or the pending retry set.
func (w *worker) beginAttempt(retry bool) []int {
	w.syncNet()
	targets := w.ownedLocal
	if retry {
		w.targets = w.targets[:0]
		for _, g := range w.pending {
			w.targets = append(w.targets, int(w.localOf[g]))
		}
		targets = w.targets
	}
	w.pending = w.pending[:0]
	w.defic = xband{}
	return targets
}

// doCompute computes outcomes for the owned set (or the pending retry set)
// at start-of-round positions. Returns the union deficit when any node needs
// a wider window.
func (w *worker) doCompute(round int, retry bool) xband {
	targets := w.beginAttempt(retry)
	w.st.StepAll(targets, round)
	return w.defic
}

// doCommit applies the round's moves, writes them to the orchestrator's
// position mirror (owned nodes only, so shards write distinct slots) and
// returns the shard's partial statistics.
func (w *worker) doCommit() core.RoundStats {
	w.syncNet()
	st := core.RoundStats{MinCircumradius: math.Inf(1)}
	ids, pts := w.st.Commit(w.ownedLocal, &st)
	for k, li := range ids {
		g := w.members[li]
		w.pos[g] = pts[2*k+1]
		w.eng.pos[g] = pts[2*k+1]
	}
	return st
}

// ---- finalization ---------------------------------------------------------

// doFinal writes the attempt's targets' final radii into res after the
// given number of completed rounds: a valid entry's last R̂, otherwise a
// recompute at the final positions with the same trust/deficit loop as a
// round (Stepper.FinalRadii). Returns the deficit while any node needs a
// wider window; a rejected node's slot is rewritten when its retry is
// admitted. Shards own distinct nodes, so they write distinct slots.
func (w *worker) doFinal(res *core.Result, rounds int, retry bool) xband {
	targets := w.beginAttempt(retry)
	w.final = slices.Grow(w.final[:0], w.net.Len())[:w.net.Len()]
	ok := w.st.FinalRadii(targets, rounds, w.final)
	for _, li := range targets {
		res.Radii[w.members[li]] = w.final[li]
	}
	if !ok {
		return w.defic
	}
	return xband{}
}
