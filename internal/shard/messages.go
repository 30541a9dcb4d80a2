package shard

import (
	"sync/atomic"

	"laacad/internal/core"
	"laacad/internal/geom"
)

// Typed channel protocol between the orchestrator and the shard goroutines.
//
// Each shard owns three channels: a command channel (orchestrator → shard), a
// reply channel (shard → orchestrator) and a data inbox (anyone → shard).
// Data messages — position batches — flow shard-to-shard and orchestrator-to-
// shard; commands and replies only between the orchestrator and one shard.
//
// Ordering contract: every command carries `expect`, the total number of data
// messages ever sent to that shard at the moment the command was issued (the
// orchestrator learns send counts from the sender's reply before issuing the
// next command, so the count is exact). The shard drains its inbox until it
// has seen `expect` messages before executing the command — a happens-before
// fence that makes the protocol deterministic without any global locks. Data
// inboxes are buffered generously (≥ n + O(shards) slots) so a sender never
// blocks on a shard that is not currently draining; that capacity bound is
// what makes the protocol deadlock-free.

// op enumerates the orchestrator's commands.
type op int

const (
	// opMigrate: hand off owned nodes whose position left the stripe
	// (migrateMsg to the new owner), reply with per-target send counts.
	opMigrate op = iota
	// opAbsorb: take ownership of migrated-in nodes, predict the halo width
	// and reply with the desired window.
	opAbsorb
	// opServe: send each requesting shard the positions of owned nodes inside
	// its band (serveMsg), reply with per-target send counts.
	opServe
	// opMergeRefresh: wholesale window refresh — reconcile buffered serves
	// against the membership (add/update/remove), enforce the cache validity
	// invariant, rebuild the local network.
	opMergeRefresh
	// opMergeDelta: incorporate buffered serves for a window extension
	// (adds/updates only, no removal sweep) and widen the window.
	opMergeDelta
	// opComputeSync: compute outcomes for all owned nodes (or the pending
	// retry set) at start-of-round positions; reply with any halo deficit.
	opComputeSync
	// opTurn: Sequential order — run one node's turn (compute, and commit if
	// trusted); reply with the move or a halo deficit.
	opTurn
	// opCommit: apply the computed moves not yet applied, fold partial round
	// statistics.
	opCommit
	// opFinal: collect the owned nodes' final radii/polygons — the last
	// round's (reuse) or an out-of-round recomputation at the final
	// positions; reply them or a halo deficit.
	opFinal
)

// cmd is one orchestrator command. expect is the data-message fence (see
// package comment); the remaining fields are per-op payloads.
type cmd struct {
	op     op
	expect int64
	round  int // Step round (opCompute*/opTurn) or negative final tag (opFinal)
	// bands[r] is the x-band shard r requested, for opServe (the issuing
	// shard skips itself and empty bands).
	bands []xband
	// window is the granted window for opMergeRefresh/opMergeDelta.
	window xband
	// node is the global ID taking its turn (opTurn).
	node int
	// retry marks an opComputeSync/opFinal re-issue after a deficit was
	// served: only pending nodes recompute.
	retry bool
	// reuse marks an opFinal of a converged run whose last round ran on this
	// engine (not before a Resume): the last round's radii are final.
	reuse bool
}

// xband is a closed x-interval, clamped to the region's bounding box. ok
// distinguishes an absent band from a real one.
type xband struct {
	lo, hi float64
	ok     bool
}

// contains reports whether x lies in the band.
func (b xband) contains(x float64) bool { return b.ok && x >= b.lo && x <= b.hi }

// union widens b to cover o.
func (b xband) union(o xband) xband {
	if !o.ok {
		return b
	}
	if !b.ok {
		return o
	}
	if o.lo < b.lo {
		b.lo = o.lo
	}
	if o.hi > b.hi {
		b.hi = o.hi
	}
	return b
}

// reply is a shard's answer to one command.
type reply struct {
	shard int
	// sentTo[r] counts data messages this command sent to shard r
	// (opMigrate, opServe) — the orchestrator folds them into its fence
	// counters before issuing the next command to r.
	sentTo []int64
	// window is the shard's desired window (opAbsorb) or deficit request
	// (opComputeSync/opTurn/opFinal when pending work remains).
	window xband
	// stats is the shard's partial round fold (opCommit), and movedNodes
	// the moves it applied (opCommit, opTurn) for the orchestrator's position
	// mirror.
	stats      core.RoundStats
	movedNodes []movedPos
	// ids/vals/polys carry the finalization payloads (opFinal).
	ids   []int
	vals  []float64
	polys [][]geom.Polygon
	// msgs is the message cost charged by finalization recomputes
	// (opFinal).
	msgs int64
}

// movedPos is one applied move, in global IDs.
type movedPos struct {
	id  int
	new geom.Point
}

// dataMsg is a position batch delivered to a shard's inbox. Exactly three
// implementations exist: serveMsg, migrateMsg, posUpdateMsg.
type dataMsg interface{ isDataMsg() }

// serveMsg carries the positions of the sender's owned nodes inside a
// requested band — the ρ-halo exchange payload.
type serveMsg struct {
	ids []int // global IDs, ascending
	pos []geom.Point
}

// migrateMsg hands ownership of nodes whose position left the sender's
// stripe to the receiver. hints/reads carry each node's warm-start and
// read-radius history: the engine's rhoHint is deployment-global and follows
// the node wherever it roams, so the shard-local copy must travel with
// ownership — a recompute started from a stale hint walks a different probe
// sequence and breaks bit-identity in the last ulp.
type migrateMsg struct {
	ids   []int
	pos   []geom.Point
	hints []float64
	reads []float64
}

// posUpdateMsg propagates one Sequential mid-round committed move to shards
// whose window sees either endpoint. Routed by the orchestrator.
type posUpdateMsg struct {
	id       int
	old, new geom.Point
}

func (serveMsg) isDataMsg()     {}
func (migrateMsg) isDataMsg()   {}
func (posUpdateMsg) isDataMsg() {}

// HaloStats is the cumulative halo-exchange traffic of a sharded run: the
// metered cost of keeping the shards' windows coherent. msgs counts data
// messages (batches count once), bytes their serialized size (16 bytes of
// framing per message plus 24 per (id, x, y) entry, 40 for a posUpdate's
// id + both endpoints), exchanges the serve cycles (one per wholesale
// refresh, one per deficit extension).
type HaloStats struct {
	Msgs, Bytes, Exchanges int64
}

// haloCounters is the atomic store behind HaloStats; shards and the
// orchestrator increment it concurrently, metrics gauges read it live.
type haloCounters struct {
	msgs, bytes, exchanges atomic.Int64
}

func (h *haloCounters) batch(entries int) {
	h.msgs.Add(1)
	h.bytes.Add(16 + 24*int64(entries))
}

func (h *haloCounters) posUpdate() {
	h.msgs.Add(1)
	h.bytes.Add(16 + 40)
}

func (h *haloCounters) snapshot() HaloStats {
	return HaloStats{
		Msgs:      h.msgs.Load(),
		Bytes:     h.bytes.Load(),
		Exchanges: h.exchanges.Load(),
	}
}
