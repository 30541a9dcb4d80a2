package shard

import (
	"sync/atomic"

	"laacad/internal/geom"
)

// Halo batches between shards. The sending phases (migrate, serve) run one
// shard at a time on the orchestrator's goroutine and append each non-empty
// batch straight into the receiver's mailbox (worker.rxMigrate,
// worker.rxServe), in ascending sender order; the next phase (absorb, merge)
// drains it. No mailbox is written and read in the same phase.

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

// serveMsg carries the positions of the sender's owned nodes inside a
// requested band — the ρ-halo exchange payload.
type serveMsg struct {
	ids []int // global IDs, ascending
	pos []geom.Point
}

// migrateMsg hands ownership of nodes whose position left the sender's
// stripe to the receiver. hints/reads carry each node's warm-start and
// read-radius history: the engine's hint (its cache entry's ρ) is
// deployment-global and follows the node wherever it roams, so the
// shard-local copy must travel with ownership — a recompute started from a
// stale hint walks a different probe sequence and breaks bit-identity in the
// last ulp.
type migrateMsg struct {
	ids   []int
	pos   []geom.Point
	hints []float64
	reads []float64
}

// HaloStats is the cumulative halo-exchange traffic of a sharded run: the
// metered cost of keeping the shards' windows coherent. msgs counts data
// messages (batches count once), bytes their serialized size (16 bytes of
// framing per message plus 24 per (id, x, y) entry, 40 for a posUpdate's
// id + both endpoints), exchanges the serve cycles (one per wholesale
// refresh, one per deficit extension).
type HaloStats struct {
	Msgs, Bytes, Exchanges int64
}

// haloCounters is the atomic store behind HaloStats; the orchestrator
// increments it while metrics gauges read it live.
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
