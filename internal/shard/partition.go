// Package shard implements the sharded LAACAD engine: the deployment region
// is partitioned into vertical cell stripes, each owned by a shard that runs
// core's per-node state (core.Stepper) over its own window wsn.Network; per
// round the orchestrator calls its shards phase by phase, and the sending
// phases deliver a ρ-halo of border positions into the receivers'
// mailboxes. It runs the paper's idealized iteration only — Synchronous
// order, Centralized mode, from a fresh start — and is bit-identical to the
// shared-memory core.Engine there — Positions, Trace and Radii — for every
// shard count and worker count, because every per-node computation routes
// through the same core state over a local window proven complete for the
// node's read ball (see worker.go for the trust rule).
package shard

import (
	"math"

	"laacad/internal/region"
)

// Partition divides the region's bounding-box x-range into s equal-width
// vertical stripes. Stripe i owns the half-open interval
// [Cut(i), Cut(i+1)) — except the last stripe, which also owns its upper
// edge — so every x maps to exactly one stripe. The mapping is a pure
// function of x, which is what makes ownership reproducible across shards,
// rounds and processes without coordination.
type Partition struct {
	s          int
	xmin, xmax float64
	width      float64
}

// NewPartition builds an s-stripe partition over reg's bounding box. s < 1
// is clamped to 1; a degenerate (zero-width) region collapses to one stripe.
func NewPartition(reg *region.Region, s int) Partition {
	if s < 1 {
		s = 1
	}
	b := reg.BBox()
	w := (b.Max.X - b.Min.X) / float64(s)
	if !(w > 0) {
		s, w = 1, b.Max.X-b.Min.X
	}
	return Partition{s: s, xmin: b.Min.X, xmax: b.Max.X, width: w}
}

// Shards returns the stripe count.
func (p Partition) Shards() int { return p.s }

// XRange returns the partitioned x-interval (the region bounding box's
// x-extent). Node positions are always clamped inside the region, so every
// node's x lies within it.
func (p Partition) XRange() (xmin, xmax float64) { return p.xmin, p.xmax }

// Shard maps an x-coordinate to its owning stripe, clamping coordinates
// outside the partitioned interval to the nearest edge stripe.
func (p Partition) Shard(x float64) int {
	if p.s <= 1 {
		return 0
	}
	k := int(math.Floor((x - p.xmin) / p.width))
	if k < 0 {
		return 0
	}
	if k >= p.s {
		return p.s - 1
	}
	return k
}

// Cut returns the i-th stripe boundary, i in [0, Shards()]: Cut(0) is the
// region's left edge, Cut(Shards()) the right.
func (p Partition) Cut(i int) float64 {
	if i <= 0 {
		return p.xmin
	}
	if i >= p.s {
		return p.xmax
	}
	return p.xmin + float64(i)*p.width
}

// Bounds returns stripe s's x-interval [Cut(s), Cut(s+1)].
func (p Partition) Bounds(s int) (lo, hi float64) { return p.Cut(s), p.Cut(s + 1) }
