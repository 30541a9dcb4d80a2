package shard

import (
	"testing"

	"laacad/internal/core"
	"laacad/internal/region"
)

// TestHaloTrafficRhoBallBound asserts the metered halo traffic against the
// per-round ρ-ball bound the protocol is built on:
//
//   - Batch messages: migration and each serve cycle send at most one batch
//     per ordered shard pair, so a round's message count is bounded by
//     (1 + serve cycles) · S·(S−1) — independent of n.
//
//   - Batch entries: a serve cycle delivers to shard s at most the non-owned
//     nodes inside its granted window, and the window is by construction the
//     union of the shard's owned read balls (ρ-balls) clamped to the region —
//     so entry traffic is bounded by the nodes the ρ-balls actually reach
//     across stripe borders, plus the previous round's movers (migration).
func TestHaloTrafficRhoBallBound(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := core.DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 40
	start := uniformStart(40, 5)
	eng, err := New(reg, start, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	S := eng.Shards()
	prev := eng.HaloStats()
	prevMoved := 0
	for r := 1; r <= cfg.MaxRounds; r++ {
		startPos := eng.Positions() // the truth the round's serves transmit
		stats, done := eng.Step()
		cur := eng.HaloStats()
		dMsgs := cur.Msgs - prev.Msgs
		dBytes := cur.Bytes - prev.Bytes
		dExch := cur.Exchanges - prev.Exchanges
		if maxMsgs := (1 + dExch) * int64(S*(S-1)); dMsgs > maxMsgs {
			t.Fatalf("round %d: %d halo messages > structural bound %d (%d exchanges)", r, dMsgs, maxMsgs, dExch)
		}
		// Entries across all batches this round (16 bytes framing + 24 per
		// (id, x, y) entry).
		entries := (dBytes - 16*dMsgs) / 24
		var perCycle int64
		for s := 0; s < S; s++ {
			win := eng.windows[s]
			for g, p := range startPos {
				if eng.owner[g] != s && win.contains(p.X) {
					perCycle++
				}
			}
		}
		if bound := int64(prevMoved) + dExch*perCycle; entries > bound {
			t.Fatalf("round %d: %d halo entries > ρ-ball bound %d (%d non-owned window nodes × %d cycles + %d migrations)",
				r, entries, bound, perCycle, dExch, prevMoved)
		}
		prev = cur
		prevMoved = stats.Moved
		if done {
			return
		}
	}
}
