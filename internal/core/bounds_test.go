package core

import (
	"math/rand"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// Region-aware initial grid bounds: the engine seeds the spatial index with
// reg.BBox(), so a corner-start deployment that grows its position bounding
// box every round during the expansion phase never exits the grid bounds —
// the index absorbs every move incrementally and performs no rebuild after
// the initial build.
func TestRegionBoundsHintAvoidsExpansionRebuilds(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceCorner(reg, 100, 0.1, rand.New(rand.NewSource(5)))
	cfg := DefaultConfig(2)
	cfg.Order = Sequential // per-node incremental writes (no bulk-path rebuilds)
	cfg.Epsilon = 1e-4
	cfg.MaxRounds = 25
	cfg.Seed = 5
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step() // builds the index once
	base := eng.Network().Rebuilds()
	for r := 0; r < 20; r++ {
		if st, done := eng.Step(); done {
			t.Fatalf("converged at round %d; expansion phase should outlast the window", st.Round)
		}
	}
	if got := eng.Network().Rebuilds(); got != base {
		t.Errorf("expansion rounds forced %d grid rebuilds, want 0 (region-seeded bounds)", got-base)
	}
	if eng.Network().IncrementalMoves() == 0 {
		t.Error("no incremental index updates; moves did not go through the in-place path")
	}
}

// The out-of-band localization satellite: one external SetPosition between
// rounds of a converged large deployment invalidates only the entries whose
// exactness ball touches the changed cells — not the whole cache — and the
// engine records the local flush. Wholesale events (node removal, which
// renumbers) still fall back to the global flush.
func TestExternalWriteInvalidatesLocally(t *testing.T) {
	n := 2500
	start, pitch := wsn.UnitLattice(n, 0)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Epsilon = pitch / 10
	cfg.Seed = 9
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	converged := false
	for r := 0; r < 50 && !converged; r++ {
		_, converged = eng.Step()
	}
	if !converged {
		t.Fatal("lattice deployment did not converge; cannot measure locality")
	}

	// Teleport one node across the region behind the engine's back.
	eng.Network().SetPosition(7, geom.Pt(0.93, 0.91))
	hitsBefore := eng.CacheCounters().CacheHits
	eng.Step()
	c := eng.CacheCounters()
	if c.LocalFlushes != 1 {
		t.Fatalf("external write was not absorbed locally: %d local flushes", c.LocalFlushes)
	}
	// Locality: almost every entry must have survived (the write disturbs
	// two neighborhoods out of n nodes). Served-from-cache counts survivors.
	hits := c.CacheHits - hitsBefore
	if hits < uint64(n)*9/10 {
		t.Errorf("only %d/%d outcomes survived the external write; invalidation was not local", hits, n)
	}
	if hits == uint64(n) {
		t.Error("every entry survived; the rewritten neighborhoods were not invalidated")
	}

	// Renumbering keeps the wholesale path: RemoveNode drops the cache and
	// the next step must not count another local flush.
	if err := eng.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if got := eng.CacheCounters().LocalFlushes; got != 1 {
		t.Errorf("renumbering was treated as a local flush (%d total)", got)
	}
}

// The locally-invalidated engine must still be bit-identical to an eager
// engine subjected to the same external-write schedule — the existing
// equivalence test covers small n; this pins the large-n diff path.
func TestExternalWriteLocalFlushMatchesEager(t *testing.T) {
	n := 900
	start, pitch := wsn.UnitLattice(n, 8)
	reg := region.UnitSquareKm()
	run := func(disable bool) ([]RoundStats, *Result) {
		cfg := DefaultConfig(2)
		cfg.Epsilon = pitch / 20
		cfg.Seed = 3
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = disable
		for r := 0; r < 12; r++ {
			if r == 4 {
				eng.Network().SetPosition(11, geom.Pt(0.52, 0.48))
			}
			if r == 8 {
				eng.Network().SetPosition(n-5, geom.Pt(0.05, 0.93))
			}
			eng.Step()
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Trace(), res
	}
	eagerTrace, eagerRes := run(true)
	cachedTrace, cachedRes := run(false)
	assertIdentical(t, "local-flush", eagerTrace, cachedTrace, eagerRes, cachedRes)
}
