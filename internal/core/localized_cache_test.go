package core

import (
	"fmt"
	"math/rand"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// assertSameMessages is assertIdentical plus the Localized acceptance
// criterion: the cached run's message accounting — total and per round (the
// trace comparison inside assertIdentical covers per-round) — must be
// exactly equal to the eager run's, not merely close.
func assertSameMessages(t *testing.T, label string, res1, res2 *Result) {
	t.Helper()
	if res1.Messages != res2.Messages {
		t.Errorf("%s: message totals differ: %d vs %d", label, res1.Messages, res2.Messages)
	}
	if res1.Messages == 0 {
		t.Errorf("%s: localized run charged no messages at all", label)
	}
}

// The message-faithful cache contract: across seeds, sizes, coverage orders,
// placements, ring modes, update orders and worker counts, a cached
// Localized run has a byte-identical trajectory AND exactly equal message
// accounting versus the eager engine (the cache forced off). Reuses re-charge the
// recorded search cost, so skipping the ring searches is invisible to the
// protocol's books.
func TestLocalizedCacheMatchesEager(t *testing.T) {
	reg := region.UnitSquareKm()
	type cell struct {
		seed      int64
		n, k      int
		placement string
	}
	cells := []cell{
		{1, 50, 1, "uniform"},
		{2, 120, 2, "uniform"},
		{3, 60, 2, "corner"}, // boundary flags flip as the pile spreads
	}
	orders := []UpdateOrder{Synchronous, Sequential}
	if testing.Short() {
		cells = cells[:1]
	}
	for _, c := range cells {
		for _, order := range orders {
			c, order := c, order
			// "ringmode=0" names the geometric ring query, the only one the
			// engine has; the segment keeps the cell names stable.
			name := fmt.Sprintf("seed=%d/n=%d/k=%d/%s/ringmode=0/%v", c.seed, c.n, c.k, c.placement, order)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(c.seed))
				var start []geom.Point
				if c.placement == "corner" {
					start = region.PlaceCorner(reg, c.n, 0.15, rng)
				} else {
					start = region.PlaceUniform(reg, c.n, rng)
				}
				cfg := DefaultConfig(c.k)
				cfg.Mode = Localized
				cfg.Gamma = 0.25
				cfg.Order = order
				cfg.Epsilon = 1e-3
				cfg.MaxRounds = 20
				cfg.Seed = c.seed
				eagerTrace, eagerRes := runEngine(t, reg, start, cfg, true)

				workerCounts := []int{0, 3}
				for _, w := range workerCounts {
					cfg.Workers = w
					cachedTrace, cachedRes := runEngine(t, reg, start, cfg, false)
					label := fmt.Sprintf("cache-on workers=%d", w)
					assertIdentical(t, label, eagerTrace, cachedTrace, eagerRes, cachedRes)
					assertSameMessages(t, label, eagerRes, cachedRes)
				}
			})
		}
	}
}

// In the few-movers regime the cache must actually skip ring searches: most
// nodes hit, the per-round message count stays exactly what the eager
// protocol charges (every reuse re-charges its recorded cost, so converged
// nodes still "pay" their searches), and the converged tail still reports a
// full complement of messages.
func TestLocalizedCacheReusesAndRecharges(t *testing.T) {
	n := 2500
	start, pitch := wsn.UnitLattice(n, 16)
	reg := region.UnitSquareKm()
	mk := func(disable bool) *Engine {
		cfg := DefaultConfig(2)
		cfg.Mode = Localized
		cfg.Gamma = 3 * pitch
		cfg.Epsilon = pitch / 50
		cfg.Seed = 1
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = disable
		return eng
	}
	eager, cached := mk(true), mk(false)
	rounds := 4
	for r := 0; r < rounds; r++ {
		se, _ := eager.Step()
		sc, _ := cached.Step()
		if se != sc {
			t.Fatalf("round %d stats diverge:\neager  %+v\ncached %+v", r+1, se, sc)
		}
		if sc.Messages == 0 {
			t.Fatalf("round %d charged no messages; re-charging broken", r+1)
		}
	}
	if got := cached.CacheCounters().CacheHits; got == 0 {
		t.Error("no cache hits in the few-movers regime")
	} else if got < uint64(n) {
		t.Errorf("only %d hits over %d rounds of %d nodes; cache barely engaged", got, rounds, n)
	}
	if eager.Network().MessageCount() != cached.Network().MessageCount() {
		t.Errorf("cumulative messages diverge: eager %d, cached %d",
			eager.Network().MessageCount(), cached.Network().MessageCount())
	}
}

// Regression: a RingCap below γ clamps the very first ring, so the search's
// own read radius is smaller than the γ-ball the boundary flag is derived
// from; the invalidation radius must be floored at γ or a neighbor moving
// inside (RingCap, γ) could flip a node's boundary status without touching
// its cached entry — and a cache hit never re-checks the flag.
func TestLocalizedCacheTinyRingCapMatchesEager(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceCorner(reg, 50, 0.2, rand.New(rand.NewSource(19)))
	run := func(disable bool) ([]RoundStats, *Result) {
		cfg := DefaultConfig(2)
		cfg.Mode = Localized
		cfg.Gamma = 0.3
		cfg.RingCap = 0.12 // below γ: every search is cap-clamped
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 15
		cfg.Seed = 19
		return runEngine(t, reg, start, cfg, disable)
	}
	eagerTrace, eagerRes := run(true)
	cachedTrace, cachedRes := run(false)
	assertIdentical(t, "tiny-ringcap", eagerTrace, cachedTrace, eagerRes, cachedRes)
	assertSameMessages(t, "tiny-ringcap", eagerRes, cachedRes)

	// The invariant itself, pinned directly (the trajectory comparison
	// above rarely manufactures the flag-flip-outside-tiny-ball race):
	// every cached entry's invalidation ball covers the γ-ball its
	// boundary flag was derived from. A near-steady lattice leaves most
	// entries valid after a round, so the check is not vacuous.
	lattice, pitch := wsn.UnitLattice(400, 4)
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Gamma = 3 * pitch
	cfg.RingCap = 1.2 * pitch // below γ: every search is cap-clamped
	cfg.Epsilon = pitch / 50
	cfg.Seed = 19
	eng, err := New(reg, lattice, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.Step()
	checked := 0
	for i := range eng.cache {
		if c := &eng.cache[i]; c.valid {
			checked++
			if c.rho < cfg.Gamma {
				t.Fatalf("entry %d has invalidation radius %v < γ=%v; boundary flag reads outside its ball",
					i, c.rho, cfg.Gamma)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no valid entries survived; the invariant check is vacuous")
	}
}

// Message loss makes outcomes per-round random, so the cache must disable
// itself: reusing last round's outcome would skip this round's loss draws.
func TestLocalizedLossDisablesCache(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 40, rand.New(rand.NewSource(7)))
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Gamma = 0.25
	cfg.LossRate = 0.1
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 6
	cfg.Seed = 7
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		eng.Step()
	}
	if hits := eng.CacheCounters().CacheHits; hits != 0 {
		t.Errorf("lossy localized run served %d outcomes from cache; loss draws were skipped", hits)
	}
}

// Out-of-band position writes must stay correct in Localized mode too: the
// wholesale flush drops every entry whose search could have read the
// rewritten position, and the message accounting still matches the eager
// run subjected to the same schedule.
func TestLocalizedCacheSurvivesExternalWrite(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 60, rand.New(rand.NewSource(13)))
	run := func(disable bool) ([]RoundStats, *Result) {
		cfg := DefaultConfig(2)
		cfg.Mode = Localized
		cfg.Gamma = 0.25
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 15
		cfg.Seed = 13
		eng, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.eager = disable
		for r := 0; r < cfg.MaxRounds; r++ {
			if r == 5 {
				eng.Network().SetPosition(3, geom.Pt(0.05, 0.95))
			}
			if _, done := eng.Step(); done {
				break
			}
		}
		res, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Trace(), res
	}
	eagerTrace, eagerRes := run(true)
	cachedTrace, cachedRes := run(false)
	assertIdentical(t, "external-write", eagerTrace, cachedTrace, eagerRes, cachedRes)
	assertSameMessages(t, "external-write", eagerRes, cachedRes)
}
