package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// The colored-sweep contract: a Sequential round executed with speculation
// waves is bit-identical — same per-round trace, same fixed point, same
// radii — to the one-worker Gauss–Seidel sweep, for every worker count.
// This is the equivalence half of the tentpole's acceptance criteria; the
// wave-independence property test below pins the scheduling invariant.
func TestColoredSequentialMatchesSerial(t *testing.T) {
	reg := region.UnitSquareKm()
	seeds := []int64{1, 2, 3}
	sizes := []int{40, 150}
	ks := []int{1, 2, 3}
	if testing.Short() {
		seeds, sizes, ks = []int64{1}, []int{40}, []int{2}
	}
	workerCounts := []int{2, 4, 8}
	for _, seed := range seeds {
		for _, n := range sizes {
			for _, k := range ks {
				seed, n, k := seed, n, k
				t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d", seed, n, k), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(seed))
					start := region.PlaceUniform(reg, n, rng)
					cfg := DefaultConfig(k)
					cfg.Order = Sequential
					cfg.Epsilon = 1e-3
					cfg.MaxRounds = 40 // active phase and converged tail
					cfg.Seed = seed
					trace1, res1 := runWorkers(t, reg, start, cfg, 1)
					for _, w := range workerCounts {
						traceW, resW := runWorkers(t, reg, start, cfg, w)
						assertIdentical(t, fmt.Sprintf("workers=%d", w), trace1, traceW, res1, resW)
					}
				})
			}
		}
	}
}

// The same contract at production scale: a 1k uniform deployment and a 10k
// few-movers lattice, swept with every worker count of the acceptance
// matrix. Gated behind -short because the serial reference pass at 10k is
// the expensive part.
func TestColoredSequentialMatchesSerialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large colored-sweep matrix skipped in -short")
	}
	reg := region.UnitSquareKm()
	cases := []struct {
		name   string
		start  []geom.Point
		eps    float64
		rounds int
	}{}
	start1k := region.PlaceUniform(reg, 1000, rand.New(rand.NewSource(17)))
	cases = append(cases, struct {
		name   string
		start  []geom.Point
		eps    float64
		rounds int
	}{"n=1000/uniform", start1k, 1e-3, 8})
	start10k, pitch := wsn.UnitLattice(10000, 64)
	cases = append(cases, struct {
		name   string
		start  []geom.Point
		eps    float64
		rounds int
	}{"n=10000/lattice", start10k, pitch / 50, 5})
	// Every node displaced: the dense-mover phase, where the dirty set is
	// the whole network and the interference DAG is at its deepest — the
	// hardest cell for the level scheduler's trigger bookkeeping.
	startDense, dpitch := wsn.UnitLattice(2500, 2500)
	cases = append(cases, struct {
		name   string
		start  []geom.Point
		eps    float64
		rounds int
	}{"n=2500/dense-movers", startDense, dpitch / 50, 6})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Order = Sequential
			cfg.Epsilon = tc.eps
			cfg.MaxRounds = tc.rounds
			cfg.Seed = 17
			trace1, res1 := runWorkers(t, reg, tc.start, cfg, 1)
			for _, w := range []int{2, 4, 8} {
				traceW, resW := runWorkers(t, reg, tc.start, cfg, w)
				assertIdentical(t, fmt.Sprintf("workers=%d", w), trace1, traceW, res1, resW)
			}
		})
	}
}

// The scheduling invariant behind the level-scheduled sweep: no two members
// of one wave interfere under the predicted radii — otherwise one member's
// commit could invalidate another member mid-wave. The wave is the ready
// prefix of the trigger-sorted queue, so the invariant decomposes into a
// plan-time property (if mover a disturbs b, then b's trigger sits past a —
// checked by schedHook while the disturber marks are live) and a launch-time
// structural property (every popped node is at or past the scan position —
// checked by waveHook): together they imply that a disturber of any popped
// node has already committed or is not yet popped, because both a and b in
// one wave at scan i means trigger(b) ≤ i < a+1 ≤ trigger(b), a
// contradiction.
func TestWaveClassPairwiseIndependent(t *testing.T) {
	reg := region.UnitSquareKm()
	start, pitch := wsn.UnitLattice(900, 12)
	cfg := DefaultConfig(2)
	cfg.Order = Sequential
	cfg.Epsilon = pitch / 50 // few-movers regime: waves engage every round
	cfg.MaxRounds = 8
	cfg.Seed = 31
	cfg.Workers = 4
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans, launches := 0, 0
	eng.schedHook = func(keys []int64) {
		plans++
		fb := eng.hintFallback()
		ids := make([]int, 0, len(keys))
		trig := make(map[int]int, len(keys))
		for _, key := range keys {
			id := int(key & 0xffffffff)
			ids = append(ids, id)
			trig[id] = int(key >> 32)
		}
		sort.Ints(ids)
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				a, b := ids[x], ids[y]
				if eng.interferes(a, b, eng.hintOf(b, fb), fb) && trig[b] <= a {
					t.Errorf("plan %d: %d disturbs %d but trigger %d does not wait for it",
						plans, a, b, trig[b])
				}
			}
		}
	}
	eng.waveHook = func(from int, sel []int) {
		launches++
		seen := make(map[int]bool, len(sel))
		for _, j := range sel {
			if j < from {
				t.Errorf("launch %d at scan %d includes already-committed node %d", launches, from, j)
			}
			if seen[j] {
				t.Errorf("launch %d: node %d popped twice", launches, j)
			}
			seen[j] = true
		}
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		if _, done := eng.Step(); done {
			break
		}
	}
	if plans == 0 || launches == 0 {
		t.Fatalf("level schedule never engaged: %d plans, %d launches", plans, launches)
	}
}

// Mover-heavy rounds must no longer fall back to serial: with a quarter of
// a lattice displaced every round's dirty set is large and mover-dense, the
// regime where the old fixed per-round wave budget (8 waves, dud latch)
// stopped speculating almost immediately. The level schedule keeps waves
// flowing — layers are laid out every planned round and the waves fill a
// meaningful share of the recomputed set.
func TestSeqLevelsEngageMoverHeavy(t *testing.T) {
	n := 2500
	start, pitch := wsn.UnitLattice(n, n/4)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Order = Sequential
	cfg.Epsilon = pitch / 50
	cfg.Seed = 7
	cfg.Workers = 4
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step() // cold round: the whole network computes, nothing is marked yet
	base := eng.CacheCounters()
	movedTotal := 0
	for r := 0; r < 6; r++ {
		st, done := eng.Step()
		movedTotal += st.Moved
		if done {
			break
		}
	}
	c := eng.CacheCounters()
	if movedTotal < n/8 {
		t.Fatalf("scenario not mover-heavy: %d moves over %d nodes", movedTotal, n)
	}
	if c.Levels == base.Levels {
		t.Fatal("no level schedule was laid out in mover-heavy rounds")
	}
	if c.LevelWidthMax < 2 {
		t.Fatalf("waves never got wider than %d: mover-heavy rounds ran serially", c.LevelWidthMax)
	}
	if spec := c.SpecComputed - base.SpecComputed; spec*4 < uint64(movedTotal) {
		t.Errorf("waves filled only %d of %d mover-heavy recomputations: rounds fell back to serial",
			spec, movedTotal)
	}
	if c.SpecUsed+c.SpecWasted != c.SpecComputed {
		t.Errorf("speculation accounting leaks: computed=%d used=%d wasted=%d",
			c.SpecComputed, c.SpecUsed, c.SpecWasted)
	}
}

// The perf mechanism must actually engage and pay off: in the few-movers
// regime the waves precompute the dirty set and the serial loop consumes
// almost all of it; every speculated entry is either consumed (and charged)
// or dropped uncharged — the accounting identity the Localized message
// faithfulness rests on.
func TestSequentialSpeculationEngages(t *testing.T) {
	n := 2500
	start, pitch := wsn.UnitLattice(n, 16)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Order = Sequential
	cfg.Epsilon = pitch / 50
	cfg.Seed = 1
	cfg.Workers = 4
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		eng.Step()
	}
	c := eng.CacheCounters()
	if c.Waves == 0 || c.SpecComputed == 0 {
		t.Fatalf("speculation never engaged: %+v", c)
	}
	if c.SpecUsed+c.SpecWasted != c.SpecComputed {
		t.Errorf("speculation accounting leaks: computed=%d used=%d wasted=%d",
			c.SpecComputed, c.SpecUsed, c.SpecWasted)
	}
	if c.SpecUsed*2 < c.SpecComputed {
		t.Errorf("speculation mostly wasted: used %d of %d", c.SpecUsed, c.SpecComputed)
	}
}

// Workers on a Sequential engine must not leak into results — the colored
// sweep is pure speedup. (Kept from the pre-colored engine, where Sequential
// ignored Workers outright; the invariant is the same, the mechanism is now
// speculation + validation instead of ignoring the knob.)
func TestSequentialMessageAccountingUnderWaves(t *testing.T) {
	// Localized + Sequential + waves is the hardest cell: a speculative
	// entry's ring-search cost is charged only when its node's turn consumes
	// it, so Messages must come out exactly equal to the serial sweep's, per
	// round and in total. The second cell is dense enough that waves launch
	// and drop entries; it asserts so, or it would test nothing.
	reg := region.UnitSquareKm()
	cells := []struct {
		n          int
		seed       int64
		gamma      float64
		rounds     int
		workers    []int
		speculates bool
	}{
		{n: 80, seed: 41, gamma: 0.25, rounds: 12, workers: []int{2, 4, 8}},
		{n: 200, seed: 3, gamma: 0.1, rounds: 6, workers: []int{4}, speculates: true},
	}
	for _, cell := range cells {
		start := region.PlaceUniform(reg, cell.n, rand.New(rand.NewSource(cell.seed)))
		cfg := DefaultConfig(2)
		cfg.Order = Sequential
		cfg.Mode = Localized
		cfg.Gamma = cell.gamma
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = cell.rounds
		cfg.Seed = cell.seed
		trace1, res1 := runWorkers(t, reg, start, cfg, 1)
		for _, w := range cell.workers {
			label := fmt.Sprintf("n=%d/workers=%d", cell.n, w)
			wcfg := cfg
			wcfg.Workers = w
			eng, err := New(reg, start, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < cfg.MaxRounds; r++ {
				if _, done := eng.Step(); done {
					break
				}
			}
			resW, err := eng.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label, trace1, eng.Trace(), res1, resW)
			if res1.Messages != resW.Messages {
				t.Errorf("%s: message totals differ: %d vs %d", label, res1.Messages, resW.Messages)
			}
			if c := eng.CacheCounters(); cell.speculates && (c.Waves == 0 || c.SpecWasted == 0) {
				t.Errorf("%s: cell no longer speculates: Waves=%d SpecComputed=%d SpecWasted=%d",
					label, c.Waves, c.SpecComputed, c.SpecWasted)
			}
		}
	}
}
