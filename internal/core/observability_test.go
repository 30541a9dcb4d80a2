package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"laacad/internal/boundary"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/wsn"
)

// The exactness matrix for mid-round observability: at EVERY serial commit
// of a Sequential Localized sweep — the finest-grained observation points
// the engine has — the externally visible message total must equal the
// eager (cache-off, serial) engine's total at the same commit and never
// decrease. This is the end-to-end contract of
// metered searches charged at the node's turn: speculation and caching are
// invisible not just at round boundaries but at every instant in between.
func TestMidRoundAccountingExactness(t *testing.T) {
	reg := region.UnitSquareKm()
	cells := []struct {
		n       int
		seed    int64
		gamma   float64
		rounds  int
		workers []int
		// speculates marks a cell dense enough that the colored sweep
		// launches waves and drops some of their entries. The cell asserts
		// it, so it cannot silently stop exercising the speculative path.
		speculates bool
	}{
		{n: 60, seed: 1, gamma: 0.25, rounds: 8, workers: []int{1, 2, 8}},
		{n: 60, seed: 42, gamma: 0.25, rounds: 8, workers: []int{1, 2, 8}},
		{n: 200, seed: 3, gamma: 0.1, rounds: 6, workers: []int{4}, speculates: true},
	}
	for _, cell := range cells {
		start := region.PlaceUniform(reg, cell.n, rand.New(rand.NewSource(cell.seed)))
		cfg := DefaultConfig(2)
		cfg.Mode = Localized
		cfg.Order = Sequential
		cfg.Gamma = cell.gamma
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = cell.rounds
		cfg.Seed = cell.seed

		// Eager reference: serial, cache off, each search charged the moment
		// it runs. Record the message prefix after every commit.
		eager, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eager.eager = true
		var want [][]int64
		var cur []int64
		eager.commitHook = func(int) {
			cur = append(cur, eager.Network().MessageCount())
		}
		for r := 0; r < cfg.MaxRounds; r++ {
			eager.Step()
			want = append(want, cur)
			cur = nil
		}

		for _, workers := range cell.workers {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", cell.seed, workers), func(t *testing.T) {
				wcfg := cfg
				wcfg.Workers = workers
				eng, err := New(reg, start, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				round := 0
				prev := int64(-1)
				eng.commitHook = func(i int) {
					got := eng.Network().MessageCount()
					if got < prev {
						t.Fatalf("round %d commit %d: total went backwards (%d after %d)",
							round+1, i, got, prev)
					}
					prev = got
					if got != want[round][i] {
						t.Fatalf("round %d commit %d: visible total %d, eager charged %d",
							round+1, i, got, want[round][i])
					}
				}
				for r := 0; r < cfg.MaxRounds; r++ {
					round = r
					eng.Step()
				}
				if c := eng.CacheCounters(); cell.speculates && (c.Waves == 0 || c.SpecWasted == 0) {
					t.Fatalf("cell no longer speculates: Waves=%d SpecComputed=%d SpecWasted=%d",
						c.Waves, c.SpecComputed, c.SpecWasted)
				}
			})
		}
	}
}

// The Synchronous Localized fan-out charges from worker goroutines
// concurrently; a sampler hammering MessageCount during the run must only
// ever see a monotone total (run under -race in CI).
func TestMidRoundStatsUnderSynchronousFanout(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 120, rand.New(rand.NewSource(7)))
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Order = Synchronous
	cfg.Gamma = 0.25
	cfg.Epsilon = 1e-3
	cfg.Workers = 8
	cfg.Seed = 7
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := eng.Network().MessageCount()
			if got < prev {
				select {
				case errs <- fmt.Sprintf("non-monotone: %d after %d", got, prev):
				default:
				}
				return
			}
			prev = got
		}
	}()
	for r := 0; r < 6; r++ {
		eng.Step()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if eng.Network().MessageCount() == 0 {
		t.Fatal("localized run charged no messages")
	}
}

// Steady-state rounds must not pay an O(n) boundary scan: the incremental
// flag cache re-evaluates only nodes whose γ-ball a move disturbed. The
// cold round evaluates everyone once; settled few-mover rounds evaluate
// O(disturbed); fully converged rounds evaluate nobody.
func TestSteadyStateRoundsSkipBoundaryScan(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2500
	}
	start, pitch := wsn.UnitLattice(n, 16)
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Order = Sequential
	cfg.Gamma = 3 * pitch
	cfg.Epsilon = pitch / 50
	cfg.Seed = 1
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if got := eng.CacheCounters().FlagEvals; got != uint64(n) {
		t.Fatalf("cold round evaluated %d flags, want exactly %d", got, n)
	}
	// Settle into the few-movers regime.
	for r := 0; r < 30; r++ {
		if st, done := eng.Step(); done || st.Moved <= n/128 {
			break
		}
	}
	before := eng.CacheCounters().FlagEvals
	movedTotal := 0
	for r := 0; r < 5; r++ {
		st, done := eng.Step()
		movedTotal += st.Moved
		if done {
			break
		}
	}
	evals := eng.CacheCounters().FlagEvals - before
	dense := uint64(5) * uint64(n)
	if evals*4 > dense {
		t.Errorf("few-mover rounds evaluated %d flags over %d movers (a wholesale scan costs %d): not incremental",
			evals, movedTotal, dense)
	}

	// Fully converged: zero evaluations per round.
	ccfg := cfg
	ccfg.Epsilon = reg.BBox().Diagonal()
	conv, err := New(reg, start, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := conv.Step(); !done {
		t.Fatal("expected immediate convergence")
	}
	base := conv.CacheCounters().FlagEvals
	for r := 0; r < 3; r++ {
		conv.Step()
	}
	if got := conv.CacheCounters().FlagEvals; got != base {
		t.Errorf("converged rounds evaluated %d boundary flags, want 0", got-base)
	}
}

// The incremental flag cache must be semantically invisible: every round's
// flags equal a wholesale evaluation of the detector at the start-of-round
// positions, and the cached engine walks the eager (cache-off) engine's
// trajectory with identical accounting.
func TestFlagCacheMatchesWholesaleDetection(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, order := range []UpdateOrder{Sequential, Synchronous} {
		start := region.PlaceUniform(reg, 70, rand.New(rand.NewSource(23)))
		cfg := DefaultConfig(2)
		cfg.Mode = Localized
		cfg.Order = order
		cfg.Gamma = 0.25
		cfg.Epsilon = 1e-3
		cfg.MaxRounds = 10
		cfg.Seed = 23

		eager, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eager.eager = true
		cached, err := New(reg, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cfg.MaxRounds; r++ {
			want := boundary.AngularGap{}.Boundary(cached.Network())
			se, de := eager.Step()
			sc, dc := cached.Step()
			if !slices.Equal(cached.boundary, want) {
				t.Fatalf("order %v round %d: cached flags differ from a wholesale evaluation", order, r+1)
			}
			if se != sc || de != dc {
				t.Fatalf("order %v round %d: stats diverge\neager:  %+v\ncached: %+v", order, r+1, se, sc)
			}
		}
		for i, p := range cached.Positions() {
			if p != eager.Positions()[i] {
				t.Fatalf("order %v: trajectories diverged at node %d", order, i)
			}
		}
	}
}

// A RemoveNode followed by an AddNode keeps the node count but renumbers the
// nodes: the removal carries the cached boundary flags into the new
// numbering and marks the flags whose γ-ball holds the removed position, and
// the insertion leaves every flag due for repair. The next round's flags
// must equal a wholesale evaluation.
func TestFlagCacheAfterRemoveAdd(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 80, rand.New(rand.NewSource(5)))
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Gamma = 0.25
	cfg.Epsilon = 2e-2
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.MaxRounds; r++ {
		if _, done := eng.Step(); done {
			break
		}
	}
	if err := eng.RemoveNode(0); err != nil {
		t.Fatal(err)
	}
	eng.AddNode(geom.Pt(0.01, 0.01))
	want := boundary.AngularGap{}.Boundary(eng.Network())
	eng.Step()
	if !slices.Equal(eng.boundary, want) {
		t.Fatal("boundary flags after RemoveNode+AddNode differ from a wholesale evaluation")
	}
}
