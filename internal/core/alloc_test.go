package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"laacad/internal/boundary"
	"laacad/internal/region"
)

// roundAllocs is what warmEngineAllocs measures for one engine: the
// allocations of one warm round and of one Finalize, each averaged over
// several calls.
type roundAllocs struct {
	step, finalize float64
}

// warmEngineAllocs builds an engine over n uniformly placed nodes in the
// given regime (γ scaled so a γ-ball holds the same number of nodes at every
// n), warms it into the requested phase — active (ε tiny, so every node
// keeps moving and every round recomputes every node) or converged — and
// measures a warm round. In the active phase it also measures an
// unconverged Finalize, which recomputes every region.
func warmEngineAllocs(t *testing.T, n int, mode Mode, order UpdateOrder, workers int, active bool) roundAllocs {
	t.Helper()
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, n, rand.New(rand.NewSource(int64(n))))
	cfg := DefaultConfig(2)
	cfg.Mode, cfg.Order, cfg.Workers = mode, order, workers
	cfg.Gamma = 3 / math.Sqrt(float64(n))
	cfg.Seed = int64(n)
	cfg.MaxRounds = 1 << 20
	cfg.Epsilon = 1e-2
	if active {
		cfg.Epsilon = 1e-12
	}
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if active {
		for r := 0; r < 5; r++ {
			eng.Step()
		}
	} else {
		converged := false
		for r := 0; r < 1000 && !converged; r++ {
			_, converged = eng.Step()
		}
		if !converged {
			t.Fatalf("n=%d did not converge", n)
		}
	}
	warmGoroutineCache()
	var got roundAllocs
	got.step = testing.AllocsPerRun(10, func() {
		st, done := eng.Step()
		if active && st.Moved != n {
			t.Fatalf("active round moved %d of %d nodes", st.Moved, n)
		}
		if !active && !done {
			t.Fatal("converged round moved a node")
		}
	})
	if active {
		got.finalize = testing.AllocsPerRun(3, func() {
			if _, err := eng.Finalize(); err != nil {
				t.Fatal(err)
			}
		})
		if mode == Localized {
			// Discount the whole-network boundary pass an unconverged
			// Localized Finalize runs first: its fresh scratch grows with
			// the largest one-hop degree, not with the regions.
			got.finalize -= testing.AllocsPerRun(3, func() {
				boundary.AngularGap{}.Boundary(eng.Network())
			})
		}
	}
	return got
}

// warmGoroutineCache starts and retires a few hundred goroutines, so the
// scheduler's free lists hold retired goroutine structs, as they do in any
// process that has run a while. The engine's fan-outs start their workers
// per fan-out; without this, a measurement early in the test binary's life
// would count the runtime allocating the first such structs.
func warmGoroutineCache() {
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 512; i++ {
		wg.Add(1)
		go func() {
			<-release
			wg.Done()
		}()
	}
	close(release)
	wg.Wait()
}

// A warm round allocates nothing per node, in every regime and at every
// worker count: its allocations are the same at n=100 and at n=400, in the
// active phase (every node recomputed and moved every round) and once
// converged (every node served from the cache). The ring probes write into
// the slot's Scratch, a grid rebuild reuses the index it replaces, every
// pool slot is warm after one round, and the fan-outs reuse one worker team
// and a fan-out body built once. An unconverged Finalize recomputes every
// region but measures R̂ on the slab, so beyond its boundary pass
// (Localized) it allocates only the Result: the same object count at both
// sizes.
func TestWarmRoundAllocsIndependentOfN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and warms 48 engines")
	}
	for _, mode := range []Mode{Centralized, Localized} {
		for _, order := range []UpdateOrder{Synchronous, Sequential} {
			for _, w := range []int{1, 2, 4} {
				for _, active := range []bool{true, false} {
					phase := "converged"
					if active {
						phase = "active"
					}
					t.Run(fmt.Sprintf("%v/%v/workers=%d/%s", mode, order, w, phase), func(t *testing.T) {
						small := warmEngineAllocs(t, 100, mode, order, w, active)
						large := warmEngineAllocs(t, 400, mode, order, w, active)
						if small.step != large.step {
							t.Errorf("a warm round allocates %v objects at n=100 and %v at n=400", small.step, large.step)
						}
						if small.finalize != large.finalize {
							t.Errorf("an unconverged Finalize allocates %v objects at n=100 and %v at n=400", small.finalize, large.finalize)
						}
						t.Logf("per round %v, per Finalize %v", large.step, large.finalize)
					})
				}
			}
		}
	}
}

// warmPool leaves every slot with the same capacities, at least the largest
// any slot had, and a second call allocates nothing: slots never keep
// outgrowing each other.
func TestWarmPoolSettles(t *testing.T) {
	var ns nodeState
	ns.ensurePool(4)
	for w, s := range ns.pool {
		s.nbrs = make([]int, 0, 10*(w+1))
		s.probe = make([]int, 0, 100-10*w)
		s.vor.Slab.XS = make([]float64, 0, 7*(w+3))
	}
	ns.warmPool()
	hw := ns.pool[0]
	if cap(hw.nbrs) < 40 || cap(hw.probe) < 100 || cap(hw.vor.Slab.XS) < 42 {
		t.Fatalf("slot 0 holds %d/%d/%d, below the largest slot's", cap(hw.nbrs), cap(hw.probe), cap(hw.vor.Slab.XS))
	}
	for w, s := range ns.pool {
		if cap(s.nbrs) != cap(hw.nbrs) || cap(s.probe) != cap(hw.probe) || cap(s.vor.Slab.XS) != cap(hw.vor.Slab.XS) {
			t.Errorf("slot %d holds %d/%d/%d, slot 0 %d/%d/%d", w, cap(s.nbrs), cap(s.probe), cap(s.vor.Slab.XS),
				cap(hw.nbrs), cap(hw.probe), cap(hw.vor.Slab.XS))
		}
	}
	if allocs := testing.AllocsPerRun(10, ns.warmPool); allocs != 0 {
		t.Errorf("warming a warm pool allocates %v objects", allocs)
	}
	ns.ensurePool(5)
	if s := ns.pool[4]; cap(s.nbrs) != cap(hw.nbrs) || cap(s.probe) != cap(hw.probe) {
		t.Errorf("a slot added to a warm pool holds %d/%d, slot 0 %d/%d", cap(s.nbrs), cap(s.probe), cap(hw.nbrs), cap(hw.probe))
	}
}
