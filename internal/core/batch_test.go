package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/voronoi/oracle"
	"laacad/internal/wsn"
)

// The kernel contract, checked per state: the SoA pipeline (incremental rel
// slabs, lazy bisector memos, slab-resident clipping, warm start) is
// semantically invisible. A live engine runs each cell; at every state it
// computes from — each round start, plus each Sequential turn via
// commitHook — every node about to compute from that state is stepped twice
// over a mirror of the positions: through the production entry point with the
// engine's own warm start, and through the scalar reference pipeline from the
// fallback start. The region polygons, Chebyshev center, Ri, R̂, next
// position and Localized message cost must agree bit for bit.
func TestBatchKernelMatchesScalarEngine(t *testing.T) {
	square, obstacles := region.UnitSquareKm(), region.SquareWithTwoObstacles()
	cells := []struct {
		seed int64
		n, k int
		// corner piles the start into a corner: the sparse expansion front
		// makes the Centralized search double past its first radius, which
		// exercises the incremental rel-slab appends.
		corner bool
		// obstacles runs on the 44-piece two-obstacle square instead of the
		// 2-piece unit square, so the kernel culls k-dominated pieces that
		// the scalar oracle walks.
		obstacles bool
	}{{1, 60, 2, false, false}, {2, 150, 3, false, false}, {3, 90, 1, false, false}, {4, 80, 2, true, false}, {5, 120, 2, false, true}}
	modes := []Mode{Centralized, Localized}
	orders := []UpdateOrder{Synchronous, Sequential}
	if testing.Short() {
		cells = append(cells[:1], cells[3])
	}
	for _, cell := range cells {
		for _, mode := range modes {
			for _, order := range orders {
				cell, mode, order := cell, mode, order
				name := fmt.Sprintf("seed=%d/n=%d/k=%d", cell.seed, cell.n, cell.k)
				if cell.corner {
					name += "-corner"
				}
				reg := square
				if cell.obstacles {
					name += "-obstacles"
					reg = obstacles
				}
				t.Run(fmt.Sprintf("%s/%v/%v", name, mode, order), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(cell.seed))
					start := region.PlaceUniform(reg, cell.n, rng)
					if cell.corner {
						start = region.PlaceCorner(reg, cell.n, 0.1, rng)
					}
					cfg := DefaultConfig(cell.k)
					cfg.Epsilon = 1e-3
					cfg.MaxRounds = 40
					cfg.Seed = cell.seed
					cfg.Mode = mode
					cfg.Order = order
					cfg.Workers = 3 // Sequential rounds speculate, so hints move mid-round
					eng, err := New(reg, start, cfg)
					if err != nil {
						t.Fatal(err)
					}
					st, err := NewStepper(reg, cell.n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					net := wsn.New(eng.Positions(), eng.Network().Gamma())
					st.SetNetwork(net)
					kernelS, scalarS := NewScratch(), NewScratch()
					var ref oracle.Scratch
					var flags []bool
					states := 0
					check := func(i int) {
						states++
						b := flags != nil && flags[i]
						hint := eng.cache[i].rho // the engine's warm start; 0 before round 1
						got := kernelStep(st, i, hint, b, kernelS)
						want := scalarStep(&st.nodeState, i, b, scalarS, &ref)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d node %d: SoA kernel %+v, scalar oracle %+v",
								eng.Round()+1, i, got, want)
						}
					}
					eng.commitHook = func(i int) {
						net.SetPosition(i, eng.Network().Position(i))
						if i+1 < cell.n {
							check(i + 1)
						}
					}
					for r := 0; r < cfg.MaxRounds; r++ {
						net.SetPositions(eng.Positions())
						if mode == Localized {
							flags = st.Detector().Boundary(net)
						}
						for i := 0; i < cell.n; i++ {
							check(i)
						}
						if _, done := eng.Step(); done {
							break
						}
					}
					if states == 0 {
						t.Fatal("no state was checked")
					}
				})
			}
		}
	}
}

// The warm-start property behind the batch engine's steady-state win: the
// expanding exactness search returns a bit-identical region no matter where
// it starts. Starting at the node's last exactness radius (or far beyond the
// final radius) skips early doublings but cannot change the survivors —
// generators beyond the pruning bound leave the clipping walk untouched, and
// the exactness predicate 2·R̂ ≤ ρ is start-independent. Verified directly
// against the fallback start after the engine has populated its hints.
func TestHintStartMatchesFallbackStart(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, cell := range []struct {
		seed int64
		n, k int
	}{{7, 120, 2}, {8, 200, 3}} {
		cell := cell
		t.Run(fmt.Sprintf("seed=%d/n=%d/k=%d", cell.seed, cell.n, cell.k), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(cell.seed))
			start := region.PlaceUniform(reg, cell.n, rng)
			cfg := DefaultConfig(cell.k)
			cfg.Epsilon = 1e-3
			cfg.Seed = cell.seed
			eng, err := New(reg, start, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 6; r++ {
				eng.Step()
			}
			eng.Network().Rebuild()
			s := NewScratch()
			for i := 0; i < cell.n; i++ {
				refs, _, rhat0 := centralizedRegionSoA(eng.Network(), reg, i, cfg.K, 0, s)
				fallback := voronoi.CompactRefs(&s.vor.Slab, refs)
				for _, hint := range []float64{eng.cache[i].rho, eng.cache[i].rho * 8} {
					refs, _, rhat := centralizedRegionSoA(eng.Network(), reg, i, cfg.K, hint, s)
					warm := voronoi.CompactRefs(&s.vor.Slab, refs)
					if !reflect.DeepEqual(fallback, warm) {
						t.Fatalf("node %d: region differs for start radius %v", i, hint)
					}
					if rhat != rhat0 {
						t.Fatalf("node %d: rhat %v for start radius %v, fallback start %v",
							i, rhat, hint, rhat0)
					}
				}
			}
		})
	}
}

// The batch kernel must actually be live: an engine computes its regions on
// the SoA pipeline, so BatchNodes advances.
func TestBatchKernelEngages(t *testing.T) {
	reg := region.UnitSquareKm()
	start := region.PlaceUniform(reg, 50, rand.New(rand.NewSource(11)))
	cfg := DefaultConfig(2)
	cfg.Epsilon = 1e-3
	cfg.Seed = 11
	eng, err := New(reg, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if got := eng.CacheCounters().BatchNodes; got != 50 {
		t.Errorf("first round computed %d nodes on the batch kernel, want 50", got)
	}
}
