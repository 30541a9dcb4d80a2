package wsn

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"laacad/internal/geom"
)

// TestIncrementalGridMatchesRebuildUnderChurn is the contract of the
// incremental index: under randomized interleaved move/add/remove/query
// sequences, every query answers identically — including order, which is
// canonical ascending — to a network freshly rebuilt from scratch over the
// same positions. Moves occasionally land far outside the grid bounds to
// exercise the rebuild fallback, and same-position writes exercise the
// no-op path.
func TestIncrementalGridMatchesRebuildUnderChurn(t *testing.T) {
	trials := 25
	ops := 120
	if testing.Short() {
		trials, ops = 8, 50
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < trials; trial++ {
		gamma := 0.03 + rng.Float64()*0.2
		live := make([]geom.Point, 20+rng.Intn(80))
		for i := range live {
			live[i] = geom.Pt(rng.Float64(), rng.Float64())
		}
		inc := New(live, gamma)
		inc.Rebuild()
		var incBuf, freshBuf []int
		for op := 0; op < ops; op++ {
			switch rng.Intn(8) {
			case 0, 1, 2: // local move
				i := rng.Intn(len(live))
				p := geom.Pt(rng.Float64(), rng.Float64())
				inc.SetPosition(i, p)
				live[i] = p
			case 3: // far move: exits the grid bounds, forcing a rebuild
				i := rng.Intn(len(live))
				p := geom.Pt(5+rng.Float64(), -3+rng.Float64())
				inc.SetPosition(i, p)
				live[i] = p
			case 4: // no-op write
				i := rng.Intn(len(live))
				inc.SetPosition(i, live[i])
			case 5: // add
				p := geom.Pt(rng.Float64(), rng.Float64())
				if id := inc.AddNode(p); id != len(live) {
					t.Fatalf("trial %d op %d: AddNode returned id %d, want %d", trial, op, id, len(live))
				}
				live = append(live, p)
			case 6: // remove (renumbering)
				if len(live) > 5 {
					i := rng.Intn(len(live))
					inc.RemoveNode(i)
					live = append(live[:i], live[i+1:]...)
				}
			}
			if inc.Len() != len(live) {
				t.Fatalf("trial %d op %d: length %d, want %d", trial, op, inc.Len(), len(live))
			}

			fresh := New(live, gamma)
			fresh.Rebuild()
			i := rng.Intn(len(live))
			rho := rng.Float64() * 1.2

			got := inc.NeighborsWithin(i, rho)
			want := fresh.NeighborsWithin(i, rho)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d op %d: NeighborsWithin(%d, %v) incremental %v != rebuild %v",
					trial, op, i, rho, got, want)
			}
			var gotCost, wantCost int64
			incBuf, gotCost = inc.RingQuery(i, rho, incBuf)
			freshBuf, wantCost = fresh.RingQuery(i, rho, freshBuf)
			if !slices.Equal(incBuf, freshBuf) || gotCost != wantCost {
				t.Fatalf("trial %d op %d: RingQuery(%d, %v) incremental %v (cost %d) != rebuild %v (cost %d)",
					trial, op, i, rho, incBuf, gotCost, freshBuf, wantCost)
			}
		}
	}
}

// A single in-bounds move must be absorbed incrementally: no full rebuild
// and no new grid generation; only a move off the grid rebuilds.
func TestIncrementalMoveAvoidsRebuild(t *testing.T) {
	var pos []geom.Point
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			pos = append(pos, geom.Pt(float64(x)*0.1+0.05, float64(y)*0.1+0.05))
		}
	}
	net := New(pos, 0.05)
	net.Rebuild()
	if got := net.Rebuilds(); got != 1 {
		t.Fatalf("after explicit Rebuild: %d rebuilds, want 1", got)
	}
	to := geom.Pt(0.52, 0.57)
	genA := net.GridShape().Gen

	net.SetPosition(0, to)

	if genB := net.GridShape().Gen; genA != genB {
		t.Errorf("in-bounds move changed the grid generation: %d -> %d", genA, genB)
	}
	if net.Rebuilds() != 1 {
		t.Errorf("in-bounds move triggered a full rebuild (%d total)", net.Rebuilds())
	}
	if net.IncrementalMoves() != 1 {
		t.Errorf("expected 1 incremental move, got %d", net.IncrementalMoves())
	}

	// A same-position write is a no-op end to end.
	v := net.Version()
	net.SetPosition(0, to)
	if net.Version() != v || net.IncrementalMoves() != 1 {
		t.Error("same-position write must be a no-op")
	}

	// A move outside the grid bounds falls back to a full rebuild.
	net.SetPosition(0, geom.Pt(40, 40))
	net.NeighborsWithin(0, 0.1) // lazy rebuild happens on the next query
	if net.Rebuilds() != 2 {
		t.Errorf("out-of-bounds move should force one rebuild, counter at %d", net.Rebuilds())
	}
	if gen := net.GridShape().Gen; gen != genA+1 {
		t.Errorf("rebuild should bump the generation: %d -> %d", genA, gen)
	}
}

// Removal renumbers the live index in place: after each removal of a random
// ID, every cell bucket equals what a counting-sort build over the same cell
// geometry produces (the surviving IDs, renumbered, ascending), every
// NeighborsWithinBuf and RingQuery answer equals a freshly built network's,
// and neither a full rebuild nor a new grid generation happened.
func TestRemoveRenumbersIndexInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		gamma := 0.05 + rng.Float64()*0.15
		live := make([]geom.Point, 60+rng.Intn(140))
		for i := range live {
			live[i] = geom.Pt(rng.Float64(), rng.Float64())
		}
		net := New(live, gamma)
		net.Rebuild()
		rebuilds, gen := net.Rebuilds(), net.GridShape().Gen
		var buf, ringBuf, freshBuf []int
		for len(live) > 10 {
			i := rng.Intn(len(live))
			net.RemoveNode(i)
			live = append(live[:i], live[i+1:]...)

			g := net.idx
			want := make([][]int32, len(g.cells))
			for j, p := range live {
				c := g.cellIndex(p)
				want[c] = append(want[c], int32(j))
				if int(g.nodeCell[j]) != c {
					t.Fatalf("trial %d: node %d recorded in cell %d, lies in %d", trial, j, g.nodeCell[j], c)
				}
			}
			for c := range g.cells {
				if got := net.CellNodes(c); !slices.Equal(got, want[c]) {
					t.Fatalf("trial %d: cell %d holds %v after removing %d, want %v", trial, c, got, i, want[c])
				}
			}

			fresh := New(live, gamma)
			rho := 0.02 + rng.Float64()*0.5
			for j := range live {
				buf = net.NeighborsWithinBuf(j, rho, buf)
				if w := fresh.NeighborsWithin(j, rho); !slices.Equal(buf, w) {
					t.Fatalf("trial %d: NeighborsWithinBuf(%d, %v) = %v, fresh %v", trial, j, rho, buf, w)
				}
				var gotCost, wCost int64
				ringBuf, gotCost = net.RingQuery(j, rho, ringBuf)
				freshBuf, wCost = fresh.RingQuery(j, rho, freshBuf)
				if !slices.Equal(ringBuf, freshBuf) || gotCost != wCost {
					t.Fatalf("trial %d: RingQuery(%d, %v) = %v (cost %d), fresh %v (cost %d)",
						trial, j, rho, ringBuf, gotCost, freshBuf, wCost)
				}
			}
		}
		if net.Rebuilds() != rebuilds || net.GridShape().Gen != gen {
			t.Errorf("trial %d: removals rebuilt the index (%d -> %d rebuilds, gen %d -> %d)",
				trial, rebuilds, net.Rebuilds(), gen, net.GridShape().Gen)
		}
	}
}

// Bulk SetPositions remains the full-rebuild path, and node-count changes
// keep message accounting consistent.
func TestBulkWriteRebuildsAndCountersSurviveTopologyChange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos := make([]geom.Point, 40)
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	net := New(pos, 0.2)
	net.Rebuild()
	base := net.Rebuilds()

	net.SetPositions(pos)
	net.NeighborsWithin(0, 0.3)
	if net.Rebuilds() != base+1 {
		t.Errorf("bulk SetPositions should rebuild once lazily: %d -> %d", base, net.Rebuilds())
	}

	net.Charge(7)
	net.Charge(2)
	net.RemoveNode(3)
	if net.Len() != 39 {
		t.Fatalf("RemoveNode left %d nodes", net.Len())
	}
	if got := net.MessageCount(); got != 9 {
		t.Errorf("total messages must survive removal, got %d", got)
	}
	id := net.AddNode(geom.Pt(0.5, 0.5))
	if id != 39 || net.Len() != 40 {
		t.Fatalf("AddNode returned id %d with %d nodes", id, net.Len())
	}
}

// SetBoundsHint widens the grid to cover the declared area: moves anywhere
// inside the hint are absorbed incrementally (no bounds-exit rebuilds), and
// query answers stay canonical — identical to a brute-force scan — for any
// cell geometry the hint induces.
func TestBoundsHintAbsorbsWideMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Point, 60)
	for i := range pts {
		// Clustered start in a corner of a much larger declared area.
		pts[i] = geom.Pt(rng.Float64()*0.1, rng.Float64()*0.1)
	}
	net := New(pts, 0.05)
	net.SetBoundsHint(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	net.Rebuild()
	base := net.Rebuilds()
	for op := 0; op < 200; op++ {
		i := rng.Intn(len(pts))
		p := geom.Pt(rng.Float64(), rng.Float64()) // anywhere in the hint
		net.SetPosition(i, p)
		pts[i] = p
		j := rng.Intn(len(pts))
		rho := 0.05 + rng.Float64()*0.4
		got := net.NeighborsWithin(j, rho)
		var want []int
		for k, q := range pts {
			if k != j && q.Dist2(pts[j]) < rho*rho {
				want = append(want, k)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: NeighborsWithin(%d, %v) = %v, want %v", op, j, rho, got, want)
		}
	}
	if got := net.Rebuilds(); got != base {
		t.Errorf("moves inside the hinted bounds forced %d rebuilds, want 0", got-base)
	}
	// A move outside the hint still falls back to a rebuild with fresh
	// bounds (the hint widens the grid, it does not clamp nodes).
	net.SetPosition(0, geom.Pt(2.5, 2.5))
	pts[0] = geom.Pt(2.5, 2.5)
	if got := net.NeighborsWithin(0, 5.0); len(got) != len(pts)-1 {
		t.Errorf("post-exit query found %d neighbors, want %d", len(got), len(pts)-1)
	}
	if net.Rebuilds() == base {
		t.Error("a move outside the hinted bounds did not rebuild")
	}
}

// A rebuild builds into the storage of the index it retires. Over a run of
// bulk rewrites at spans from 0.05 to 2.5, with a node added and a node
// removed in between, every rebuilt index answers exactly as a fresh
// network over the same positions — cell geometry, every bucket, every
// neighbor and ring query — and every rebuild advances the generation and
// the rebuild counter. A rebuild that fits the retired storage allocates
// nothing.
func TestRebuildReusesIndexStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const gamma = 0.1
	scatter := func(pts []geom.Point, span float64) {
		for i := range pts {
			pts[i] = geom.Pt(span*rng.Float64(), span*rng.Float64())
		}
	}
	live := make([]geom.Point, 150)
	scatter(live, 1)
	net := New(live, gamma)
	net.Rebuild()
	var buf, freshBuf []int
	for step, span := range []float64{0.3, 2.5, 0.05, 1.2, 1.2} {
		rebuilds, gen := net.Rebuilds(), net.GridShape().Gen
		switch step {
		case 1:
			p := geom.Pt(rng.Float64(), rng.Float64())
			net.AddNode(p)
			live = append(live, p)
		case 3:
			i := rng.Intn(len(live))
			net.RemoveNode(i)
			live = append(live[:i], live[i+1:]...)
		}
		scatter(live, span)
		net.SetPositions(live)
		net.Rebuild()
		if got := net.Rebuilds(); got != rebuilds+1 {
			t.Fatalf("step %d: %d rebuilds after one bulk rewrite, want %d", step, got, rebuilds+1)
		}
		got := net.GridShape()
		if got.Gen != gen+1 {
			t.Fatalf("step %d: generation %d after a rebuild, want %d", step, got.Gen, gen+1)
		}

		fresh := New(live, gamma)
		want := fresh.GridShape()
		got.Gen, want.Gen = 0, 0
		if got != want {
			t.Fatalf("step %d: rebuilt grid %+v, fresh %+v", step, got, want)
		}
		for c := 0; c < want.NX*want.NY; c++ {
			if g, w := net.CellNodes(c), fresh.CellNodes(c); !slices.Equal(g, w) {
				t.Fatalf("step %d: cell %d holds %v, fresh %v", step, c, g, w)
			}
		}
		rho := span * (0.05 + 0.3*rng.Float64())
		for j := range live {
			buf = net.NeighborsWithinBuf(j, rho, buf)
			freshBuf = fresh.NeighborsWithinBuf(j, rho, freshBuf)
			if !slices.Equal(buf, freshBuf) {
				t.Fatalf("step %d: NeighborsWithinBuf(%d, %v) = %v, fresh %v", step, j, rho, buf, freshBuf)
			}
			var cost, freshCost int64
			buf, cost = net.RingQuery(j, rho, buf)
			freshBuf, freshCost = fresh.RingQuery(j, rho, freshBuf)
			if !slices.Equal(buf, freshBuf) || cost != freshCost {
				t.Fatalf("step %d: RingQuery(%d, %v) = %v (cost %d), fresh %v (cost %d)",
					step, j, rho, buf, cost, freshBuf, freshCost)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.SetPositions(live)
		net.Rebuild()
	})
	if allocs != 0 {
		t.Errorf("a rebuild into the retired storage allocates %v objects, want 0", allocs)
	}
}
