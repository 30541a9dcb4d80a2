package wsn

import (
	"math"

	"laacad/internal/geom"
	"laacad/internal/parallel"
)

// gridIndex is the flat spatial index over node positions: a uniform grid
// whose per-cell buckets are carved CSR-style out of one backing array by a
// full rebuild (cell-start offsets + node array) and then maintained
// incrementally — a position update moves one node between two buckets
// instead of invalidating the whole index.
//
// Invariants:
//   - every node lies inside the grid bounds; a mutation that would violate
//     this reports failure and the caller falls back to a full rebuild with
//     fresh bounds (the only other rebuild trigger is a bulk SetPositions;
//     removals renumber in place, and additions inside the bounds are one
//     bucket insert);
//   - every bucket holds node IDs in ascending order, exactly what a full
//     rebuild produces, so query answers are bit-identical whichever path
//     built the index;
//   - gen increments on every full rebuild (the cell geometry itself
//     changed, so cell indices from an older gen are meaningless).
type gridIndex struct {
	side   float64
	ox, oy int // cell coordinate of cells[0]
	nx, ny int

	cells    [][]int32 // per-cell ID buckets, ascending; sliced from backing
	nodeCell []int32   // linear cell index of every node
	gen      uint64    // full-rebuild generation

	// The counting sort's CSR arrays, kept so the next rebuild sorts into
	// the same storage: offsets[c] is where cell c's segment starts in
	// backing, next its scatter cursor.
	offsets, backing, next []int32
}

// bucketSlack is the number of free slots a rebuild leaves at the end of
// every cell's CSR segment — about the mean occupancy the cell sizing aims
// for — so a bucket can gain that many nodes by incremental moves before it
// outgrows its segment and reallocates.
const bucketSlack = 4

// gridMargin is the number of slack cell rings a rebuild reserves around the
// position bounding box, so nodes can drift outward for a while before a
// move falls off the grid and forces the next rebuild.
const gridMargin = 2

func (g *gridIndex) cellCoords(p geom.Point) (int, int) {
	return int(math.Floor(p.X / g.side)), int(math.Floor(p.Y / g.side))
}

// cellIndex returns the linear index of p's cell, or -1 if p lies outside
// the grid bounds.
func (g *gridIndex) cellIndex(p geom.Point) int {
	cx, cy := g.cellCoords(p)
	rx, ry := cx-g.ox, cy-g.oy
	if rx < 0 || rx >= g.nx || ry < 0 || ry >= g.ny {
		return -1
	}
	return ry*g.nx + rx
}

// cellDist2 returns a lower bound on the squared distance from p to any
// position hashing into cell ci. The cell rectangle is expanded by a hair so
// float rounding at cell boundaries can never make the bound exceed the true
// distance — consumers use it to prune cells, and an overestimate would turn
// pruning into wrong answers.
func (g *gridIndex) cellDist2(ci int, p geom.Point) float64 {
	rx, ry := ci%g.nx, ci/g.nx
	eps := g.side * 1e-9
	x0 := float64(g.ox+rx)*g.side - eps
	y0 := float64(g.oy+ry)*g.side - eps
	x1 := x0 + g.side + 2*eps
	y1 := y0 + g.side + 2*eps
	var dx, dy float64
	if p.X < x0 {
		dx = x0 - p.X
	} else if p.X > x1 {
		dx = p.X - x1
	}
	if p.Y < y0 {
		dy = y0 - p.Y
	} else if p.Y > y1 {
		dy = p.Y - y1
	}
	return dx*dx + dy*dy
}

// build reconstructs the index over the given positions and advances its
// generation. Every array is rebuilt into the storage the previous build
// left (reallocated only when too small), so a steady stream of bulk
// rebuilds allocates nothing; no reader can still hold the retired index,
// because mutations never run concurrently with queries. Cell side starts
// at gamma and grows to keep occupancy near one node per cell for
// deployments much wider than gamma. The per-node cell location (the float
// work) fans out across workers via internal/parallel; the counting-sort
// scatter runs serially in ascending node order, which is what keeps every
// bucket ascending.
//
// A non-nil bounds hint (the deployment region's bounding box, see
// Network.SetBoundsHint) is unioned into both the grid bounds and the cell
// sizing: the grid then covers everywhere the nodes can ever be, so an
// expansion-phase deployment (corner pile spreading across the region) never
// exits the bounds and never forces a rebuild. While the nodes are still
// clustered the hint-scaled cells hold more than the usual ~4 nodes each —
// a transient query-cost tax the expansion pays instead of one full rebuild
// per round; query answers are canonical either way.
func (g *gridIndex) build(pos []geom.Point, gamma float64, hint *geom.BBox) {
	g.side = gamma
	g.gen++
	n := len(pos)
	g.nodeCell = resize(g.nodeCell, n)
	if n == 0 {
		g.ox, g.oy, g.nx, g.ny = 0, 0, 1, 1
		g.cells = resize(g.cells, 1)
		g.cells[0] = nil
		return
	}
	b := geom.BBoxOf(pos)
	if hint != nil {
		b = b.Union(*hint)
	}
	span := math.Max(b.Width(), b.Height())
	// Size cells for a few nodes each: that is what makes both query windows
	// and bucket edits O(local). Occupancy ~4 (double-pitch cells) balances
	// the two per-query costs — scanning empty cells of the window vs.
	// distance-testing extra bucket members; occupancy 1 measurably loses to
	// it on the expanding-search radii (~5 pitches) the engine issues. The
	// map grid this index replaced floored the cell side at gamma to avoid
	// hashing lots of empty cells; with flat array cells gamma only
	// backstops degenerate (zero-span) layouts.
	if adaptive := 2 * span / math.Sqrt(float64(n)); adaptive > 0 {
		g.side = adaptive
	}
	minCx := int(math.Floor(b.Min.X / g.side))
	minCy := int(math.Floor(b.Min.Y / g.side))
	maxCx := int(math.Floor(b.Max.X / g.side))
	maxCy := int(math.Floor(b.Max.Y / g.side))
	g.ox, g.oy = minCx-gridMargin, minCy-gridMargin
	g.nx = maxCx - minCx + 1 + 2*gridMargin
	g.ny = maxCy - minCy + 1 + 2*gridMargin
	ncells := g.nx * g.ny

	// Phase 1 (parallel): locate every node's cell. Pure per-index work, so
	// the result is identical for any worker count. Parallelism only pays on
	// large rebuilds; small ones stay on the calling goroutine.
	workers := min(parallel.Workers(-1), max(1, n/4096))
	parallel.For(n, workers, func(i int) {
		g.nodeCell[i] = int32(g.cellIndex(pos[i]))
	})

	// Phase 2 (serial): CSR counting sort. offsets[c] is the start of cell
	// c's segment in the backing array: its nodes plus bucketSlack free
	// slots. Scattering in ascending node order keeps each bucket ascending.
	g.offsets = resize(g.offsets, ncells+1)
	offsets := g.offsets
	clear(offsets)
	for _, c := range g.nodeCell {
		offsets[c+1]++
	}
	for c := 1; c <= ncells; c++ {
		offsets[c] += offsets[c-1] + bucketSlack
	}
	g.backing = resize(g.backing, int(offsets[ncells]))
	g.next = resize(g.next, ncells)
	backing, next := g.backing, g.next
	copy(next, offsets[:ncells])
	for i := 0; i < n; i++ {
		c := g.nodeCell[i]
		backing[next[c]] = int32(i)
		next[c]++
	}
	g.cells = resize(g.cells, ncells)
	for c := 0; c < ncells; c++ {
		// Capacity capped at the segment end: a bucket that outgrows its CSR
		// segment reallocates alone instead of clobbering its neighbor.
		g.cells[c] = backing[offsets[c]:next[c]:offsets[c+1]]
	}
}

// resize returns s with length n, reusing its storage when the capacity
// suffices. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// windowRadius returns the cell-window radius covering every position
// within dist of a point (the +1 absorbs the partial cells at both ends and
// float rounding at the boundaries).
func (g *gridIndex) windowRadius(dist float64) int {
	return int(math.Ceil(dist/g.side)) + 1
}

// visitCells invokes fn(ci) for every grid cell that could contain a
// position within dist of p. The walk clamps to the grid bounds — every
// node is inside them, so nothing is lost — and is the one place that knows
// how cell windows map to linear indices.
func (g *gridIndex) visitCells(p geom.Point, dist float64, fn func(ci int)) {
	r := g.windowRadius(dist)
	cx, cy := g.cellCoords(p)
	x0, x1 := max(cx-r, g.ox), min(cx+r, g.ox+g.nx-1)
	y0, y1 := max(cy-r, g.oy), min(cy+r, g.oy+g.ny-1)
	for y := y0; y <= y1; y++ {
		row := (y - g.oy) * g.nx
		for x := x0; x <= x1; x++ {
			fn(row + x - g.ox)
		}
	}
}

// move relocates node i to p. It reports false when p falls outside the grid
// bounds, in which case the caller must schedule a full rebuild (the index
// is left unchanged and still describes the old position).
func (g *gridIndex) move(i int, p geom.Point) bool {
	ci := g.cellIndex(p)
	if ci < 0 {
		return false
	}
	old := g.nodeCell[i]
	if int32(ci) == old {
		return true // same bucket; only the position backing it changed
	}
	g.cells[old] = removeID(g.cells[old], int32(i))
	g.cells[ci] = insertID(g.cells[ci], int32(i))
	g.nodeCell[i] = int32(ci)
	return true
}

// add extends the index with a node at p whose ID is the next node number.
// It reports false when p falls outside the grid bounds.
func (g *gridIndex) add(p geom.Point) bool {
	ci := g.cellIndex(p)
	if ci < 0 {
		return false
	}
	id := int32(len(g.nodeCell))
	g.nodeCell = append(g.nodeCell, int32(ci))
	g.cells[ci] = insertID(g.cells[ci], id)
	return true
}

// remove deletes node i and renumbers every node above it down by one, in
// place: i leaves its bucket, and every larger ID in every bucket is
// decremented. The shift is monotone, so each bucket stays ascending and
// every query answers exactly as a rebuild over the remaining nodes would.
// It costs O(n + cells) with no allocation, and the cell geometry (and gen)
// is unchanged.
func (g *gridIndex) remove(i int) {
	id := int32(i)
	c := g.nodeCell[i]
	g.cells[c] = removeID(g.cells[c], id)
	g.nodeCell = append(g.nodeCell[:i], g.nodeCell[i+1:]...)
	for _, b := range g.cells {
		// Buckets are ascending: only a suffix holds IDs above i.
		for k := len(b) - 1; k >= 0 && b[k] > id; k-- {
			b[k]--
		}
	}
}

// removeID deletes id from the ascending bucket b in place.
func removeID(b []int32, id int32) []int32 {
	for k, v := range b {
		if v == id {
			copy(b[k:], b[k+1:])
			return b[: len(b)-1 : cap(b)]
		}
	}
	return b // unreachable while the invariants hold
}

// insertID adds id to the ascending bucket b, keeping it sorted.
func insertID(b []int32, id int32) []int32 {
	k := len(b)
	b = append(b, id)
	for k > 0 && b[k-1] > id {
		b[k] = b[k-1]
		k--
	}
	b[k] = id
	return b
}
