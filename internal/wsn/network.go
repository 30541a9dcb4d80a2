// Package wsn models the wireless-sensor-network substrate LAACAD runs on:
// node positions, the unit-disk communication graph induced by a common
// transmission range γ, distance neighborhood queries backed by a uniform
// spatial grid, and message accounting for the localized expanding-ring
// search (Algorithm 2 in the paper).
//
// The package is deliberately independent of the deployment algorithm: it
// answers "who can I hear, and what does asking cost" and nothing else.
package wsn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"laacad/internal/geom"
)

// Network is a set of sensor nodes with a common transmission range.
//
// Concurrency: mutation (SetPosition, SetPositions, AddNode, RemoveNode)
// must not run concurrently with anything else, but the read path is safe
// for concurrent use — the full-rebuild fallback is mutex-guarded, and
// message accounting (Charge) is atomic — so queries such as
// NeighborsWithin and RingQuery may fan out across goroutines between
// mutations. Callers doing so should invoke Rebuild first so the grid is
// built once up front rather than contended on first query. Queries charge
// nothing: RingQuery returns its message cost, and the caller charges it
// when the protocol would.
type Network struct {
	pos   []geom.Point
	gamma float64

	// searchCount, when positive, overrides the deployment size the
	// expanding search derives its fallback radius and exhaustion exit from
	// (see SetSearchCount).
	searchCount int

	// msgs counts link-level transmissions. atomic.Int64 (not bare int64 +
	// atomic ops) so the 8-byte alignment Charge needs is guaranteed on
	// 32-bit platforms too.
	msgs atomic.Int64

	// Incremental spatial index over node positions (see gridIndex). A
	// single-node move updates the two touched cell buckets in place, and a
	// removal renumbers the buckets in place; only bulk rewrites
	// (SetPositions) and moves or additions that leave the grid bounds mark
	// the index dirty for a full rebuild. dirty is the lock-free fast path:
	// queries only take mu (which guards the rebuild itself) when a full
	// rebuild is pending, so concurrent readers of a live grid never contend
	// on the mutex.
	mu    sync.Mutex
	idx   *gridIndex
	dirty atomic.Bool

	// boundsHint, when set, is unioned into every rebuild's grid bounds and
	// cell sizing (see SetBoundsHint).
	boundsHint *geom.BBox

	// Observability counters for the index maintenance policy: rebuilds
	// counts full O(n) reconstructions, incMoves the O(1) bucket updates.
	// They are maintained on the (single-threaded) mutation path; read them
	// only between mutations.
	rebuilds uint64
	incMoves uint64

	// version counts position mutations (see Version): the round engine's
	// incremental cache uses it to detect out-of-band position writes.
	version atomic.Uint64
}

// New creates a network with the given node positions and transmission
// range gamma. It panics if gamma is not positive.
func New(pos []geom.Point, gamma float64) *Network {
	if gamma <= 0 {
		panic(fmt.Sprintf("wsn: transmission range must be positive, got %v", gamma))
	}
	n := &Network{
		pos:   append([]geom.Point(nil), pos...),
		gamma: gamma,
	}
	n.dirty.Store(true)
	return n
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.pos) }

// SetSearchCount overrides the node count SearchLen reports. A sharded
// engine's local network holds only a window of the deployment; the
// expanding search's density-based fallback radius and its all-nodes-seen
// exit must be computed against the GLOBAL deployment size to follow the
// same probe sequence — and therefore the same floating-point evaluation
// order — as the shared-memory engine. Zero restores the default (Len).
func (n *Network) SetSearchCount(c int) { n.searchCount = c }

// SearchLen returns the deployment size the expanding search should assume:
// the SetSearchCount override when set, Len otherwise.
func (n *Network) SearchLen() int {
	if n.searchCount > 0 {
		return n.searchCount
	}
	return len(n.pos)
}

// Gamma returns the transmission range γ.
func (n *Network) Gamma() float64 { return n.gamma }

// Position returns node i's position.
func (n *Network) Position(i int) geom.Point { return n.pos[i] }

// Positions returns a copy of all node positions.
func (n *Network) Positions() []geom.Point {
	return append([]geom.Point(nil), n.pos...)
}

// SetPosition moves node i to p, updating the spatial index incrementally:
// the two touched cell buckets are edited in place, so a steady state where
// few nodes move costs O(moved), not O(n). A move that leaves the current
// grid bounds falls back to a full (lazy) rebuild with fresh bounds. Writing
// a node's current position back is a no-op. Must not run concurrently with
// queries.
func (n *Network) SetPosition(i int, p geom.Point) {
	if p == n.pos[i] {
		return
	}
	n.pos[i] = p
	n.version.Add(1)
	if n.dirty.Load() {
		return // no live index; the next query rebuilds from scratch
	}
	if n.idx.move(i, p) {
		n.incMoves++
	} else {
		n.dirty.Store(true)
	}
}

// SetPositions replaces all node positions (same count required) and marks
// the index for a full rebuild — the bulk path. Callers replacing only a few
// positions should prefer per-node SetPosition, which is incremental. Must
// not run concurrently with queries.
func (n *Network) SetPositions(pos []geom.Point) {
	if len(pos) != len(n.pos) {
		panic(fmt.Sprintf("wsn: SetPositions with %d positions for %d nodes", len(pos), len(n.pos)))
	}
	copy(n.pos, pos)
	n.dirty.Store(true)
	n.version.Add(1)
}

// AddNode appends a node at p and returns its ID. The index is extended in
// place when p falls inside the current grid bounds; otherwise the next
// query rebuilds. Must not run concurrently with queries.
func (n *Network) AddNode(p geom.Point) int {
	id := len(n.pos)
	n.pos = append(n.pos, p)
	n.version.Add(1)
	if !n.dirty.Load() {
		if n.idx.add(p) {
			n.incMoves++
		} else {
			n.dirty.Store(true)
		}
	}
	return id
}

// RemoveNode deletes node i, renumbering every node above it down by one
// (matching the engine's failure-injection semantics). A live index is
// renumbered in place (see gridIndex.remove) — no full rebuild, no new grid
// generation — so every query answers as a rebuild would. The message total
// is kept. Must not run concurrently with queries.
func (n *Network) RemoveNode(i int) {
	if i < 0 || i >= len(n.pos) {
		panic(fmt.Sprintf("wsn: RemoveNode index %d out of range [0,%d)", i, len(n.pos)))
	}
	n.pos = append(n.pos[:i], n.pos[i+1:]...)
	n.version.Add(1)
	if !n.dirty.Load() {
		n.idx.remove(i)
	}
}

// SetBoundsHint declares the area the deployment can ever occupy (the target
// region's bounding box). Every grid rebuild from then on unions the hint
// into its bounds and cell sizing, so moves anywhere inside the hint are
// absorbed incrementally — without it, a corner-start deployment that grows
// its position bounding box every round forces a bounds-exit rebuild per
// expansion round. Query answers are independent of cell geometry, so the
// hint is purely an indexing choice. Setting it schedules one rebuild; must
// not run concurrently with queries.
func (n *Network) SetBoundsHint(b geom.BBox) {
	if b.IsEmpty() {
		return
	}
	hint := b
	n.boundsHint = &hint
	n.dirty.Store(true)
}

// Version returns a counter incremented by every position mutation
// (SetPosition, SetPositions, AddNode, RemoveNode). Consumers that cache
// position-derived state — the round engine's incremental dirty-set —
// compare versions to detect writes they did not perform themselves and
// flush accordingly.
func (n *Network) Version() uint64 { return n.version.Load() }

// MessageCount returns the total link-level message count: each hop of each
// unicast/broadcast counts once.
func (n *Network) MessageCount() int64 { return n.msgs.Load() }

// Charge records m link-level transmissions. It is safe for concurrent use.
func (n *Network) Charge(m int64) { n.msgs.Add(m) }

// Rebuild brings the spatial index up to date with the current positions if
// a full rebuild is pending (bulk write, or a move or addition that left the
// grid bounds). Queries do this lazily on demand; callers about to
// fan queries across goroutines should call it explicitly so workers start
// from a clean, immutable index instead of contending on the first query.
// Incremental updates never require it.
func (n *Network) Rebuild() { n.rebuild() }

func (n *Network) rebuild() {
	// Fast path: the atomic load pairs with the Store(false) below, so a
	// reader that observes a clean flag also observes the built grid
	// (happens-before via the atomic), without touching the mutex.
	if !n.dirty.Load() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.dirty.Load() {
		return
	}
	if n.idx == nil {
		n.idx = &gridIndex{}
	}
	n.idx.build(n.pos, n.gamma, n.boundsHint)
	n.rebuilds++
	n.dirty.Store(false)
}

// Rebuilds returns how many full index reconstructions have happened — the
// regression counter for the incremental-maintenance contract: a steady
// state where nodes move within the grid bounds performs none.
func (n *Network) Rebuilds() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rebuilds
}

// IncrementalMoves returns how many O(1) bucket updates the index absorbed
// without rebuilding.
func (n *Network) IncrementalMoves() uint64 { return n.incMoves }

// GridShape describes the spatial index's current cell geometry. Gen
// increments on every full rebuild; cell indices are only comparable within
// one Gen.
type GridShape struct {
	// Side is the cell side length.
	Side float64
	// OX, OY are the cell coordinates of linear cell 0.
	OX, OY int
	// NX, NY are the grid dimensions; linear index = (cy−OY)·NX + (cx−OX).
	NX, NY int
	// Gen is the full-rebuild generation.
	Gen uint64
}

// GridShape returns the current index geometry, rebuilding first if a full
// rebuild is pending.
func (n *Network) GridShape() GridShape {
	n.rebuild()
	g := n.idx
	return GridShape{Side: g.side, OX: g.ox, OY: g.oy, NX: g.nx, NY: g.ny, Gen: g.gen}
}

// CellOfNode returns the linear index of the grid cell node i occupies.
func (n *Network) CellOfNode(i int) int {
	n.rebuild()
	return int(n.idx.nodeCell[i])
}

// CellNodes returns the IDs of the nodes in cell ci, ascending. The slice
// aliases the index: callers must not modify it or hold it across a
// mutation.
func (n *Network) CellNodes(ci int) []int32 {
	n.rebuild()
	return n.idx.cells[ci]
}

// CellDist2 returns a lower bound on the squared distance from p to any
// position inside cell ci — the pruning primitive for inverse range queries
// over the grid.
func (n *Network) CellDist2(ci int, p geom.Point) float64 {
	n.rebuild()
	return n.idx.cellDist2(ci, p)
}

// CellWindowSize returns how many cells ((2r+1)², before bounds clamping) a
// query window of the given radius spans — the cost estimate consumers use
// to choose between an inverse grid query and a dense scan.
func (n *Network) CellWindowSize(dist float64) int {
	n.rebuild()
	r := n.idx.windowRadius(dist)
	return (2*r + 1) * (2*r + 1)
}

// VisitCellsWithin invokes fn(ci) for every grid cell that could contain a
// position within dist of p — the walk primitive behind inverse range
// queries, keeping the cell-window geometry private to the index.
func (n *Network) VisitCellsWithin(p geom.Point, dist float64, fn func(ci int)) {
	n.rebuild()
	n.idx.visitCells(p, dist, fn)
}

// NeighborsWithin returns the IDs of all nodes other than i strictly within
// distance rho of node i (the paper's N(n_i, ρ)), in ascending ID order.
func (n *Network) NeighborsWithin(i int, rho float64) []int {
	return n.NeighborsWithinBuf(i, rho, nil)
}

// NeighborsWithinBuf is NeighborsWithin with a caller-supplied result
// buffer: matches are appended to buf[:0] and the (possibly grown) buffer is
// returned, so a caller that keeps the returned buffer for its next query
// allocates only when a query finds more nodes than any before it. Results
// are in ascending ID order — the canonical order, independent of how the
// index was built (full rebuild or incremental updates) and of its cell
// geometry.
func (n *Network) NeighborsWithinBuf(i int, rho float64, buf []int) []int {
	n.rebuild()
	p := n.pos[i]
	rho2 := rho * rho
	out := buf[:0]
	g := n.idx
	r := g.windowRadius(rho)
	if (2*r+1)*(2*r+1) > len(n.pos) {
		// The cell window would touch more cells than there are nodes:
		// a linear scan is cheaper and has no index overhead.
		for j, q := range n.pos {
			if j != i && q.Dist2(p) < rho2 {
				out = append(out, j)
			}
		}
		return out
	}
	// Open-coded visitCells walk: routing the appends through a closure
	// would heap-allocate the captured result variable, and this is the
	// zero-alloc hot path. Every node is inside the grid bounds, so
	// clamping the window loses nothing.
	cx, cy := g.cellCoords(p)
	x0, x1 := max(cx-r, g.ox), min(cx+r, g.ox+g.nx-1)
	y0, y1 := max(cy-r, g.oy), min(cy+r, g.oy+g.ny-1)
	for y := y0; y <= y1; y++ {
		row := (y - g.oy) * g.nx
		for x := x0; x <= x1; x++ {
			for _, j := range g.cells[row+x-g.ox] {
				if int(j) != i && n.pos[j].Dist2(p) < rho2 {
					out = append(out, int(j))
				}
			}
		}
	}
	slices.Sort(out) // canonical ascending order (allocation-free for ints)
	return out
}

// NeighborsWithinDistBuf is NeighborsWithinBuf fused with the squared
// distances the filter already computed, for callers that re-sort by
// distance anyway: results come back in deterministic grid-visit order, NOT
// ascending ID order (the ID sort is pure waste for a caller imposing its
// own total order). ids and d2s are parallel; both buffers are reused.
func (n *Network) NeighborsWithinDistBuf(i int, rho float64, ids []int, d2s []float64) ([]int, []float64) {
	n.rebuild()
	p := n.pos[i]
	rho2 := rho * rho
	ids, d2s = ids[:0], d2s[:0]
	g := n.idx
	r := g.windowRadius(rho)
	if (2*r+1)*(2*r+1) > len(n.pos) {
		for j, q := range n.pos {
			if d2 := q.Dist2(p); j != i && d2 < rho2 {
				ids = append(ids, j)
				d2s = append(d2s, d2)
			}
		}
		return ids, d2s
	}
	cx, cy := g.cellCoords(p)
	x0, x1 := max(cx-r, g.ox), min(cx+r, g.ox+g.nx-1)
	y0, y1 := max(cy-r, g.oy), min(cy+r, g.oy+g.ny-1)
	for y := y0; y <= y1; y++ {
		row := (y - g.oy) * g.nx
		for x := x0; x <= x1; x++ {
			for _, j := range g.cells[row+x-g.ox] {
				if d2 := n.pos[j].Dist2(p); int(j) != i && d2 < rho2 {
					ids = append(ids, int(j))
					d2s = append(d2s, d2)
				}
			}
		}
	}
	return ids, d2s
}

// OneHop returns node i's one-hop neighbors: nodes strictly within the
// transmission range γ.
func (n *Network) OneHop(i int) []int { return n.NeighborsWithin(i, n.gamma) }

// RingQuery performs one expanding-ring neighborhood query of radius rho for
// node i and returns exactly N(n_i, ρ) — every node within Euclidean
// distance ρ, the paper's definition — with the query's communication cost,
// modeled as a flood to h = ⌈ρ/γ⌉ hops: one rebroadcast per node in the ring
// (+1 for the origin), plus each discovered node's reply forwarded back over
// ⌈d/γ⌉ hops. The IDs are written into buf as NeighborsWithinBuf writes
// them: a caller that keeps the returned buffer for its next query performs
// its queries without heap allocation once the buffer is large enough. The
// query charges nothing; the caller decides when the cost is paid (see
// Charge). Results are in ascending node-ID order; callers consume them
// positionally (e.g. RingQueryLossy assigns per-reply loss draws down the
// list), so the order is part of the determinism contract.
func (n *Network) RingQuery(i int, rho float64, buf []int) ([]int, int64) {
	found := n.NeighborsWithinBuf(i, rho, buf)
	cost := 1 + int64(len(found))
	for _, j := range found {
		h := int64(math.Ceil(n.pos[j].Dist(n.pos[i]) / n.gamma))
		if h < 1 {
			h = 1
		}
		cost += h
	}
	return found, cost
}

// Connected reports whether the unit-disk graph is connected. An empty
// network is connected by convention.
func (n *Network) Connected() bool {
	if len(n.pos) == 0 {
		return true
	}
	seen := make([]bool, len(n.pos))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range n.NeighborsWithin(u, n.gamma) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(n.pos)
}

// DegreeStats returns the minimum, maximum and mean node degree of the
// unit-disk graph.
func (n *Network) DegreeStats() (minDeg, maxDeg int, mean float64) {
	if len(n.pos) == 0 {
		return 0, 0, 0
	}
	minDeg = math.MaxInt
	var sum int
	for i := range n.pos {
		d := len(n.OneHop(i))
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
		sum += d
	}
	return minDeg, maxDeg, float64(sum) / float64(len(n.pos))
}
