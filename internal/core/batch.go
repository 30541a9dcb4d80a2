package core

import (
	"math"
	"math/rand"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// The region kernel. Every dominating region the engine, the Stepper (and
// through it the sharded engine and the asynchronous simulator) computes runs
// on the structure-of-arrays kernel: voronoi.DominatingRegionSoA over
// slab-resident rel lists and polygon vertices. The scalar clip pipeline
// (package laacad/internal/voronoi/oracle, which no production package
// imports) survives only as the test oracle, and the two are bit-identical by
// contract — the SoA walk routes every arithmetic step through the same geom
// functions in the same order. Three properties shape the hot path:
//
//   - The expanding-radius exactness search keeps its relevant-neighbor
//     slabs across ρ-doublings. Each doubling appends only the newly gathered
//     suffix (everything nearer is already present, in canonical (d², ID)
//     order) and sorts just that tail, instead of rebuilding and re-sorting
//     the whole list per iteration.
//
//   - The search warm-starts at the node's last exactness radius (its hint)
//     instead of the density-based fallback guess, skipping the early
//     doubling iterations entirely in steady state. The final region is
//     bit-identical for any starting radius: the exactness predicate
//     2·R̂ ≤ ρ is what terminates the search, and generators beyond 2·R̂
//     leave both the clipping walk and its recursion bitwise untouched
//     (asserted by TestHintStartMatchesFallbackStart; the per-state oracle
//     check diffs the warm-started kernel against the scalar pipeline from
//     the fallback start).
//
//   - Pieces no branch can reach are never walked. A non-convex region is a
//     list of convex pieces (85 for campus), and a node's dominating region
//     touches only the few near it. The callers pass the region's per-piece
//     bounding boxes (Region.PieceBoxes, computed once in region.New), and
//     DominatingRegionSoA skips a piece when k rel generators each place the
//     whole piece on their closer side, clear of the clip tolerance band. The
//     skip is exact: every polygon the walk derives from the piece lies inside
//     it, so each such generator either consumes one unit of every branch's
//     budget or clips the branch away, and after k of them nothing survives.
//     The surviving pieces and their order are unchanged, and the scalar
//     oracle, which walks every piece, is what the per-state check diffs
//     against.

// centralizedRegionSoA computes node i's dominating region over the
// network's current positions from global knowledge, using an
// exactness-checked expanding radius: a region computed from all nodes
// within distance ρ of u_i is globally exact as soon as its circumradius-
// from-u_i satisfies R̂ ≤ ρ/2, because every generator that could beat u_i
// at a point within R̂ of u_i lies within 2·R̂ ≤ ρ of u_i. The rel list
// grows incrementally across ρ-doublings. startRho, when positive, warm-
// starts the search (it is clamped up to the fallback guess, never down).
//
// It returns the region as refs into s.vor's slab (valid until the next
// region computation on s), the tightened exactness radius — the cache
// invalidation radius: the computation read only positions within the
// search's ρ of u_i, so the outcome stays bit-reproducible until some
// position inside that ball changes — and the region's circumradius R̂
// about u_i, a by-product of the exactness check.
func centralizedRegionSoA(net *wsn.Network, reg *region.Region, i, k int, startRho float64, s *Scratch) ([]geom.PolyRef, float64, float64) {
	// SearchLen, not Len: a sharded local network reports the global
	// deployment size here so the fallback radius — and with it the whole
	// probe sequence and its floating-point evaluation order — matches the
	// shared-memory engine bit for bit.
	n := net.SearchLen()
	pieces, boxes := reg.Pieces(), reg.PieceBoxes()
	diag := reg.BBox().Diagonal()
	ui := net.Position(i)
	self := voronoi.Site{ID: i, Pos: ui}
	// Initial guess: enough radius to see ~4k neighbors in a uniform
	// deployment; grows geometrically until the exactness check passes.
	fallback := diag / math.Sqrt(float64(n)) * math.Sqrt(float64(4*k+4))
	rho := fallback
	if startRho > rho {
		rho = startRho
	}
	s.vor.ResetRel()
	prevRho2 := 0.0
	for {
		// Fused gather: distances come back alongside the IDs (the range
		// filter computed them anyway) and the per-gather ID sort is skipped —
		// SortRelTail establishes the canonical (d², ID) order regardless of
		// gather order.
		s.nbrs, s.nbrD2 = net.NeighborsWithinDistBuf(i, rho, s.nbrs, s.nbrD2)
		relStart := s.vor.RelLen()
		for idx, j := range s.nbrs {
			d2 := s.nbrD2[idx]
			if d2 < prevRho2 {
				continue // already in the rel slabs from the previous radius
			}
			s.vor.AppendRel(self, voronoi.Site{ID: j, Pos: net.Position(j)}, d2)
		}
		s.vor.SortRelTail(relStart)
		refs := voronoi.DominatingRegionSoA(self, k, pieces, boxes, &s.vor)
		rhat := voronoi.MaxDistFromRefs(ui, &s.vor.Slab, refs)
		if 2*rhat <= rho || len(s.nbrs) == n-1 || rho > 4*diag {
			s.searchRho = rho // pre-tightening: the radius actually read
			// Tighten the returned radius toward the exactness threshold.
			// The doubling search overshoots — its final ρ lands anywhere in
			// [2R̂, 4R̂) — and since the return value seeds both the node's
			// cache-invalidation ball and the next search's warm start, the
			// overshoot compounds: a hint of 4R̂ gathers and sorts up to 4×
			// the neighbors the region needs. Any value ≥ 2R̂ is conservative
			// for invalidation (generators beyond 2R̂ cannot change the
			// region), and the warm start is exactness-checked anyway; 2.1R̂
			// leaves a 5% slack band over the threshold (numerical margin,
			// plus headroom for small region growth) while keeping both the
			// invalidation ball and the next gather close to minimal. The
			// ball is not floored at the density fallback: a heal's dirty set
			// is the nodes whose balls hold the failure, so a floor would
			// size every heal by the deployment's mean spacing rather than by
			// the regions the failure touches. The next search still starts
			// at the fallback at least, so a smaller hint changes no search.
			// An empty region (R̂ = 0) keeps the fallback: a zero-radius ball
			// would miss a dominating neighbor moving away, which can un-empty
			// it. Never raised above the search's ρ, so the degenerate exits
			// (whole network visited, runaway radius) keep their current value.
			t := 2.1 * rhat
			if rhat == 0 {
				t = fallback
			}
			if t < rho {
				rho = t
			}
			return refs, rho, rhat
		}
		prevRho2 = rho * rho
		rho *= 2
	}
}

// chebyshevOfRefs is ChebyshevOfRegion for slab-resident regions.
func chebyshevOfRefs(s *Scratch, refs []geom.PolyRef) (geom.Point, float64) {
	s.verts = voronoi.VerticesOfRefsInto(s.verts[:0], &s.vor.Slab, refs)
	return geom.ChebyshevCenterInPlace(s.verts)
}

// stepNodeCentralized computes node i's dominating region, Chebyshev center
// and motion target from the current positions (Centralized mode), warm-
// starting the expanding search at hint. The second return value is the
// search's exactness radius ρ — the cache invalidation radius. The outcome is
// a pure function of (positions within ρ of u_i, region, config): no RNG
// stream is consumed.
func (ns *nodeState) stepNodeCentralized(i int, hint float64, s *Scratch) (nodeOutcome, float64) {
	refs, rho, rhat := centralizedRegionSoA(ns.net, ns.reg, i, ns.cfg.K, hint, s)
	return ns.outcomeOf(i, refs, rhat, s), rho
}

// stepNodeLocalized computes node i's outcome with Algorithm 2. rng is the
// node's private stream for this round (see nodeRNG); it drives message-loss
// sampling. The second return value is the search's invalidation radius
// (see localizedSearch) — with loss sampling off, the outcome and its exact
// message cost are a pure function of the positions inside that ball plus
// the boundary flag, which is what makes Localized outcomes cacheable
// without falsifying the accounting.
func (ns *nodeState) stepNodeLocalized(i int, isBoundary bool, rng *rand.Rand, s *Scratch) (nodeOutcome, float64) {
	refs, inv := ns.localizedRegionRefs(i, isBoundary, rng, s)
	rhat := voronoi.MaxDistFromRefs(ns.net.Position(i), &s.vor.Slab, refs)
	return ns.outcomeOf(i, refs, rhat, s), inv
}

// outcomeOf finishes a node's step from its region: the Chebyshev center and
// circumradius and the motion rule. Everything a consumer needs from a round
// is scalar, so no region is materialized (Finalize's radii come from R̂, and
// DebugRegions recomputes the regions). An empty region (a node crowded out
// numerically) stands still.
func (ns *nodeState) outcomeOf(i int, refs []geom.PolyRef, rhat float64, s *Scratch) nodeOutcome {
	ui := ns.net.Position(i)
	ns.batchNodes.Add(1)
	if len(refs) == 0 {
		return nodeOutcome{next: ui, empty: true}
	}
	ci, ri := chebyshevOfRefs(s, refs)
	out := nodeOutcome{next: ui, ri: ri, rhat: rhat}
	ns.finishMove(ui, ci, &out)
	return out
}

// regionRefs computes node i's dominating region at the current positions
// as refs into s.vor's slab, plus the radius of the ball the computation read
// positions from — the Finalize/DebugRegions recompute path. That read radius
// is, for Centralized, the expanding search's final pre-tightening radius
// and, for Localized, the search's invalidation radius.
func (ns *nodeState) regionRefs(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) ([]geom.PolyRef, float64) {
	if ns.cfg.Mode == Localized {
		return ns.localizedRegionRefs(i, isBoundary, rng, s)
	}
	refs, _, _ := centralizedRegionSoA(ns.net, ns.reg, i, ns.cfg.K, hint, s)
	return refs, s.searchRho
}

// regionOf is regionRefs with the region compacted out of the slab.
func (ns *nodeState) regionOf(i int, hint float64, isBoundary bool, rng *rand.Rand, s *Scratch) ([]geom.Polygon, float64) {
	refs, readRad := ns.regionRefs(i, hint, isBoundary, rng, s)
	return voronoi.CompactRefs(&s.vor.Slab, refs), readRad
}

// localizedRegionRefs runs Algorithm 2 for node i: the expanding-ring search
// (which charges every message, see localizedSearch) followed by the region
// construction from the gathered neighbors, closed with the ρ/2 ring when
// the search says so. rng drives message-loss sampling when LossRate > 0; it
// must be the node's private stream so parallel fan-outs stay
// deterministic. The refs point into s.vor's slab.
//
// Correctness (Lemma 1 and the star-shape argument): the set where fewer
// than k others are closer is star-shaped about u_i — if a point v has ≥ k
// closer nodes, so does every point on the ray from u_i beyond v, because
// each "closer than u_i" half-plane is convex and excludes u_i. Hence a
// fully dominated ρ/2 circle implies the true dominating region lies inside
// the ρ/2 disk, where the local computation is exact: any node beating u_i
// at a point within ρ/2 of u_i must itself lie within ρ of u_i.
//
// Boundary nodes (per the angular-gap detector) restrict the domination check
// to the portion of the circle inside the network's coverage and close their
// region with the search ring, which is what pushes them outward during the
// expanding phase (Fig. 3 of the paper).
func (ns *nodeState) localizedRegionRefs(i int, isBoundary bool, rng *rand.Rand, s *Scratch) ([]geom.PolyRef, float64) {
	ui := ns.net.Position(i)
	nbrIDs, rho, clipToRing, invRad := ns.localizedSearch(i, isBoundary, rng, s)
	self := voronoi.Site{ID: i, Pos: ui}
	s.vor.ResetRel()
	for _, j := range nbrIDs {
		pj := ns.net.Position(j)
		s.vor.AppendRel(self, voronoi.Site{ID: j, Pos: pj}, pj.Dist2(ui))
	}
	s.vor.SortRelTail(0)
	refs := voronoi.DominatingRegionSoA(self, ns.cfg.K, ns.reg.Pieces(), ns.reg.PieceBoxes(), &s.vor)
	if clipToRing {
		refs = clipToDiskRefs(refs, geom.Circle{Center: ui, R: rho / 2}, s)
	}
	return refs, invRad
}

// ringTable holds the directions of the 48-gon that closes a boundary
// node's region, shared read-only by every engine and worker.
var ringTable = geom.NewCircleTable(48, math.Pi/48)

// clipToDiskRefs clips a slab-resident region to an inscribed 48-gon of the
// disk — the search ring closing a boundary node's dominating region. The
// ring's vertices come from ringTable (no trigonometry per closure), and
// voronoi.Scratch.ClipToConvexSoA skips every edge whose clip provably keeps
// the whole piece, which is most of them: the region usually lies well
// inside the ring.
func clipToDiskRefs(refs []geom.PolyRef, disk geom.Circle, s *Scratch) []geom.PolyRef {
	if disk.R <= 0 {
		return nil
	}
	s.ring = ringTable.AppendPoints(s.ring[:0], disk)
	return s.vor.ClipToConvexSoA(refs, geom.Polygon(s.ring))
}
