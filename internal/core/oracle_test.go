package core

import (
	"math"
	"math/rand"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/voronoi/oracle"
	"laacad/internal/wsn"
)

// The scalar reference pipeline: the dominating-region assembly the SoA
// kernel replaced, kept only as the oracle the production kernel is diffed
// against. It rebuilds and re-sorts the whole site list on every ρ-doubling,
// always starts from the fallback radius, and clips on the scalar kernel in
// package oracle (on its own oracle.Scratch, next to the core Scratch that
// holds the neighbor and ring buffers) — so a match cross-checks the kernel,
// the incremental rel lists and the warm start at once.

// centralizedRegionScratch is centralizedRegionSoA on the scalar pipeline,
// from the fallback start. It returns the region (arena-owned by ref) and
// its circumradius R̂ about u_i.
func centralizedRegionScratch(net *wsn.Network, reg *region.Region, i, k int, s *Scratch, ref *oracle.Scratch) ([]geom.Polygon, float64) {
	n := net.SearchLen()
	pieces := reg.Pieces()
	diag := reg.BBox().Diagonal()
	ui := net.Position(i)
	self := oracle.Site{ID: i, Pos: ui}
	rho := diag / math.Sqrt(float64(n)) * math.Sqrt(float64(4*k+4))
	var sites []oracle.Site
	for {
		s.nbrs = net.NeighborsWithinBuf(i, rho, s.nbrs)
		sites = sites[:0]
		for _, j := range s.nbrs {
			sites = append(sites, oracle.Site{ID: j, Pos: net.Position(j)})
		}
		polys := oracle.DominatingRegion(self, sites, k, pieces, ref)
		rhat := voronoi.MaxDistFrom(ui, polys)
		if 2*rhat <= rho || len(s.nbrs) == n-1 || rho > 4*diag {
			return polys, rhat
		}
		rho *= 2
	}
}

// localizedRegionOf is localizedRegionRefs on the scalar pipeline. The
// expanding-ring search (and its message accounting) is the production one.
func (e *nodeState) localizedRegionOf(i int, isBoundary bool, rng *rand.Rand, s *Scratch, ref *oracle.Scratch) []geom.Polygon {
	ui := e.net.Position(i)
	nbrIDs, rho, clipToRing, _ := e.localizedSearch(i, isBoundary, rng, s)
	sites := make([]oracle.Site, 0, len(nbrIDs))
	for _, j := range nbrIDs {
		sites = append(sites, oracle.Site{ID: j, Pos: e.net.Position(j)})
	}
	polys := oracle.DominatingRegion(oracle.Site{ID: i, Pos: ui}, sites, e.cfg.K, e.reg.Pieces(), ref)
	if clipToRing {
		polys = clipToDisk(polys, geom.Circle{Center: ui, R: rho / 2}, s, ref)
	}
	return polys
}

// clipToDisk is clipToDiskRefs on the scalar pipeline.
func clipToDisk(polys []geom.Polygon, disk geom.Circle, s *Scratch, ref *oracle.Scratch) []geom.Polygon {
	if disk.R <= 0 {
		return nil
	}
	s.ring = geom.AppendCirclePoints(s.ring[:0], disk, 48, math.Pi/48)
	return ref.ClipToConvex(polys, geom.Polygon(s.ring))
}

// stepRecord is everything one node's step derives from a state, for bitwise
// comparison between the kernels.
type stepRecord struct {
	Polys       []geom.Polygon
	Center      geom.Point
	Ri, Rhat    float64
	Next        geom.Point
	Moved       bool
	Empty       bool
	MessageCost int64
}

// scalarStep runs node i's step on the scalar reference pipeline from the
// fallback start, with loss sampling off, reading the Localized search's
// metered message cost.
func scalarStep(e *nodeState, i int, isBoundary bool, s *Scratch, ref *oracle.Scratch) stepRecord {
	ui := e.net.Position(i)
	var polys []geom.Polygon
	var rhat float64
	if e.cfg.Mode == Localized {
		polys = e.localizedRegionOf(i, isBoundary, nil, s, ref)
		rhat = voronoi.MaxDistFrom(ui, polys)
	} else {
		polys, rhat = centralizedRegionScratch(e.net, e.reg, i, e.cfg.K, s, ref)
	}
	rec := stepRecord{Next: ui, MessageCost: e.searchCost(s)}
	if len(polys) == 0 {
		rec.Empty = true
		return rec
	}
	ci, ri := ChebyshevOfRegion(polys, s)
	out := nodeOutcome{next: ui, ri: ri, rhat: rhat}
	e.finishMove(ui, ci, &out)
	rec.Polys = oracle.CompactRegion(polys)
	rec.Center, rec.Ri, rec.Rhat = ci, out.ri, out.rhat
	rec.Next, rec.Moved = out.next, out.moved
	return rec
}

// kernelStep runs node i's step through the production entry point
// (Stepper.StepNode, warm-started at hint) and records the same quantities.
// A step keeps no region, so the polygons come from the kernel's region
// recompute (regionOf) at the same warm start, which meters its search's
// cost but charges nothing.
func kernelStep(st *Stepper, i int, hint float64, isBoundary bool, s *Scratch) stepRecord {
	net := st.net
	before := net.MessageCount()
	out := st.StepNode(i, hint, isBoundary, nil, s)
	rec := stepRecord{
		Ri:          out.Ri,
		Rhat:        out.Rhat,
		Next:        out.Next,
		Moved:       out.Moved,
		Empty:       out.Empty,
		MessageCost: net.MessageCount() - before,
	}
	if !out.Empty {
		rec.Polys, _ = st.regionOf(i, hint, isBoundary, nil, s)
		rec.Center, _ = ChebyshevOfRegion(rec.Polys, s)
	}
	return rec
}
