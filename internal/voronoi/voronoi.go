// Package voronoi computes 1-order and k-order (higher-order) Voronoi
// diagrams clipped to a target region, plus per-node dominating regions —
// the geometric core of LAACAD.
//
// Two independent algorithms are provided:
//
//   - DominatingRegion computes a single node's dominating region V^k_{n_i}
//     directly from Proposition 1 of the paper: the set of points for which
//     at most k−1 other generators are closer. It splits region pieces by
//     one bisector at a time, tracking the remaining "closer" budget — a
//     depth-bounded half-plane arrangement walk whose output is a set of
//     disjoint convex polygons. This is what the distributed algorithm runs,
//     since it needs only the node's own neighborhood. The walk runs on a
//     structure-of-arrays Scratch (batch.go); its scalar reference, which
//     tests diff it against bit for bit, is package
//     laacad/internal/voronoi/oracle.
//
//   - KOrderDiagram computes the full k-order Voronoi partition of the
//     region by Lee-style iterative refinement: the order-(j+1) diagram is
//     obtained by subdividing each order-j cell with the 1-order diagram of
//     the non-generators. This is the centralized/global structure used for
//     Fig. 1 and for cross-validating the direct algorithm.
//
// Ties (coincident generators) are broken by generator index: the lower
// index counts as closer. This keeps both algorithms consistent when many
// mobile nodes start stacked in a corner (Fig. 5(a)).
package voronoi

import (
	"fmt"
	"math"
	"sort"

	"laacad/internal/geom"
	"laacad/internal/region"
)

// Site is a Voronoi generator: a sensor node position tagged with its
// stable index in the network.
type Site struct {
	ID  int
	Pos geom.Point
}

// coincidentTol is the squared distance below which two generators are
// considered coincident and index tie-breaking applies. The rel list gives
// every generator within geom.Point.Eq of the query site d² = 0 (see
// Scratch.AppendRel), so no walk asks geom.Bisector for a pair it rejects.
const coincidentTol = 1e-24

// DominatingRegion returns the dominating region of self among the given
// other generators, clipped to the polygons in clip, as a set of disjoint
// convex pieces. k is the coverage order (k ≥ 1): a point belongs to the
// region iff fewer than k of the others are closer to it than self
// (Proposition 1). The clip polygons are typically the region's convex
// pieces, or those pieces further clipped to a search disk in the localized
// algorithm.
//
// The others slice may contain self's ID; it is ignored.
//
// DominatingRegion is the convenience form of the production kernel
// (DominatingRegionBatch) over a throwaway Scratch, returning owned
// polygons; hot loops should hold a Scratch and call DominatingRegionBatch
// (plus CompactRefs when the result must outlive the Scratch).
//
// The kernel walk (splitByBudgetSoA in batch.go; its scalar reference is
// oracle.DominatingRegion in laacad/internal/voronoi/oracle) splits each
// clip piece by one bisector at a time, tracking how many "closer"
// generators the current branch may still tolerate. The neighbor list is
// sorted by ascending distance to self, so once a neighbor's distance d
// satisfies d ≥ 2·max_{v∈poly}‖v−self‖, every point of poly is at least as
// close to self as to that neighbor (‖v−o‖ ≥ d − d/2 = d/2 ≥ ‖v−self‖) and
// the bisector scan stops early — pruning the O(N) scan down to the
// geometrically relevant neighborhood.
func DominatingRegion(self Site, others []Site, k int, clip []geom.Polygon) []geom.Polygon {
	if k < 1 {
		panic(fmt.Sprintf("voronoi: DominatingRegion needs k >= 1, got %d", k))
	}
	boxes := make([]geom.BBox, len(clip))
	for i, p := range clip {
		boxes[i] = p.BBox()
	}
	var s Scratch
	return CompactRefs(&s.Slab, DominatingRegionBatch(self, others, k, clip, boxes, &s))
}

// RegionArea returns the total area of a set of disjoint polygons; a
// convenience for dominating regions.
func RegionArea(polys []geom.Polygon) float64 {
	var a float64
	for _, p := range polys {
		a += p.Area()
	}
	return a
}

// MaxDistFrom returns the farthest distance from q to any vertex of the
// polygons — the circumradius R̂ of a dominating region about a node at q.
func MaxDistFrom(q geom.Point, polys []geom.Polygon) float64 {
	var m float64
	for _, p := range polys {
		if d := p.MaxDistFrom(q); d > m {
			m = d
		}
	}
	return m
}

// Cell is one cell of a k-order Voronoi diagram: the set of points whose k
// nearest generators are exactly Generators (as a sorted ID set), realized
// as disjoint convex polygon pieces clipped to the region.
type Cell struct {
	Generators []int
	Polys      []geom.Polygon
}

// Area returns the total area of the cell.
func (c Cell) Area() float64 { return RegionArea(c.Polys) }

// Diagram is a k-order Voronoi diagram over a region.
type Diagram struct {
	K     int
	Sites []Site
	Cells []Cell
}

// KOrderDiagram computes the k-order Voronoi diagram of sites clipped to
// reg, by iterative refinement from the 1-order diagram. It returns an error
// for invalid k or if fewer than k generators exist.
func KOrderDiagram(sites []Site, k int, reg *region.Region) (*Diagram, error) {
	if k < 1 {
		return nil, fmt.Errorf("voronoi: k must be >= 1, got %d", k)
	}
	if len(sites) < k {
		return nil, fmt.Errorf("voronoi: need at least k=%d sites, got %d", k, len(sites))
	}
	cells := order1Cells(sites, reg.Pieces())
	for order := 1; order < k; order++ {
		cells = refine(sites, cells)
	}
	return &Diagram{K: k, Sites: append([]Site(nil), sites...), Cells: cells}, nil
}

// order1Cells computes the 1-order Voronoi cells of sites clipped to the
// given convex pieces.
func order1Cells(sites []Site, pieces []geom.Polygon) []Cell {
	cells := make([]Cell, 0, len(sites))
	for i, s := range sites {
		var polys []geom.Polygon
		for _, piece := range pieces {
			poly := clipToNearest(s, sites, piece, nil)
			if len(poly) >= 3 && poly.Area() >= 1e-16 {
				polys = append(polys, poly)
			}
		}
		if len(polys) > 0 {
			cells = append(cells, Cell{Generators: []int{sites[i].ID}, Polys: polys})
		}
	}
	return cells
}

// clipToNearest clips piece to the set of points for which s is at least as
// close as every other site not in the skip set; skip maps site IDs to
// ignore (the current cell's generators during refinement).
func clipToNearest(s Site, sites []Site, piece geom.Polygon, skip map[int]bool) geom.Polygon {
	poly := piece
	for _, o := range sites {
		if len(poly) < 3 {
			return nil
		}
		if o.ID == s.ID || skip[o.ID] {
			continue
		}
		if o.Pos.Eq(s.Pos) {
			// Coincident within geom.Point.Eq, where no bisector exists.
			if o.ID < s.ID {
				return nil // tie lost everywhere
			}
			continue
		}
		poly = poly.ClipHalfPlane(geom.Bisector(s.Pos, o.Pos))
	}
	return poly
}

// refine lifts an order-j cell set to order j+1: each cell is subdivided by
// the 1-order Voronoi diagram of the non-generator sites, and each sub-cell
// gains the locally-nearest non-generator.
func refine(sites []Site, cells []Cell) []Cell {
	merged := make(map[string]*Cell)
	for _, c := range cells {
		skip := make(map[int]bool, len(c.Generators))
		for _, g := range c.Generators {
			skip[g] = true
		}
		for _, cand := range sites {
			if skip[cand.ID] {
				continue
			}
			var polys []geom.Polygon
			for _, piece := range c.Polys {
				sub := clipToNearest(cand, sites, piece, skip)
				if len(sub) >= 3 && sub.Area() >= 1e-16 {
					polys = append(polys, sub)
				}
			}
			if len(polys) == 0 {
				continue
			}
			gens := append(append([]int(nil), c.Generators...), cand.ID)
			sort.Ints(gens)
			key := genKey(gens)
			if m, ok := merged[key]; ok {
				m.Polys = append(m.Polys, polys...)
			} else {
				merged[key] = &Cell{Generators: gens, Polys: polys}
			}
		}
	}
	out := make([]Cell, 0, len(merged))
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic order
	for _, k := range keys {
		out = append(out, *merged[k])
	}
	return out
}

// maxDistToBBox returns the maximum distance from p to the corners of b —
// an upper bound on the distance from p to any point inside b. Plain
// Sqrt(dx²+dy²) rather than math.Hypot: Hypot's overflow/underflow guards
// cost several times the arithmetic and are dead weight at region-coordinate
// scale, and this runs once per bisector cut in the kernel's hottest loop.
func maxDistToBBox(p geom.Point, b geom.BBox) float64 {
	dx := math.Max(math.Abs(b.Min.X-p.X), math.Abs(b.Max.X-p.X))
	dy := math.Max(math.Abs(b.Min.Y-p.Y), math.Abs(b.Max.Y-p.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

func genKey(gens []int) string {
	b := make([]byte, 0, 4*len(gens))
	for _, g := range gens {
		b = append(b, byte(g>>24), byte(g>>16), byte(g>>8), byte(g))
	}
	return string(b)
}

// DominatingRegionOf returns the dominating region of the site with the
// given ID as the union of the diagram cells that list it as a generator.
func (d *Diagram) DominatingRegionOf(id int) []geom.Polygon {
	var out []geom.Polygon
	for _, c := range d.Cells {
		for _, g := range c.Generators {
			if g == id {
				out = append(out, c.Polys...)
				break
			}
		}
	}
	return out
}

// TotalArea returns the summed area of all cells — for a valid diagram this
// equals the region area (the cells partition the region).
func (d *Diagram) TotalArea() float64 {
	var a float64
	for _, c := range d.Cells {
		a += c.Area()
	}
	return a
}
