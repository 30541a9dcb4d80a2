// Package boundary provides network-boundary detection for LAACAD.
//
// The paper delegates boundary detection to the UNFOLD service [29]; the
// deployment algorithm consumes only a single bit per node ("am I on the
// boundary of the network's coverage"). Two detectors compute that bit:
//
//   - AngularGap: the standard localized heuristic — a node is a boundary
//     node if the directions to its one-hop neighbors leave an angular gap
//     larger than 2π/3. It uses only local ranging/bearing information,
//     matching the localized spirit of the paper, and is the detector the
//     round engines run. Its verdict for node i reads only positions within
//     the transmission range γ of node i; the engines' incremental flag
//     cache relies on that ("one-hop ball unchanged ⇒ flag unchanged").
//
//   - Hull: a centralized geometric oracle — a node is a boundary node if it
//     lies within a tolerance of the convex hull of all node positions. It
//     exists to validate AngularGap in tests and experiments.
package boundary

import (
	"math"
	"slices"

	"laacad/internal/geom"
	"laacad/internal/wsn"
)

// gapThreshold is the angular-gap limit in radians: 2π/3 classifies
// hexagonal-lattice interiors as interior.
const gapThreshold = 2 * math.Pi / 3

// Scratch holds the reusable buffers of one boundary-detection consumer:
// the neighbor-ID and bearing slices a per-node evaluation needs. Following
// the voronoi.Scratch pattern, a zero Scratch is ready to use, buffers grow
// to the working-set size on first use, and subsequent evaluations through
// the same Scratch are allocation-free. A Scratch must not be shared between
// goroutines.
type Scratch struct {
	nbrs   []int
	angles []float64
}

// Reserve grows s's buffers to at least the capacities o's have reached,
// keeping s's contents, so s serves whatever o has served without growing.
func (s *Scratch) Reserve(o *Scratch) {
	s.nbrs = geom.GrowCap(s.nbrs, cap(o.nbrs))
	s.angles = geom.GrowCap(s.angles, cap(o.angles))
}

// AngularGap is a localized boundary detector. A node with fewer than three
// one-hop neighbors is always a boundary node; otherwise the node sorts the
// bearings of its neighbors and reports boundary if the largest gap between
// consecutive bearings exceeds 2π/3.
type AngularGap struct{}

// Boundary returns a boolean per node: true if the node is on the network's
// coverage boundary. One Scratch serves the whole scan, so the only
// allocation is the result slice itself.
func (d AngularGap) Boundary(net *wsn.Network) []bool {
	out := make([]bool, net.Len())
	var s Scratch
	for i := 0; i < net.Len(); i++ {
		out[i] = d.BoundaryNodeScratch(net, i, &s)
	}
	return out
}

// BoundaryNodeScratch reports whether node i is a boundary node, using s for
// all temporaries: allocation-free once s has grown to the neighborhood
// size. It reads only the positions of node i's one-hop neighbors and is
// safe for concurrent use between network mutations (one s per goroutine).
func (AngularGap) BoundaryNodeScratch(net *wsn.Network, i int, s *Scratch) bool {
	s.nbrs = net.NeighborsWithinBuf(i, net.Gamma(), s.nbrs)
	if len(s.nbrs) < 3 {
		return true
	}
	p := net.Position(i)
	angles := s.angles[:0]
	for _, j := range s.nbrs {
		q := net.Position(j)
		if q.Dist2(p) < geom.Eps*geom.Eps {
			continue // coincident neighbor has no bearing
		}
		angles = append(angles, q.Sub(p).Angle())
	}
	s.angles = angles
	if len(angles) < 3 {
		return true
	}
	slices.Sort(angles)
	maxGap := 2*math.Pi - (angles[len(angles)-1] - angles[0]) // wrap-around gap
	for i := 1; i < len(angles); i++ {
		if g := angles[i] - angles[i-1]; g > maxGap {
			maxGap = g
		}
	}
	return maxGap > gapThreshold
}

// Hull is a centralized boundary oracle: nodes within Tol of the convex hull
// of all positions are boundary nodes. A zero Tol uses γ/2.
type Hull struct {
	Tol float64
}

// Boundary returns a boolean per node: true if the node lies within the
// tolerance of the convex hull.
func (d Hull) Boundary(net *wsn.Network) []bool {
	tol := d.Tol
	if tol == 0 {
		tol = net.Gamma() / 2
	}
	out := make([]bool, net.Len())
	hull := geom.ConvexHull(net.Positions())
	if len(hull) < 3 {
		for i := range out {
			out[i] = true
		}
		return out
	}
	for i := 0; i < net.Len(); i++ {
		out[i] = distToPolyBoundary(net.Position(i), hull) <= tol
	}
	return out
}

func distToPolyBoundary(p geom.Point, poly geom.Polygon) float64 {
	best := math.Inf(1)
	n := len(poly)
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		d := b.Sub(a)
		l2 := d.Norm2()
		var q geom.Point
		if l2 < geom.Eps*geom.Eps {
			q = a
		} else {
			t := p.Sub(a).Dot(d) / l2
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			q = a.Add(d.Scale(t))
		}
		if dd := p.Dist(q); dd < best {
			best = dd
		}
	}
	return best
}
