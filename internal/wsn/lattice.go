package wsn

import (
	"math"

	"laacad/internal/geom"
)

// HexLattice returns the positions of a triangular (hexagonal-packing)
// lattice with the given number of rows and columns and nearest-neighbor
// pitch. Odd rows are offset by half a pitch, giving every interior node six
// equidistant neighbors — the regular deployment used in the paper's Fig. 2
// to illustrate the expanding-ring search.
func HexLattice(rows, cols int, pitch float64) []geom.Point {
	pts := make([]geom.Point, 0, rows*cols)
	dy := pitch * math.Sqrt(3) / 2
	for r := 0; r < rows; r++ {
		offset := 0.0
		if r%2 == 1 {
			offset = pitch / 2
		}
		for c := 0; c < cols; c++ {
			pts = append(pts, geom.Pt(offset+float64(c)*pitch, float64(r)*dy))
		}
	}
	return pts
}

// UnitLattice returns n points on a ⌈√n⌉×⌈√n⌉ cell-centered lattice over
// the unit square, with `displaced` of them (evenly strided through the
// node IDs) pulled toward the center by half a pitch, plus the lattice
// pitch. A lattice is already near its deployment fixed point, so this is
// the canonical few-movers fixture: only the displaced nodes' neighborhoods
// move, which is the regime the incremental spatial layer is built for —
// the scale benchmarks and the engine's cache-counter tests must agree on
// it, so it lives here rather than in either copy.
func UnitLattice(n, displaced int) ([]geom.Point, float64) {
	side := 1
	for side*side < n {
		side++
	}
	pitch := 1.0 / float64(side)
	pts := make([]geom.Point, 0, n)
	for r := 0; r < side && len(pts) < n; r++ {
		for c := 0; c < side && len(pts) < n; c++ {
			pts = append(pts, geom.Pt((float64(c)+0.5)*pitch, (float64(r)+0.5)*pitch))
		}
	}
	for i := 0; i < displaced; i++ {
		j := i * (n / displaced)
		p := pts[j]
		pts[j] = geom.Pt(p.X+(0.5-p.X)*pitch, p.Y+(0.5-p.Y)*pitch)
	}
	return pts, pitch
}

// CenterIndex returns the index of the lattice point nearest the centroid of
// pts — the "central node" of a regular deployment.
func CenterIndex(pts []geom.Point) int {
	if len(pts) == 0 {
		return -1
	}
	c := geom.Centroid(pts)
	best, bestD := 0, math.Inf(1)
	for i, p := range pts {
		if d := p.Dist2(c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
