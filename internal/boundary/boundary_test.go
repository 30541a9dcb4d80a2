package boundary

import (
	"testing"

	"laacad/internal/geom"
	"laacad/internal/wsn"
)

func TestAngularGapOnHexLattice(t *testing.T) {
	pts := wsn.HexLattice(7, 7, 1)
	net := wsn.New(pts, 1.1)
	got := AngularGap{}.Boundary(net)

	// Interior nodes of a hex lattice have 6 neighbors at 60° spacing: never
	// boundary. Extremal-row/column nodes must be boundary.
	center := wsn.CenterIndex(pts)
	if got[center] {
		t.Error("central lattice node misclassified as boundary")
	}
	if !got[0] {
		t.Error("corner node not classified as boundary")
	}
	// Compare against the hull oracle: every hull-boundary node with the
	// default tolerance must also be flagged by the angular gap detector.
	oracle := Hull{}.Boundary(net)
	for i := range got {
		if oracle[i] && !got[i] {
			// Hull tolerance γ/2 can flag second-ring nodes; only strict
			// hull vertices are a hard requirement. Check distance 0 nodes.
			hull := geom.ConvexHull(net.Positions())
			onHull := false
			for _, v := range hull {
				if v.Eq(net.Position(i)) {
					onHull = true
					break
				}
			}
			if onHull {
				t.Errorf("node %d on convex hull but AngularGap says interior", i)
			}
		}
	}
}

func TestAngularGapFewNeighbors(t *testing.T) {
	// Isolated and degree-1/2 nodes are always boundary.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(50, 50)}
	net := wsn.New(pts, 1.5)
	got := AngularGap{}.Boundary(net)
	for i, b := range got {
		if !b {
			t.Errorf("node %d with <3 neighbors should be boundary", i)
		}
	}
}

func TestAngularGapCoincidentNeighbors(t *testing.T) {
	// Neighbors stacked on the node contribute no bearing; the node should
	// fall back to boundary rather than crash.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(0, 0)}
	net := wsn.New(pts, 1)
	got := AngularGap{}.Boundary(net)
	if !got[0] {
		t.Error("node with only coincident neighbors should be boundary")
	}
}

// A Scratch reused across nodes must agree with a fresh one on every node,
// including the degenerate low-degree and coincident cases.
func TestBoundaryNodeScratchMatchesPlain(t *testing.T) {
	pts := wsn.HexLattice(9, 9, 1)
	pts = append(pts, geom.Pt(0, 0), geom.Pt(50, 50)) // coincident + isolated
	net := wsn.New(pts, 1.1)
	d := AngularGap{}
	var s Scratch
	for i := 0; i < net.Len(); i++ {
		if got, want := d.BoundaryNodeScratch(net, i, &s), d.BoundaryNodeScratch(net, i, &Scratch{}); got != want {
			t.Errorf("node %d: reused scratch says %v, fresh scratch says %v", i, got, want)
		}
	}
}

// The boundary path is allocation-free through a warmed Scratch — the
// contract the engine's per-round flag repairs rely on.
func TestBoundaryNodeScratchZeroAllocs(t *testing.T) {
	pts := wsn.HexLattice(10, 10, 1)
	net := wsn.New(pts, 1.1)
	net.Rebuild()
	d := AngularGap{}
	center := wsn.CenterIndex(pts)
	var s Scratch
	d.BoundaryNodeScratch(net, center, &s) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		if d.BoundaryNodeScratch(net, center, &s) {
			t.Fatal("lattice center misclassified as boundary")
		}
		if !d.BoundaryNodeScratch(net, 0, &s) {
			t.Fatal("lattice corner misclassified as interior")
		}
	})
	if allocs != 0 {
		t.Errorf("BoundaryNodeScratch allocates %v per run, want 0", allocs)
	}
}

func TestHullDetector(t *testing.T) {
	var pts []geom.Point // 5×5 grid, pitch 1
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			pts = append(pts, geom.Pt(float64(c), float64(r)))
		}
	}
	net := wsn.New(pts, 1.5)
	got := Hull{Tol: 0.1}.Boundary(net)
	// Exactly the outer ring (16 nodes of 25) is within 0.1 of the hull.
	count := 0
	for _, b := range got {
		if b {
			count++
		}
	}
	if count != 16 {
		t.Errorf("boundary count = %d, want 16", count)
	}
	// Center node interior.
	if got[12] {
		t.Error("center of 5x5 lattice misclassified")
	}
}

func TestHullDegenerate(t *testing.T) {
	// Two collinear nodes: hull has < 3 vertices, everyone is boundary.
	net := wsn.New([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 2)
	got := Hull{}.Boundary(net)
	if !got[0] || !got[1] {
		t.Error("degenerate hull: all nodes should be boundary")
	}
}
