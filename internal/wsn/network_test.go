package wsn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"laacad/internal/geom"
)

func linePositions(n int, spacing float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*spacing, 0)
	}
	return pts
}

func TestNewPanicsOnBadGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for gamma <= 0")
		}
	}()
	New(nil, 0)
}

func TestBasicAccessors(t *testing.T) {
	pts := linePositions(3, 1)
	n := New(pts, 1.5)
	if n.Len() != 3 || n.Gamma() != 1.5 {
		t.Fatalf("Len=%d Gamma=%v", n.Len(), n.Gamma())
	}
	if !n.Position(1).Eq(geom.Pt(1, 0)) {
		t.Errorf("Position(1) = %v", n.Position(1))
	}
	cp := n.Positions()
	cp[0] = geom.Pt(99, 99)
	if n.Position(0).Eq(geom.Pt(99, 99)) {
		t.Error("Positions must return a copy")
	}
	n.SetPosition(0, geom.Pt(5, 5))
	if !n.Position(0).Eq(geom.Pt(5, 5)) {
		t.Error("SetPosition did not take effect")
	}
}

func TestSetPositionsPanicsOnCountMismatch(t *testing.T) {
	n := New(linePositions(3, 1), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.SetPositions(make([]geom.Point, 2))
}

func TestNeighborsWithin(t *testing.T) {
	// Nodes at x = 0, 1, 2, 3, 4.
	n := New(linePositions(5, 1), 1.1)
	got := n.NeighborsWithin(2, 1.5)
	sort.Ints(got)
	if !equal(got, []int{1, 3}) {
		t.Errorf("NeighborsWithin(2, 1.5) = %v", got)
	}
	got = n.NeighborsWithin(2, 2.5)
	sort.Ints(got)
	if !equal(got, []int{0, 1, 3, 4}) {
		t.Errorf("NeighborsWithin(2, 2.5) = %v", got)
	}
	// Strictly-within semantics: distance exactly rho is excluded.
	got = n.NeighborsWithin(0, 1.0)
	if len(got) != 0 {
		t.Errorf("strict inequality violated: %v", got)
	}
}

func TestNeighborsWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	n := New(pts, 0.7)
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(len(pts))
		rho := rng.Float64() * 3
		got := n.NeighborsWithin(i, rho)
		sort.Ints(got)
		var want []int
		for j, p := range pts {
			if j != i && p.Dist(pts[i]) < rho {
				want = append(want, j)
			}
		}
		if !equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestOneHop(t *testing.T) {
	n := New(linePositions(4, 1), 1.5)
	got := n.OneHop(0)
	sort.Ints(got)
	if !equal(got, []int{1}) {
		t.Errorf("OneHop(0) = %v", got)
	}
}

func TestConnected(t *testing.T) {
	if !New(nil, 1).Connected() {
		t.Error("empty network should be connected")
	}
	if !New(linePositions(5, 1), 1.1).Connected() {
		t.Error("line should be connected")
	}
	if New(linePositions(5, 1), 0.9).Connected() {
		t.Error("sparse line should be disconnected")
	}
}

func TestDegreeStats(t *testing.T) {
	n := New(linePositions(3, 1), 1.1)
	minD, maxD, mean := n.DegreeStats()
	if minD != 1 || maxD != 2 {
		t.Errorf("min=%d max=%d", minD, maxD)
	}
	if math.Abs(mean-4.0/3.0) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
	minD, maxD, mean = New(nil, 1).DegreeStats()
	if minD != 0 || maxD != 0 || mean != 0 {
		t.Error("empty network degree stats should be zero")
	}
}

func TestRingQueryGeometric(t *testing.T) {
	n := New(linePositions(5, 1), 1.1)
	found, cost := n.RingQuery(2, 1.5, nil)
	sort.Ints(found)
	if !equal(found, []int{1, 3}) {
		t.Errorf("found = %v", found)
	}
	// The query returns its cost and charges nothing.
	if got := n.MessageCount(); got != 0 {
		t.Errorf("query charged the network %d messages", got)
	}
	// Cost: 1 + 2 rebroadcasts + 2 replies of 1 hop + ... deterministic:
	// 1 + 2 + (1 + 1) = 5.
	if cost != 5 {
		t.Errorf("cost = %d, want 5", cost)
	}
}

func TestChargeAccumulates(t *testing.T) {
	n := New(linePositions(2, 1), 1)
	n.Charge(3)
	n.Charge(4)
	if got := n.MessageCount(); got != 7 {
		t.Errorf("MessageCount = %d, want 7", got)
	}
}

// Moving a node must invalidate the spatial index.
func TestIndexInvalidation(t *testing.T) {
	n := New(linePositions(3, 1), 1.1)
	if got := n.OneHop(0); !equal(sorted(got), []int{1}) {
		t.Fatalf("before move: %v", got)
	}
	n.SetPosition(2, geom.Pt(0.5, 0))
	got := sorted(n.OneHop(0))
	if !equal(got, []int{1, 2}) {
		t.Errorf("after move: %v", got)
	}
}

// Negative coordinates must hash into the grid correctly.
func TestNegativeCoordinates(t *testing.T) {
	pts := []geom.Point{geom.Pt(-0.5, -0.5), geom.Pt(-0.4, -0.5), geom.Pt(5, 5)}
	n := New(pts, 1)
	got := sorted(n.NeighborsWithin(0, 0.5))
	if !equal(got, []int{1}) {
		t.Errorf("got %v", got)
	}
}

func sorted(s []int) []int { sort.Ints(s); return s }

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NeighborsWithinBuf must return the same neighbors in the same order as
// NeighborsWithin, and reuse the caller's buffer without allocating once
// capacity suffices.
func TestNeighborsWithinBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	n := New(pts, 0.1)
	n.Rebuild()
	buf := make([]int, 0, len(pts))
	for i := 0; i < len(pts); i += 7 {
		for _, rho := range []float64{0.05, 0.2, 0.6} {
			want := n.NeighborsWithin(i, rho)
			got := n.NeighborsWithinBuf(i, rho, buf)
			if !equal(got, want) {
				t.Fatalf("node %d rho=%v: buf variant differs: %v vs %v", i, rho, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.NeighborsWithinBuf(5, 0.3, buf)
	})
	if allocs > 0 {
		t.Errorf("NeighborsWithinBuf with capacity allocates %v/op, want 0", allocs)
	}
}

// Version must tick on every position mutation so cache consumers can
// detect out-of-band writes.
func TestVersionCountsMutations(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	n := New(pts, 1)
	v0 := n.Version()
	n.SetPosition(0, geom.Pt(0.5, 0.5))
	if n.Version() == v0 {
		t.Error("SetPosition did not bump Version")
	}
	v1 := n.Version()
	n.SetPositions([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	if n.Version() == v1 {
		t.Error("SetPositions did not bump Version")
	}
}
