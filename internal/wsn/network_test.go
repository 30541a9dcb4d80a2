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

func TestHopNeighborhood(t *testing.T) {
	n := New(linePositions(5, 1), 1.1)
	got := n.HopNeighborhood(0, 2)
	want := map[int]int{1: 1, 2: 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("hop[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Unlimited-ish hops reach everyone on the line.
	all := n.HopNeighborhood(0, 10)
	if len(all) != 4 {
		t.Errorf("full reach = %d nodes, want 4", len(all))
	}
	// A disconnected node is never reached.
	pts := append(linePositions(3, 1), geom.Pt(100, 100))
	n2 := New(pts, 1.1)
	if r := n2.HopNeighborhood(0, 50); len(r) != 2 {
		t.Errorf("disconnected reach = %v", r)
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
	found := n.RingQuery(2, 1.5, RingGeometric)
	sort.Ints(found)
	if !equal(found, []int{1, 3}) {
		t.Errorf("found = %v", found)
	}
	st := n.Stats()
	if st.Messages == 0 || st.ByNode[2] != st.Messages {
		t.Errorf("stats = %+v", st)
	}
	// Cost: 1 + 2 rebroadcasts + 2 replies of 1 hop + ... deterministic:
	// 1 + 2 + (1 + 1) = 5.
	if st.Messages != 5 {
		t.Errorf("messages = %d, want 5", st.Messages)
	}
}

func TestRingQueryHopLimited(t *testing.T) {
	// A gap in the line: node 3 is at x=10, unreachable.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(10, 0)}
	n := New(pts, 1.1)
	found := n.RingQuery(0, 3, RingHopLimited)
	sort.Ints(found)
	if !equal(found, []int{1, 2}) {
		t.Errorf("found = %v", found)
	}
	// The geometric mode would also return only 1, 2 here (3 is 10 away),
	// but with a reachable-but-far topology they differ:
	pts2 := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0)} // within rho=3 but > gamma
	n2 := New(pts2, 1.1)
	if got := n2.RingQuery(0, 3, RingHopLimited); len(got) != 0 {
		t.Errorf("hop-limited should not reach isolated node, got %v", got)
	}
	if got := n2.RingQuery(0, 3, RingGeometric); len(got) != 1 {
		t.Errorf("geometric should see the node, got %v", got)
	}
}

func TestRingQueryPanicsOnBadMode(t *testing.T) {
	n := New(linePositions(2, 1), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.RingQuery(0, 1, RingQueryMode(99))
}

func TestChargeAccumulates(t *testing.T) {
	n := New(linePositions(2, 1), 1)
	n.Charge(0, 3)
	n.Charge(1, 4)
	st := n.Stats()
	if st.Messages != 7 || st.ByNode[0] != 3 || st.ByNode[1] != 4 {
		t.Errorf("stats = %+v", st)
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
	if n.MessageCount() != n.Stats().Messages {
		t.Error("MessageCount disagrees with Stats().Messages")
	}
}
