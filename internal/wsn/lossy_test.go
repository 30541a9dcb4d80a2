package wsn

import (
	"math/rand"
	"sort"
	"testing"

	"laacad/internal/geom"
)

func TestRingQueryLossyZeroLossMatchesIdeal(t *testing.T) {
	n := New(linePositions(5, 1), 1.1)
	got, _ := n.RingQueryLossy(2, 1.5, LossyRingConfig{LossRate: 0}, nil, nil)
	sort.Ints(got)
	if !equal(got, []int{1, 3}) {
		t.Errorf("got %v", got)
	}
}

func TestRingQueryLossyPanicsOnBadRate(t *testing.T) {
	n := New(linePositions(3, 1), 1)
	for _, rate := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v should panic", rate)
				}
			}()
			n.RingQueryLossy(0, 1, LossyRingConfig{LossRate: rate}, nil, nil)
		}()
	}
}

func TestRingQueryLossyReturnsSubsetOfIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 60)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	n := New(pts, 0.15)
	ideal := map[int]bool{}
	found, _ := n.RingQuery(0, 0.5, nil)
	for _, j := range found {
		ideal[j] = true
	}
	got, _ := n.RingQueryLossy(0, 0.5, LossyRingConfig{LossRate: 0.5, Retries: 0},
		rand.New(rand.NewSource(9)), nil)
	for _, j := range got {
		if !ideal[j] {
			t.Fatalf("lossy result %d not in ideal set", j)
		}
	}
	if len(got) >= len(ideal) {
		t.Errorf("50%% loss with no retries should drop someone: %d of %d", len(got), len(ideal))
	}
}

func TestRingQueryLossyRetriesRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	n := New(pts, 0.2)
	found, _ := n.RingQuery(0, 0.4, nil)
	ideal := len(found)
	if ideal == 0 {
		t.Skip("degenerate instance")
	}
	// With aggressive retries nearly everything gets through.
	got, _ := n.RingQueryLossy(0, 0.4, LossyRingConfig{LossRate: 0.3, Retries: 10},
		rand.New(rand.NewSource(10)), nil)
	if len(got) < ideal {
		t.Errorf("10 retries at 30%% loss should recover all %d, got %d", ideal, len(got))
	}
}

func TestRingQueryLossyChargesRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 30)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	mk := func(loss float64, retries int, seed int64) int64 {
		_, cost := New(pts, 0.3).RingQueryLossy(0, 0.6, LossyRingConfig{LossRate: loss, Retries: retries},
			rand.New(rand.NewSource(seed)), nil)
		return cost
	}
	clean := mk(0, 0, 1)
	lossy := mk(0.4, 5, 1)
	if lossy <= clean {
		t.Errorf("lossy query should cost more messages: %d vs %d", lossy, clean)
	}
}

func TestRingQueryLossyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := make([]geom.Point, 30)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	run := func() []int {
		n := New(pts, 0.2)
		got, _ := n.RingQueryLossy(0, 0.5, LossyRingConfig{LossRate: 0.3, Retries: 1},
			rand.New(rand.NewSource(42)), nil)
		sort.Ints(got)
		return got
	}
	a, b := run(), run()
	if !equal(a, b) {
		t.Errorf("lossy query not deterministic: %v vs %v", a, b)
	}
}
