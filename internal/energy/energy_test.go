package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiskArea(t *testing.T) {
	m := DiskArea{}
	if math.Abs(m.Cost(1)-math.Pi) > 1e-12 {
		t.Errorf("Cost(1) = %v", m.Cost(1))
	}
	if m.Cost(0) != 0 {
		t.Errorf("Cost(0) = %v", m.Cost(0))
	}
	// Quadratic scaling.
	if math.Abs(m.Cost(2)-4*m.Cost(1)) > 1e-12 {
		t.Error("not quadratic")
	}
}

func TestPowerDefaults(t *testing.T) {
	m := Power{}
	if math.Abs(m.Cost(3)-9) > 1e-12 {
		t.Errorf("default power cost(3) = %v, want 9", m.Cost(3))
	}
	m4 := Power{C: 2, P: 4}
	if math.Abs(m4.Cost(2)-32) > 1e-12 {
		t.Errorf("2·2⁴ = %v, want 32", m4.Cost(2))
	}
}

func TestLoadsMaxTotal(t *testing.T) {
	radii := []float64{1, 2, 3}
	m := Power{} // r²
	if MaxLoad(radii, m) != 9 {
		t.Errorf("MaxLoad = %v", MaxLoad(radii, m))
	}
	if TotalLoad(radii, m) != 14 {
		t.Errorf("TotalLoad = %v", TotalLoad(radii, m))
	}
	if MaxLoad(nil, m) != 0 || TotalLoad(nil, m) != 0 {
		t.Error("empty slices should give 0")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("balanced loads: %v", got)
	}
	// One active node among n: index = 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single load: %v", got)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty should give 0")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero loads are balanced by convention")
	}
}

// Property: Jain's index is scale-invariant and within (0, 1].
func TestJainIndexProperties(t *testing.T) {
	f := func(a, b, c, scale float64) bool {
		abs := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Abs(math.Mod(v, 100)) + 0.01
		}
		loads := []float64{abs(a), abs(b), abs(c)}
		j := JainIndex(loads)
		if j <= 0 || j > 1+1e-12 {
			return false
		}
		s := abs(scale)
		scaled := []float64{loads[0] * s, loads[1] * s, loads[2] * s}
		return math.Abs(JainIndex(scaled)-j) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Monotonicity: both models increase with r.
func TestModelsMonotone(t *testing.T) {
	models := []Model{DiskArea{}, Power{}, Power{C: 3, P: 4}}
	for _, m := range models {
		prev := -1.0
		for r := 0.0; r <= 2.0; r += 0.1 {
			c := m.Cost(r)
			if c < prev {
				t.Errorf("%T not monotone at r=%v", m, r)
			}
			prev = c
		}
	}
}
