package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestCircleTableMatchesAppendCirclePoints requires every table point to be
// bitwise equal to the point AppendCirclePoints computes, for the engine's
// two tables — the domination check's (64, 1e-3) and the ring closure's
// (48, π/48) — and every n from 8 to 128, over circles from 10⁻³ to 10³.
func TestCircleTableMatchesAppendCirclePoints(t *testing.T) {
	type spec struct {
		n     int
		phase float64
	}
	specs := []spec{{64, 1e-3}, {48, math.Pi / 48}}
	for n := 8; n <= 128; n++ {
		specs = append(specs, spec{n, 1e-3}, spec{n, math.Pi / float64(n)})
	}
	rng := rand.New(rand.NewSource(17))
	var want, got []Point
	for _, sp := range specs {
		tab := NewCircleTable(sp.n, sp.phase)
		if tab.Len() != sp.n {
			t.Fatalf("n=%d: table has %d directions", sp.n, tab.Len())
		}
		for trial := 0; trial < 20; trial++ {
			scale := math.Pow(10, float64(rng.Intn(7)-3))
			c := Circle{Center: Pt(scale*(rng.Float64()-0.5), scale*(rng.Float64()-0.5)), R: scale * rng.Float64()}
			want = AppendCirclePoints(want[:0], c, sp.n, sp.phase)
			got = tab.AppendPoints(got[:0], c)
			for i := range want {
				p := tab.Point(c, i)
				if !sameBits(want[i], got[i]) || !sameBits(want[i], p) {
					t.Fatalf("n=%d phase=%v circle %v sample %d: AppendCirclePoints %v, table %v / %v",
						sp.n, sp.phase, c, i, want[i], got[i], p)
				}
			}
		}
	}
}

func sameBits(a, b Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
