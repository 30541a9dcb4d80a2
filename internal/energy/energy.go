// Package energy models per-node sensing energy cost as a monotone function
// of the sensing range, following the paper's choice E(r) = πr² (the area of
// the sensing disk), and provides the aggregate load metrics of Fig. 7 plus
// a load-balance index.
package energy

import (
	"math"
)

// Model maps a sensing range to an energy cost. Implementations must be
// monotonically increasing in r.
type Model interface {
	Cost(r float64) float64
}

// DiskArea is the paper's model: E(r) = πr².
type DiskArea struct{}

// Cost implements Model.
func (DiskArea) Cost(r float64) float64 { return math.Pi * r * r }

// Power is a generalized model E(r) = c·r^p, covering common path-loss
// exponents (p = 2…4).
type Power struct {
	C float64 // scale; zero means 1
	P float64 // exponent; zero means 2
}

// Cost implements Model.
func (m Power) Cost(r float64) float64 {
	c, p := m.C, m.P
	if c == 0 {
		c = 1
	}
	if p == 0 {
		p = 2
	}
	return c * math.Pow(r, p)
}

// MaxLoad returns max_i E(r_i) — the paper's "maximum sensing load".
func MaxLoad(radii []float64, m Model) float64 {
	var mx float64
	for _, r := range radii {
		if c := m.Cost(r); c > mx {
			mx = c
		}
	}
	return mx
}

// TotalLoad returns Σ_i E(r_i) — the paper's "total sensing load".
func TotalLoad(radii []float64, m Model) float64 {
	var s float64
	for _, r := range radii {
		s += m.Cost(r)
	}
	return s
}

// JainIndex returns Jain's fairness index of the load vector:
// (Σx)²/(n·Σx²) ∈ (0, 1], reaching 1 for perfectly balanced loads. It
// quantifies the paper's min-max-fairness claim at convergence.
func JainIndex(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, sum2 float64
	for _, x := range loads {
		sum += x
		sum2 += x * x
	}
	if sum2 == 0 {
		return 1 // all-zero loads are trivially balanced
	}
	return sum * sum / (float64(len(loads)) * sum2)
}
