// Package baseline implements the comparison points used in the paper's
// evaluation (Sec. V-C):
//
//   - the Bai et al. optimal 2-coverage density bound (Table I),
//   - the Ammari & Das Reuleaux-triangle "lens" deployment node count and an
//     actual regular deployment generator (Table II),
//   - a min-node adapter that iterates LAACAD while adding/removing nodes
//     until the max sensing range matches a target fixed range (Sec. IV-C).
package baseline

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/region"
)

// BaiMinNodes2Coverage returns the minimum node count for 2-coverage of an
// area with common sensing range r, from the optimal congruent deployment
// density 4π/(3√3) proven by Bai et al. [3] (boundary effects ignored):
//
//	N* = |A| · (4π/3√3) / (πr²) = 4|A| / (3√3 r²)
func BaiMinNodes2Coverage(area, r float64) float64 {
	return 4 * area / (3 * math.Sqrt(3) * r * r)
}

// AmmariLensNodes returns the node count of the Reuleaux-triangle lens
// deployment of Ammari & Das [15] for k-coverage (k ≥ 3) of an area with
// common sensing range r:
//
//	N*_k = 6k|A| / ((4π − 3√3) r²)
func AmmariLensNodes(k int, area, r float64) float64 {
	return 6 * float64(k) * area / ((4*math.Pi - 3*math.Sqrt(3)) * r * r)
}

// TriangularCover returns node positions on a triangular lattice with pitch
// √3·r over the region's bounding box (plus one pitch of margin), restricted
// to points within r of the region. A disk of radius r at each lattice point
// 1-covers the plane at this pitch, so the returned deployment 1-covers the
// region.
func TriangularCover(reg *region.Region, r float64) []geom.Point {
	pitch := math.Sqrt(3) * r
	b := reg.BBox()
	dy := pitch * math.Sqrt(3) / 2
	var pts []geom.Point
	row := 0
	for y := b.Min.Y - pitch; y <= b.Max.Y+pitch; y += dy {
		offset := 0.0
		if row%2 == 1 {
			offset = pitch / 2
		}
		for x := b.Min.X - pitch + offset; x <= b.Max.X+pitch; x += pitch {
			p := geom.Pt(x, y)
			if reg.Contains(p) || reg.DistToBoundary(p) <= r {
				pts = append(pts, p)
			}
		}
		row++
	}
	return pts
}

// MinNodesResult is the outcome of the min-node search.
type MinNodesResult struct {
	// N is the smallest node count found whose converged LAACAD deployment
	// achieves max sensing range ≤ the target range.
	N int
	// MaxRadius is the achieved max sensing range at N nodes.
	MaxRadius float64
	// Result is the deployment at N nodes.
	Result *core.Result
	// Evaluations counts LAACAD runs performed during the search.
	Evaluations int
}

// MinNodes searches for the minimum number of nodes that k-cover reg with a
// common sensing range at most rs, by the iterative adaptation of Sec. IV-C:
// LAACAD is run to convergence and nodes are added while R* > rs and removed
// while R* ≤ rs still holds with fewer nodes (binary search over N). cfg
// carries the LAACAD parameters (K, Alpha, Epsilon, MaxRounds, Mode); node
// positions for each trial size are sampled uniformly with the given seed.
func MinNodes(reg *region.Region, rs float64, cfg core.Config, seed int64) (*MinNodesResult, error) {
	if rs <= 0 {
		return nil, fmt.Errorf("baseline: target sensing range must be positive, got %v", rs)
	}
	// Analytic starting guess: each node covers ≈ πr²/k of the area.
	guess := int(math.Ceil(float64(cfg.K) * reg.Area() / (math.Pi * rs * rs)))
	if guess < cfg.K {
		guess = cfg.K
	}
	evals := 0
	runAt := func(n int) (*core.Result, error) {
		evals++
		rng := rand.New(rand.NewSource(seed))
		start := region.PlaceUniform(reg, n, rng)
		eng, err := core.New(reg, start, cfg)
		if err != nil {
			return nil, err
		}
		return eng.Run(context.Background())
	}

	// Exponential search for an upper bound that satisfies the target.
	lo, hi := cfg.K, guess
	var hiRes *core.Result
	for {
		res, err := runAt(hi)
		if err != nil {
			return nil, err
		}
		if res.MaxRadius() <= rs {
			hiRes = res
			break
		}
		lo = hi + 1
		hi *= 2
		if hi > 1<<20 {
			return nil, fmt.Errorf("baseline: no feasible node count found up to %d", hi)
		}
	}
	// Binary search for the smallest feasible N in [lo, hi].
	bestN, bestRes := hi, hiRes
	for lo < hi {
		mid := (lo + hi) / 2
		res, err := runAt(mid)
		if err != nil {
			return nil, err
		}
		if res.MaxRadius() <= rs {
			bestN, bestRes = mid, res
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return &MinNodesResult{
		N:           bestN,
		MaxRadius:   bestRes.MaxRadius(),
		Result:      bestRes,
		Evaluations: evals,
	}, nil
}
