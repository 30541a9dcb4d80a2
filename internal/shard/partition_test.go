package shard

import (
	"math"
	"math/rand"
	"testing"

	"laacad/internal/region"
)

// TestPartitionEveryNodeExactlyOneShard property-tests the ownership
// function: every x-coordinate inside the region maps to exactly one stripe,
// and that stripe's interval actually contains the coordinate (half-open
// below the last cut, closed at the top edge).
func TestPartitionEveryNodeExactlyOneShard(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(1))
	for _, s := range []int{1, 2, 3, 4, 7, 8, 16} {
		p := NewPartition(reg, s)
		xmin, xmax := p.XRange()
		for trial := 0; trial < 2000; trial++ {
			var x float64
			switch trial % 4 {
			case 0:
				x = xmin + rng.Float64()*(xmax-xmin)
			case 1: // exact cut points — the half-open contract's edge
				x = p.Cut(rng.Intn(s + 1))
			case 2: // just below a cut
				x = math.Nextafter(p.Cut(rng.Intn(s+1)), math.Inf(-1))
			default: // just above a cut
				x = math.Nextafter(p.Cut(rng.Intn(s+1)), math.Inf(1))
			}
			if x < xmin || x > xmax {
				continue
			}
			owner := p.Shard(x)
			if owner < 0 || owner >= s {
				t.Fatalf("s=%d x=%v: owner %d out of range", s, x, owner)
			}
			// Count stripes claiming x under the ownership definition:
			// [Cut(i), Cut(i+1)) for i < s-1, [Cut(s-1), Cut(s)] for the last.
			claims := 0
			for i := 0; i < s; i++ {
				lo, hi := p.Bounds(i)
				if x >= lo && (x < hi || (i == s-1 && x <= hi)) {
					claims++
				}
			}
			if claims != 1 {
				t.Fatalf("s=%d x=%v: %d stripes claim the node, want exactly 1", s, x, claims)
			}
			lo, hi := p.Bounds(owner)
			if x < lo || x > hi {
				t.Fatalf("s=%d x=%v: owner stripe %d spans [%v,%v], does not contain x", s, x, owner, lo, hi)
			}
		}
	}
}

// TestPartitionHaloSymmetry property-tests halo reachability: stripe j lies
// within halo width w of stripe i exactly when i lies within w of j — the
// symmetry that makes the serve protocol's pairwise exchanges well-defined
// (if A must see B's border, B must see A's).
func TestPartitionHaloSymmetry(t *testing.T) {
	reg := region.UnitSquareKm()
	rng := rand.New(rand.NewSource(2))
	for _, s := range []int{2, 3, 4, 8} {
		p := NewPartition(reg, s)
		for trial := 0; trial < 500; trial++ {
			w := rng.Float64() * 1.5 // halo widths up to 1.5× the region
			for i := 0; i < s; i++ {
				ilo, ihi := p.Bounds(i)
				for j := 0; j < s; j++ {
					jlo, jhi := p.Bounds(j)
					// Stripe j intersects i's w-widened band iff the interval
					// gap is ≤ w — a symmetric relation.
					ij := jlo <= ihi+w && jhi >= ilo-w
					ji := ilo <= jhi+w && ihi >= jlo-w
					if ij != ji {
						t.Fatalf("s=%d w=%v: halo reach asymmetric between stripes %d and %d", s, w, i, j)
					}
				}
			}
		}
	}
}
