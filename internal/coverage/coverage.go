// Package coverage verifies k-area coverage of a sensor deployment and
// computes the load metrics reported in the paper's evaluation (max/total
// sensing load, min/max sensing range).
//
// Verification is grid-based: the region is sampled at cell centers of a
// uniform grid and each sample's coverage depth (number of sensing disks
// containing it) is counted. Definition 1 of the paper holds when the
// minimum depth over all samples is at least k.
package coverage

import (
	"fmt"
	"math"
	"sort"

	"laacad/internal/geom"
	"laacad/internal/parallel"
	"laacad/internal/region"
)

// Report summarizes the coverage of a deployment over a region.
type Report struct {
	// Samples is the number of in-region grid samples checked.
	Samples int
	// MinDepth and MaxDepth are the extrema of per-sample coverage depth.
	MinDepth, MaxDepth int
	// MeanDepth is the average coverage depth (the deployment's redundancy).
	MeanDepth float64
	// DepthHist[d] counts samples covered by exactly d sensors, for
	// d ≤ len(DepthHist)−1; deeper samples are accumulated in the last bin.
	DepthHist []int
	// WorstPoint is a sample achieving MinDepth (useful for debugging).
	WorstPoint geom.Point
}

// KCovered reports whether every sample is covered at least k times.
func (r Report) KCovered(k int) bool { return r.Samples > 0 && r.MinDepth >= k }

// FracAtLeast returns the fraction of samples covered by at least k sensors.
func (r Report) FracAtLeast(k int) float64 {
	if r.Samples == 0 {
		return 0
	}
	covered := 0
	for d := len(r.DepthHist) - 1; d >= 0 && d >= k; d-- {
		covered += r.DepthHist[d]
	}
	return float64(covered) / float64(r.Samples)
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("coverage{samples=%d depth=[%d,%d] mean=%.2f}",
		r.Samples, r.MinDepth, r.MaxDepth, r.MeanDepth)
}

// Verify samples reg on a resolution×resolution grid and measures the
// coverage depth of the deployment given by node positions and per-node
// sensing radii. It panics if positions and radii lengths differ. The
// sample loop runs serially; use VerifyWorkers for the parallel form.
func Verify(positions []geom.Point, radii []float64, reg *region.Region, resolution int) Report {
	return VerifyWorkers(positions, radii, reg, resolution, 0)
}

// VerifyWorkers is Verify with the per-sample depth measurements fanned
// across worker goroutines (the shared convention of parallel.Workers:
// 0 = serial, negative = all CPUs). The report is bit-identical for every
// worker count: each worker reduces its own partial extrema tracking the
// earliest sample index achieving them, and the final reduction breaks ties
// the same way — so the MinDepth witness (WorstPoint) is always the sample
// the serial sweep would have picked.
func VerifyWorkers(positions []geom.Point, radii []float64, reg *region.Region, resolution, workers int) Report {
	if len(positions) != len(radii) {
		panic(fmt.Sprintf("coverage: %d positions vs %d radii", len(positions), len(radii)))
	}
	samples := reg.GridPoints(resolution)
	rep := Report{
		Samples:   len(samples),
		MinDepth:  math.MaxInt,
		DepthHist: make([]int, 16),
	}
	if len(samples) == 0 {
		rep.MinDepth = 0
		return rep
	}
	// Spatial pruning: sort sensors by x and use the max radius as a window.
	type sensor struct {
		p geom.Point
		r float64
	}
	sensors := make([]sensor, len(positions))
	var maxR float64
	for i := range positions {
		sensors[i] = sensor{positions[i], radii[i]}
		if radii[i] > maxR {
			maxR = radii[i]
		}
	}
	sort.Slice(sensors, func(a, b int) bool { return sensors[a].p.X < sensors[b].p.X })
	xs := make([]float64, len(sensors))
	for i, s := range sensors {
		xs[i] = s.p.X
	}

	type partial struct {
		minDepth, minIdx int
		maxDepth         int
		total            int64
		hist             [16]int
	}
	w := parallel.Workers(workers)
	parts := make([]partial, max(w, 1))
	for i := range parts {
		parts[i].minDepth = math.MaxInt
		parts[i].minIdx = math.MaxInt
	}
	parallel.ForWorker(len(samples), w, func(wk, si int) {
		v := samples[si]
		depth := 0
		lo := sort.SearchFloat64s(xs, v.X-maxR)
		for j := lo; j < len(sensors) && xs[j] <= v.X+maxR; j++ {
			s := sensors[j]
			if s.p.Dist2(v) <= s.r*s.r*(1+1e-12)+geom.Eps {
				depth++
			}
		}
		p := &parts[wk]
		p.total += int64(depth)
		if depth < p.minDepth || (depth == p.minDepth && si < p.minIdx) {
			p.minDepth, p.minIdx = depth, si
		}
		if depth > p.maxDepth {
			p.maxDepth = depth
		}
		p.hist[min(depth, len(p.hist)-1)]++
	})

	var totalDepth int64
	minIdx := math.MaxInt
	for i := range parts {
		p := &parts[i]
		if p.minIdx == math.MaxInt {
			continue // worker got no samples
		}
		totalDepth += p.total
		if p.minDepth < rep.MinDepth || (p.minDepth == rep.MinDepth && p.minIdx < minIdx) {
			rep.MinDepth, minIdx = p.minDepth, p.minIdx
		}
		if p.maxDepth > rep.MaxDepth {
			rep.MaxDepth = p.maxDepth
		}
		for d, c := range p.hist {
			rep.DepthHist[d] += c
		}
	}
	rep.WorstPoint = samples[minIdx]
	rep.MeanDepth = float64(totalDepth) / float64(rep.Samples)
	return rep
}
