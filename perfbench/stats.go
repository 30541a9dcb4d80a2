package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks — the same rule as numpy's default and
// Python's statistics.quantiles(method="inclusive"). xs is not modified; an
// empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of xs, which must all be positive; it
// weights every entry equally whatever its magnitude. An empty slice or any
// non-positive entry yields 0, which the report treats as a failed metric.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// passMeter records the heap allocation and GC work of each pass of a
// workload.
type passMeter struct {
	last                       runtime.MemStats
	allocMB, gcCycles, gcPause []float64
}

// start collects garbage and takes the baseline for the first pass.
func (p *passMeter) start() {
	runtime.GC()
	runtime.ReadMemStats(&p.last)
}

func (p *passMeter) passDone() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.allocMB = append(p.allocMB, float64(m.TotalAlloc-p.last.TotalAlloc)/1e6)
	p.gcCycles = append(p.gcCycles, float64(m.NumGC-p.last.NumGC))
	p.gcPause = append(p.gcPause, ms(time.Duration(m.PauseTotalNs-p.last.PauseTotalNs)))
	p.last = m
}

// metrics reports the median pass: alloc_mb always, the GC metrics when
// layers is non-nil.
func (p *passMeter) metrics(e2e, layers map[string]float64) {
	e2e["alloc_mb"] = median(p.allocMB)
	if layers != nil {
		layers["runtime.gc_cycles"] = median(p.gcCycles)
		layers["runtime.gc_pause_ms"] = median(p.gcPause)
	}
}
