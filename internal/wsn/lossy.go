package wsn

import (
	"fmt"
	"math/rand"
)

// LossyRingConfig describes an unreliable link layer for the expanding-ring
// search: every link-level transmission is lost independently with
// probability LossRate, and a node retries the query up to Retries extra
// times for the neighbors it has not heard from yet.
type LossyRingConfig struct {
	// LossRate is the per-transmission loss probability in [0, 1).
	LossRate float64
	// Retries is the number of re-queries after the first attempt.
	Retries int
}

// RingQueryLossy performs an expanding-ring query over an unreliable link
// layer and returns the nodes heard from with the query's total message
// cost. A discovered node's reply must survive its hop-count transmissions
// (each lost with probability cfg.LossRate); nodes whose replies are lost
// are retried up to cfg.Retries times. Every attempt costs like a normal
// ring query restricted to the still-missing nodes. Like RingQuery, it
// charges nothing and writes its result into buf (the nodes heard from, in
// ascending ID order, filtered in place out of the ideal answer).
//
// The returned set is the subset of the ideal query result whose replies
// got through — under loss, a node may compute its dominating region from
// incomplete information, which enlarges the region (fewer known "closer"
// nodes) but never breaks coverage: the true region is always a subset of
// the computed one.
func (n *Network) RingQueryLossy(i int, rho float64, cfg LossyRingConfig, rng *rand.Rand, buf []int) ([]int, int64) {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		panic(fmt.Sprintf("wsn: loss rate must be in [0, 1), got %v", cfg.LossRate))
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	// The ideal result, costed as one normal query.
	ideal, cost := n.RingQuery(i, rho, buf)
	if cfg.LossRate == 0 {
		return ideal, cost
	}
	heard := make(map[int]bool, len(ideal))
	missing := ideal
	for attempt := 0; attempt <= cfg.Retries && len(missing) > 0; attempt++ {
		if attempt > 0 {
			// A retry floods the ring again: the rebroadcasts plus the
			// replies we are about to receive.
			cost += 1 + int64(len(missing))
		}
		var still []int
		for _, j := range missing {
			hops := n.replyHops(i, j)
			delivered := true
			for h := 0; h < hops; h++ {
				if rng.Float64() < cfg.LossRate {
					delivered = false
					break
				}
			}
			if delivered {
				heard[j] = true
				cost += int64(hops)
			} else {
				still = append(still, j)
			}
		}
		missing = still
	}
	out := ideal[:0]
	for _, j := range ideal {
		if heard[j] {
			out = append(out, j)
		}
	}
	return out, cost
}

// replyHops estimates the hop count of j's reply to i.
func (n *Network) replyHops(i, j int) int {
	h := int(n.pos[i].Dist(n.pos[j])/n.gamma) + 1
	if h < 1 {
		h = 1
	}
	return h
}
