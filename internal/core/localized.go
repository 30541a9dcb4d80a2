package core

import (
	"math/rand"

	"laacad/internal/geom"
	"laacad/internal/wsn"
)

// localizedSearch runs the expanding-ring phase of Algorithm 2 for node i —
// metering every message the node sends into s.msgs, charging none — and
// returns the gathered neighbor IDs (the last probe's answer, held in
// s.probe until the next search on s), the final ring radius ρ, whether the
// region must be closed with the ρ/2 ring, and the search's invalidation
// radius: the whole computation — every ring probe, the domination
// sampling, the coverage check and the region construction — read only
// positions within that distance of u_i, so the result (and its exact
// message cost) is reproducible bit for bit until some position inside that
// ball changes. That radius is the final ρ (the ring query returns exactly
// the nodes within ρ), floored at γ. The scalar test oracle shares the
// search, so the two assemblies are message-identical by construction.
func (ns *nodeState) localizedSearch(i int, isBoundary bool, rng *rand.Rand, s *Scratch) ([]int, float64, bool, float64) {
	gamma := ns.cfg.Gamma
	rho := 0.0
	var nbrIDs []int
	clipToRing := isBoundary
	s.msgs = 0
	query := func(radius float64) []int {
		var cost int64
		if ns.cfg.LossRate > 0 {
			s.probe, cost = ns.net.RingQueryLossy(i, radius, wsn.LossyRingConfig{
				LossRate: ns.cfg.LossRate,
				Retries:  ns.cfg.LossRetries,
			}, rng, s.probe)
		} else {
			s.probe, cost = ns.net.RingQuery(i, radius, s.probe)
		}
		s.msgs += cost
		return s.probe
	}
	for {
		rho += gamma
		if rho >= ns.cfg.RingCap {
			rho = ns.cfg.RingCap
			nbrIDs = query(rho)
			clipToRing = true
			break
		}
		nbrIDs = query(rho)
		dominated, sampled := ns.circleDominated(i, nbrIDs, rho/2, isBoundary)
		if dominated {
			if sampled == 0 {
				// The whole check circle fell outside the region (or the
				// covered area): the ring bounds what we know, so close the
				// region with it.
				clipToRing = true
			}
			break
		}
	}
	invRad := rho
	if invRad < gamma {
		// Possible only when RingCap < γ clamps the very first probe. The
		// entry's boundary flag reads the full γ-ball (the angular-gap
		// detector's locality), so the invalidation ball must cover it.
		invRad = gamma
	}
	return nbrIDs, rho, clipToRing, invRad
}

// arcPhase is the angle of the domination check's first circle sample; a
// small offset keeps the samples off axis-aligned region boundaries.
const arcPhase = 1e-3

// circleDominated implements lines 5–8 of Algorithm 2: it samples the circle
// of radius r around node i and reports whether every valid sample already
// has at least k closer nodes among nbrIDs. Samples outside the region are
// always skipped (the region boundary naturally bounds dominating regions);
// for boundary nodes, samples outside the network's covered area are skipped
// as well. The second return value is the number of samples actually
// checked. The ArcSamples directions come from the node state's table, so a
// probe evaluates no trigonometry; each sample is generated as it is tested
// and is bitwise the point AppendCirclePoints would produce.
func (ns *nodeState) circleDominated(i int, nbrIDs []int, r float64, isBoundary bool) (bool, int) {
	ui := ns.net.Position(i)
	k := ns.cfg.K
	sampled := 0
	c := geom.Circle{Center: ui, R: r}
	for a := 0; a < ns.arc.Len(); a++ {
		v := ns.arc.Point(c, a)
		if !ns.reg.Contains(v) {
			continue
		}
		if isBoundary && !ns.covered(v, i, nbrIDs) {
			continue
		}
		sampled++
		closer := 0
		d2 := ui.Dist2(v)
		for _, j := range nbrIDs {
			if ns.net.Position(j).Dist2(v) < d2 {
				closer++
				if closer >= k {
					break
				}
			}
		}
		if closer < k {
			return false, sampled
		}
	}
	return true, sampled
}

// covered reports whether v lies in the network's communication-coverage
// area as known to node i: within γ of the node itself or of any gathered
// neighbor. This approximates the coverage boundary (the green curve in the
// paper's Fig. 3) from purely local information.
func (ns *nodeState) covered(v geom.Point, i int, nbrIDs []int) bool {
	g2 := ns.cfg.Gamma * ns.cfg.Gamma
	if ns.net.Position(i).Dist2(v) <= g2 {
		return true
	}
	for _, j := range nbrIDs {
		if ns.net.Position(j).Dist2(v) <= g2 {
			return true
		}
	}
	return false
}
