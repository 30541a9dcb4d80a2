package core

import (
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/voronoi"
	"laacad/internal/wsn"
)

// RingProbe reports the outcome of one expanding-ring search (Algorithm 2)
// for a single node, without moving anything — the measurement behind the
// paper's Fig. 2 (how many hops a node needs to compute its k-order
// dominating region).
type RingProbe struct {
	// Hops is the final ring radius in units of γ (ρ ≈ Hops·γ; rounded when
	// ringCap clamps ρ).
	Hops int
	// Neighbors is the number of nodes inside the final ring.
	Neighbors int
	// Messages is the link-level message cost of the search.
	Messages int64
	// Region is the resulting dominating region.
	Region []geom.Polygon
}

// ExpandingRing runs Algorithm 2 for node i over the network as it stands
// and returns the probe result. The search is the Localized engine's own
// (localizedSearch) for an interior node: each ring gathers N(n_i, ρ), and
// it expands in increments of γ until the circle of radius ρ/2 around the
// node is fully non-dominated (sampled with arcSamples points, skipping
// samples outside reg). ringCap bounds ρ; pass 0 for the region diagonal.
// The network is not charged.
func ExpandingRing(net *wsn.Network, reg *region.Region, i, k, arcSamples int, ringCap float64) RingProbe {
	if arcSamples < 8 {
		arcSamples = 64
	}
	e := &nodeState{net: net}
	e.install(reg, Config{
		K:          k,
		Gamma:      net.Gamma(),
		ArcSamples: arcSamples,
		RingCap:    ringCap,
	})
	s := NewScratch()
	nbrIDs, rho, _, _ := e.localizedSearch(i, false, nil, s)
	sites := make([]voronoi.Site, 0, len(nbrIDs))
	for _, j := range nbrIDs {
		sites = append(sites, voronoi.Site{ID: j, Pos: net.Position(j)})
	}
	polys := voronoi.DominatingRegion(voronoi.Site{ID: i, Pos: net.Position(i)}, sites, k, reg.Pieces())
	return RingProbe{
		Hops:      int(rho/net.Gamma() + 0.5),
		Neighbors: len(nbrIDs),
		Messages:  s.msgs,
		Region:    polys,
	}
}
