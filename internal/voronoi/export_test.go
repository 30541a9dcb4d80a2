package voronoi

// culledPieces returns how many clip pieces DominatingRegionSoA has skipped
// as k-dominated on s, so the cull tests can require that the cull fired.
func culledPieces(s *Scratch) int { return s.culled }
