package geom

// Contains reports whether p lies in the closed half-plane, within a
// tolerance scaled by the normal's magnitude. Production code tests
// half-plane membership through the clipping walk; tests use this to check
// the half-planes themselves.
func (h HalfPlane) Contains(p Point) bool {
	return h.N.Dot(p)-h.C <= Eps*(1+h.N.Norm()*(1+p.Norm()))
}
