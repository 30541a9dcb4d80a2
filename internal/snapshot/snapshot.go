// Package snapshot serializes deployments to JSON so experiment outcomes
// can be archived, diffed across code versions, and re-verified
// (coverage.Verify over Positions and R) without re-running the
// (potentially long) deployment.
package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"laacad/internal/geom"
)

// Version identifies the snapshot schema.
const Version = 1

// Snapshot is a serializable deployment outcome.
type Snapshot struct {
	Version int `json:"version"`
	// K is the coverage order the deployment targeted.
	K int `json:"k"`
	// Seed reproduces the run.
	Seed int64 `json:"seed"`
	// Rounds and Converged summarize the run.
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	// X, Y and R are the per-node positions and sensing ranges, stored as
	// parallel arrays to keep files compact and diff-friendly.
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	R []float64 `json:"r"`
}

// New builds a snapshot from deployment output.
func New(k int, seed int64, rounds int, converged bool, positions []geom.Point, radii []float64) (*Snapshot, error) {
	if len(positions) != len(radii) {
		return nil, fmt.Errorf("snapshot: %d positions vs %d radii", len(positions), len(radii))
	}
	s := &Snapshot{
		Version:   Version,
		K:         k,
		Seed:      seed,
		Rounds:    rounds,
		Converged: converged,
		X:         make([]float64, len(positions)),
		Y:         make([]float64, len(positions)),
		R:         append([]float64(nil), radii...),
	}
	for i, p := range positions {
		s.X[i], s.Y[i] = p.X, p.Y
	}
	return s, nil
}

// Positions reconstructs the node positions.
func (s *Snapshot) Positions() []geom.Point {
	out := make([]geom.Point, len(s.X))
	for i := range s.X {
		out[i] = geom.Pt(s.X[i], s.Y[i])
	}
	return out
}

// Write serializes the snapshot as indented JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot to path.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	if err := s.Write(f); err != nil {
		return fmt.Errorf("snapshot: encoding %s: %w", path, err)
	}
	return f.Close()
}

// Read parses a snapshot and validates its shape.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", s.Version, Version)
	}
	if len(s.X) != len(s.Y) || len(s.X) != len(s.R) {
		return nil, fmt.Errorf("snapshot: inconsistent array lengths x=%d y=%d r=%d",
			len(s.X), len(s.Y), len(s.R))
	}
	if s.K < 1 {
		return nil, fmt.Errorf("snapshot: invalid k=%d", s.K)
	}
	return &s, nil
}
