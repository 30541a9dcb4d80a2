package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laacad/internal/geom"
)

func sample(t *testing.T) *Snapshot {
	t.Helper()
	s, err := New(2, 7, 42, true,
		[]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.2, 0.8)},
		[]float64{0.9, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsMismatch(t *testing.T) {
	if _, err := New(1, 0, 0, false, make([]geom.Point, 2), make([]float64, 3)); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample(t)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != s.K || got.Seed != s.Seed || got.Rounds != s.Rounds || !got.Converged {
		t.Errorf("metadata mismatch: %+v", got)
	}
	pos := got.Positions()
	if len(pos) != 2 || !pos[0].Eq(geom.Pt(0.5, 0.5)) {
		t.Errorf("positions = %v", pos)
	}
	if got.R[1] != 0.8 {
		t.Errorf("radii = %v", got.R)
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := sample(t)
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.X) != 2 {
		t.Errorf("got %d nodes", len(got.X))
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"wrong version":  `{"version": 99, "k": 1, "x": [], "y": [], "r": []}`,
		"length skew":    `{"version": 1, "k": 1, "x": [1], "y": [], "r": []}`,
		"bad k":          `{"version": 1, "k": 0, "x": [], "y": [], "r": []}`,
		"unknown fields": `{"version": 1, "k": 1, "x": [], "y": [], "r": [], "zz": 3}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
