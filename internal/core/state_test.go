package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/snapshot"
)

// A default-config checkpoint has a fixed wire form. Pinning the bytes keeps
// the checkpoint schema from drifting silently: fields may only be added or
// removed when this golden changes with them.
func TestDefaultCheckpointWireForm(t *testing.T) {
	start := []geom.Point{geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5), geom.Pt(0.5, 0.125)}
	eng, err := New(region.UnitSquareKm(), start, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "version": 1,
 "kind": "engine",
 "round": 0,
 "converged": false,
 "x": [
  0.25,
  0.75,
  0.5
 ],
 "y": [
  0.5,
  0.5,
  0.125
 ],
 "config": {
  "k": 2,
  "alpha": 0.5,
  "epsilon": 0.0005,
  "max_rounds": 500,
  "gamma": 0.15,
  "loss_retries": 2,
  "arc_samples": 64,
  "ring_cap": 1.564213562373095,
  "seed": 0
 }
}
`
	if got := buf.String(); got != want {
		t.Errorf("default checkpoint wire form changed:\n%s\nwant:\n%s", got, want)
	}
}

// A checkpoint written by an earlier build still resumes bit-identically.
// testdata/localized_sequential_round3.json is a Localized Sequential run
// over 30 uniform nodes (uniformStart(30, 17), k=2, γ=0.25, ε=10⁻³,
// 400-round cap, seed 5) checkpointed after round 3, with the normalized
// ring_cap, loss_retries and arc_samples every engine checkpoint carries.
// Resumed, it must finish exactly as the uninterrupted run does.
func TestCommittedCheckpointResumes(t *testing.T) {
	st, err := snapshot.ReadStateFile(filepath.Join("testdata", "localized_sequential_round3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 3 {
		t.Fatalf("checkpoint round = %d, want 3", st.Round)
	}
	reg := region.UnitSquareKm()
	resumed, err := Resume(reg, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Order = Sequential
	cfg.Gamma = 0.25
	cfg.Epsilon = 1e-3
	cfg.MaxRounds = 400
	cfg.Seed = 5
	ref, err := New(reg, uniformStart(30, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged {
		t.Fatal("reference run did not converge")
	}
	if got.Rounds != want.Rounds || got.Converged != want.Converged {
		t.Fatalf("resumed run: rounds %d converged %v, want %d %v", got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	for i := range want.Positions {
		if got.Positions[i] != want.Positions[i] || got.Radii[i] != want.Radii[i] {
			t.Fatalf("node %d: resumed (%v, %v), uninterrupted (%v, %v)",
				i, got.Positions[i], got.Radii[i], want.Positions[i], want.Radii[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("trace[%d]: resumed %+v, uninterrupted %+v", i, got.Trace[i], want.Trace[i])
		}
	}
	if got.Messages != want.Messages {
		t.Fatalf("messages: resumed %d, uninterrupted %d", got.Messages, want.Messages)
	}
}
