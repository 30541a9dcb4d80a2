package core

import (
	"bytes"
	"testing"

	"laacad/internal/geom"
	"laacad/internal/region"
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
