package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"laacad/internal/core"
	"laacad/internal/shard"
	"laacad/internal/snapshot"
)

// WithShards must route the run through the sharded engine and produce a
// bitwise-identical Result.
func TestWithShardsBitIdenticalAndMetered(t *testing.T) {
	ref, err := Run(context.Background(), quickScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(quickScenario(11), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ShardEngine(r); !ok {
		t.Fatal("WithShards(3) did not build a sharded engine")
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("sharded result differs from shared-memory result")
	}
}

// A checkpoint written mid-run by the sharded engine resumes bit-identically
// through ResumeRunner on the shared-memory engine.
func TestWithShardsCheckpointResume(t *testing.T) {
	ref, err := Run(context.Background(), quickScenario(12))
	if err != nil {
		t.Fatal(err)
	}
	// One full sharded run, checkpointing every 4 rounds; the first
	// checkpoint is the mid-run state the resume continues from.
	var mid *snapshot.State
	r, err := NewRunner(quickScenario(12), WithShards(2),
		WithSnapshotEvery(4, func(st *snapshot.State) error {
			if mid == nil {
				mid = st
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, ref) {
		t.Fatal("sharded run differs from shared-memory run")
	}
	if mid == nil {
		t.Fatal("no mid-run checkpoint captured")
	}
	rr, err := ResumeRunner(mid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("resumed sharded checkpoint differs from uninterrupted shared-memory run")
	}
}

// The sharded engine runs Synchronous Centralized scenarios from a fresh
// start only. shard.New rejects every other regime with an error naming the
// config field by its wire name, NewRunner with WithShards returns that same
// error, and a resume asked to shard fails instead of running the
// shared-memory engine.
func TestShardedRegimeRejected(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		edit        func(*core.Config)
	}{
		{"sequential", "order", func(c *core.Config) { c.Order = core.Sequential }},
		{"localized", "mode", func(c *core.Config) { c.Mode = core.Localized }},
		{"localized-sequential", "mode", func(c *core.Config) {
			c.Mode, c.Order = core.Localized, core.Sequential
		}},
		{"lossy-localized", "mode", func(c *core.Config) {
			c.Mode, c.LossRate = core.Localized, 0.3
		}},
		{"lossy-centralized", "loss_rate", func(c *core.Config) { c.LossRate = 0.3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := quickScenario(13)
			tc.edit(&sc.Config)
			reg, err := sc.BuildRegion()
			if err != nil {
				t.Fatal(err)
			}
			initial, err := sc.Initial(reg)
			if err != nil {
				t.Fatal(err)
			}
			_, engErr := shard.New(reg, initial, sc.Config, 2)
			if engErr == nil || !strings.Contains(engErr.Error(), tc.field) {
				t.Fatalf("shard.New error %v, want one naming %q", engErr, tc.field)
			}
			if _, err := NewRunner(sc, WithShards(2)); err == nil || err.Error() != engErr.Error() {
				t.Fatalf("NewRunner with WithShards(2): error %v, want %v", err, engErr)
			}
		})
	}

	r, err := NewRunner(quickScenario(13), WithMaxRounds(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeRunner(st, WithShards(2)); err == nil {
		t.Fatal("ResumeRunner with WithShards(2) succeeded, want an error")
	}
	if _, err := ResumeRunner(st, WithShards(1)); err != nil {
		t.Fatalf("ResumeRunner with WithShards(1): %v", err)
	}
}
