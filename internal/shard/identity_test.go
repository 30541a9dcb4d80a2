package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/region"
)

func uniformStart(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

// requireIdentical asserts the sharded result is bit-identical to the
// shared-memory engine's: positions, radii, trace, message totals, rounds
// and convergence.
func requireIdentical(t *testing.T, want, got *core.Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds: got %d want %d", got.Rounds, want.Rounds)
	}
	if got.Converged != want.Converged {
		t.Fatalf("converged: got %v want %v", got.Converged, want.Converged)
	}
	if len(got.Positions) != len(want.Positions) {
		t.Fatalf("positions length: got %d want %d", len(got.Positions), len(want.Positions))
	}
	for i := range want.Positions {
		if got.Positions[i] != want.Positions[i] {
			t.Fatalf("node %d position: got %v want %v", i, got.Positions[i], want.Positions[i])
		}
	}
	for i := range want.Radii {
		if got.Radii[i] != want.Radii[i] {
			t.Fatalf("node %d radius: got %v want %v", i, got.Radii[i], want.Radii[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length: got %d want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("trace[%d]: got %+v want %+v", i, got.Trace[i], want.Trace[i])
		}
	}
	if got.Messages != want.Messages {
		t.Fatalf("messages: got %d want %d", got.Messages, want.Messages)
	}
}

// identityCase is one cell of the bit-identity matrix. converges says
// whether the case converges within its round cap: a converged run takes the
// finalize reuse path, an unconverged one the recompute path.
type identityCase struct {
	name      string
	cfg       core.Config
	n         int
	seed      int64
	converges bool
}

func identityCases() []identityCase {
	sync := core.DefaultConfig(2)
	sync.Epsilon = 1e-3
	sync.MaxRounds = 300 // the converging cases take 61–127 rounds

	seq := sync
	seq.Order = core.Sequential

	loc := core.DefaultConfig(2)
	loc.Mode = core.Localized
	loc.Gamma = 0.25
	loc.Epsilon = 1e-3
	loc.MaxRounds = 300

	locSeq := loc
	locSeq.Order = core.Sequential

	short := sync
	short.MaxRounds = 8 // unconverged: exercises the finalize recompute path

	lossy := loc
	lossy.LossRate = 0.3
	lossy.MaxRounds = 25

	return []identityCase{
		{"sync-centralized", sync, 28, 42, true},
		{"seq-centralized", seq, 28, 42, true},
		{"localized", loc, 28, 42, true},
		{"localized-seq", locSeq, 24, 7, true},
		{"sync-unconverged", short, 28, 42, false},
		{"localized-lossy", lossy, 24, 11, false},
	}
}

// TestShardBitIdentityMatrix is the tentpole acceptance test: for every case
// × shard count × worker count the sharded engine must reproduce the
// shared-memory engine's result bit for bit.
func TestShardBitIdentityMatrix(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, tc := range identityCases() {
		start := uniformStart(tc.n, tc.seed)
		ref, err := core.New(reg, start, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want.Converged != tc.converges {
			t.Fatalf("%s: converged %v after %d rounds, want %v", tc.name, want.Converged, want.Rounds, tc.converges)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/s%d/w%d", tc.name, shards, workers)
				t.Run(name, func(t *testing.T) {
					cfg := tc.cfg
					cfg.Workers = workers
					eng, err := New(reg, start, cfg, shards)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					requireIdentical(t, want, got)
				})
			}
		}
	}
}
