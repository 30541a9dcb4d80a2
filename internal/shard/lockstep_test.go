package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"laacad/internal/core"
	"laacad/internal/region"
	"laacad/internal/snapshot"
)

// TestLockstepRounds steps the reference and sharded engines side by side,
// over every bit-identity case at 2 and 4 shards, and requires bitwise-equal
// positions, statistics and convergence after every single round — a
// sharper diagnostic than the end-to-end matrix: when the protocols ever
// diverge, this pins the first round.
func TestLockstepRounds(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, tc := range identityCases() {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/s%d", tc.name, shards), func(t *testing.T) {
				start := uniformStart(tc.n, tc.seed)
				ref, err := core.New(reg, start, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := New(reg, start, tc.cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				for r := 1; r <= tc.cfg.MaxRounds; r++ {
					wstats, wdone := ref.Step()
					gstats, gdone := eng.Step()
					gp := eng.Positions()
					wp := ref.Network().Positions()
					for i := range wp {
						if wp[i] != gp[i] {
							t.Fatalf("round %d: node %d position got %v want %v", r, i, gp[i], wp[i])
						}
					}
					if wstats != gstats {
						t.Fatalf("round %d: stats got %+v want %+v", r, gstats, wstats)
					}
					if wdone != gdone {
						t.Fatalf("round %d: done got %v want %v", r, gdone, wdone)
					}
					if wdone {
						return
					}
				}
			})
		}
	}
}

// TestSnapshotMatchesSharedEngine steps the reference and sharded engines
// side by side, over every bit-identity case at 2 and 4 shards, and requires
// the JSON encodings of their checkpoints to be byte-identical before the
// first round and after every round — Snapshot's promise that a sharded
// checkpoint is the one the shared-memory engine would write.
func TestSnapshotMatchesSharedEngine(t *testing.T) {
	reg := region.UnitSquareKm()
	encode := func(r interface {
		Snapshot() (*snapshot.State, error)
	}) []byte {
		t.Helper()
		st, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range identityCases() {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/s%d", tc.name, shards), func(t *testing.T) {
				start := uniformStart(tc.n, tc.seed)
				ref, err := core.New(reg, start, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := New(reg, start, tc.cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; ; r++ {
					if want, got := encode(ref), encode(eng); !bytes.Equal(got, want) {
						at := 0
						for at < len(got) && at < len(want) && got[at] == want[at] {
							at++
						}
						from := max(at-40, 0)
						t.Fatalf("round %d: sharded checkpoint differs at byte %d: ...%s... want ...%s...",
							r, at, got[from:min(at+40, len(got))], want[from:min(at+40, len(want))])
					}
					if ref.Converged() || r == tc.cfg.MaxRounds {
						return
					}
					ref.Step()
					eng.Step()
				}
			})
		}
	}
}
