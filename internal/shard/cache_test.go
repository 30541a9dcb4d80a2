package shard

import (
	"fmt"
	"testing"

	"laacad/internal/region"
)

// TestShardCacheEngages checks that the shards' caches actually serve. The
// bit-identity matrix cannot see a cache that silently stopped caching,
// because the cache never changes the bits; the shared state's counters can.
// Every case, stepped to convergence, recomputes no node on any shard in one
// more round (as core.Engine does).
func TestShardCacheEngages(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, tc := range identityCases() {
		cfg := tc.cfg
		cfg.MaxRounds = 3000
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/s%d", tc.name, shards), func(t *testing.T) {
				eng, err := New(reg, uniformStart(tc.n, tc.seed), cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				for !eng.Converged() && eng.Round() < cfg.MaxRounds {
					eng.Step()
				}
				if !eng.Converged() {
					t.Fatalf("not converged after %d rounds", cfg.MaxRounds)
				}
				before := make([]uint64, len(eng.workers))
				for s, w := range eng.workers {
					before[s] = w.st.CacheCounters().BatchNodes
				}
				eng.Step()
				for s, w := range eng.workers {
					if got := w.st.CacheCounters().BatchNodes - before[s]; got != 0 {
						t.Errorf("round %d: shard %d recomputed %d nodes after convergence, want 0", eng.Round(), s, got)
					}
				}
			})
		}
	}
}
