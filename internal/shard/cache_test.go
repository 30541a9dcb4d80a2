package shard

import (
	"fmt"
	"testing"

	"laacad/internal/region"
)

// TestShardCacheEngages checks that the shards' caches actually serve. The
// bit-identity matrix cannot see a cache that silently stopped caching,
// because the cache never changes the bits; the shared state's counters can.
// Every cached case, stepped to convergence, recomputes no node on any shard
// in one more round (as core.Engine does), while the lossy case — whose
// outcomes are never reusable — recomputes every node.
func TestShardCacheEngages(t *testing.T) {
	reg := region.UnitSquareKm()
	for _, tc := range identityCases() {
		cfg := tc.cfg
		lossy := cfg.LossRate > 0
		if !lossy {
			cfg.MaxRounds = 3000
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/s%d", tc.name, shards), func(t *testing.T) {
				eng, err := New(reg, uniformStart(tc.n, tc.seed), cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				for !eng.Converged() && eng.Round() < cfg.MaxRounds {
					eng.Step()
				}
				if !lossy && !eng.Converged() {
					t.Fatalf("not converged after %d rounds", cfg.MaxRounds)
				}
				before := make([]uint64, len(eng.workers))
				for s, w := range eng.workers {
					before[s] = w.st.CacheCounters().BatchNodes
				}
				eng.Step()
				var total uint64
				for s, w := range eng.workers {
					got := w.st.CacheCounters().BatchNodes - before[s]
					total += got
					if !lossy && got != 0 {
						t.Errorf("round %d: shard %d recomputed %d nodes after convergence, want 0", eng.Round(), s, got)
					}
				}
				if lossy && total < uint64(tc.n) {
					t.Errorf("round %d: lossy run recomputed %d nodes, want all %d", eng.Round(), total, tc.n)
				}
			})
		}
	}
}
