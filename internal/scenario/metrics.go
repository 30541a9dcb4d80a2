package scenario

import (
	"laacad/internal/core"
	"laacad/internal/metrics"
)

// WithMetrics publishes the run's observability surface into reg:
//
//   - A live gauge over the WSN's concurrency-safe message total
//     ("wsn.messages"). It reads a true atomic, so a scrape taken in the
//     middle of a round (even mid-wave) is exact and monotone: ring searches
//     only meter their cost, and a node pays it at its own turn, so the
//     total never includes speculative work and never moves backwards.
//
//   - Per-round counters snapshotted by an internal observer after every
//     completed round: the engine's cumulative cache/invalidation work
//     ("cache.*"), colored-sweep speculation accounting ("spec.*"), the
//     level scheduler's layout and wave widths ("engine.levels",
//     "engine.level_width_max", "batch.size_*"; a wave is one "spec.waves"
//     launch), batch-kernel volume ("batch.nodes"), incremental
//     boundary-flag evaluations ("flags.evals"), spatial-index
//     work ("wsn.rebuilds", "wsn.incremental_moves"), and round progress
//     ("engine.rounds", "engine.moved_last_round",
//     "engine.messages_last_round"). Their sources are plain fields owned
//     by the engine goroutine, so they are published only at the between-
//     rounds observation point.
//
// The option composes with WithObserver and WithSnapshotEvery; publication
// happens before the user observer runs, so an observer reading reg sees
// the round it was called for. Async (event-driven) and sharded
// (WithShards) runners publish only the round-progress counters.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// instrument registers r's gauges in reg and returns the per-round
// publication callback attach folds into the engine observer.
func instrument(r *labeledRunner, reg *metrics.Registry) func(core.RoundStats) {
	rounds := reg.Counter("engine.rounds")
	moved := reg.Counter("engine.moved_last_round")
	msgs := reg.Counter("engine.messages_last_round")
	eng, ok := Engine(r)
	if !ok {
		return func(st core.RoundStats) {
			rounds.Set(int64(st.Round))
			moved.Set(int64(st.Moved))
			msgs.Set(st.Messages)
		}
	}
	net := eng.Network()
	reg.Gauge("wsn.messages", net.MessageCount)
	counters := map[string]*metrics.Counter{
		"cache.hits":             reg.Counter("cache.hits"),
		"cache.inverse_scans":    reg.Counter("cache.inverse_scans"),
		"cache.pair_scans":       reg.Counter("cache.pair_scans"),
		"cache.cell_visits":      reg.Counter("cache.cell_visits"),
		"cache.candidate_visits": reg.Counter("cache.candidate_visits"),
		"cache.pair_visits":      reg.Counter("cache.pair_visits"),
		"cache.bound_rebuilds":   reg.Counter("cache.bound_rebuilds"),
		"spec.waves":             reg.Counter("spec.waves"),
		"spec.computed":          reg.Counter("spec.computed"),
		"spec.used":              reg.Counter("spec.used"),
		"spec.wasted":            reg.Counter("spec.wasted"),
		"engine.levels":          reg.Counter("engine.levels"),
		"engine.level_width_max": reg.Counter("engine.level_width_max"),
		"batch.nodes":            reg.Counter("batch.nodes"),
		"flags.evals":            reg.Counter("flags.evals"),
		"wsn.rebuilds":           reg.Counter("wsn.rebuilds"),
		"wsn.incremental_moves":  reg.Counter("wsn.incremental_moves"),
	}
	// Wave-size histogram: one counter per bucket, set from the engine's
	// cumulative BatchSizeHist after every round.
	sizeBuckets := [...]*metrics.Counter{
		reg.Counter("batch.size_1"),
		reg.Counter("batch.size_2_3"),
		reg.Counter("batch.size_4_7"),
		reg.Counter("batch.size_8_15"),
		reg.Counter("batch.size_16_31"),
		reg.Counter("batch.size_32_plus"),
	}
	return func(st core.RoundStats) {
		rounds.Set(int64(st.Round))
		moved.Set(int64(st.Moved))
		msgs.Set(st.Messages)
		cc := eng.CacheCounters()
		counters["cache.hits"].Set(int64(cc.CacheHits))
		counters["cache.inverse_scans"].Set(int64(cc.InverseScans))
		counters["cache.pair_scans"].Set(int64(cc.PairScans))
		counters["cache.cell_visits"].Set(int64(cc.CellVisits))
		counters["cache.candidate_visits"].Set(int64(cc.CandidateVisits))
		counters["cache.pair_visits"].Set(int64(cc.PairVisits))
		counters["cache.bound_rebuilds"].Set(int64(cc.BoundRebuilds))
		counters["spec.waves"].Set(int64(cc.Waves))
		counters["spec.computed"].Set(int64(cc.SpecComputed))
		counters["spec.used"].Set(int64(cc.SpecUsed))
		counters["spec.wasted"].Set(int64(cc.SpecWasted))
		counters["engine.levels"].Set(int64(cc.Levels))
		counters["engine.level_width_max"].Set(int64(cc.LevelWidthMax))
		counters["batch.nodes"].Set(int64(cc.BatchNodes))
		for b, ctr := range sizeBuckets {
			ctr.Set(int64(cc.BatchSizeHist[b]))
		}
		counters["flags.evals"].Set(int64(cc.FlagEvals))
		counters["wsn.rebuilds"].Set(int64(net.Rebuilds()))
		counters["wsn.incremental_moves"].Set(int64(net.IncrementalMoves()))
	}
}
