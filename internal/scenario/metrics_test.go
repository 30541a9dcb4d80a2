package scenario

import (
	"context"
	"testing"

	"laacad/internal/core"
	"laacad/internal/metrics"
)

// WithMetrics must publish the engine's observability surface: round
// progress after every round, the live message gauge agreeing with the
// result, and the work counters mirroring Engine.CacheCounters.
func TestWithMetricsPublishesEngineSurface(t *testing.T) {
	var reg metrics.Registry
	var last core.CacheCounters
	res, err := Run(context.Background(), quickScenario(7),
		WithMetrics(&reg),
		WithObserver(func(r Runner, st core.RoundStats) error {
			// Publication happens before the user observer: the registry
			// already reflects the round we are being called for.
			if got := reg.Snapshot()["engine.rounds"]; got != int64(st.Round) {
				t.Errorf("round %d: engine.rounds = %d", st.Round, got)
			}
			if eng, ok := Engine(r); ok {
				last = eng.CacheCounters()
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["engine.rounds"]; got != int64(res.Rounds) {
		t.Errorf("engine.rounds = %d, want %d", got, res.Rounds)
	}
	if got := snap["cache.hits"]; got != int64(last.CacheHits) {
		t.Errorf("cache.hits = %d, want %d", got, last.CacheHits)
	}
	if got := snap["batch.nodes"]; got != int64(last.BatchNodes) {
		t.Errorf("batch.nodes = %d, want %d", got, last.BatchNodes)
	}
	if snap["batch.nodes"] == 0 {
		t.Error("batch.nodes never published despite the batch kernel being live")
	}
	if got := snap["engine.levels"]; got != int64(last.Levels) {
		t.Errorf("engine.levels = %d, want %d", got, last.Levels)
	}
	for _, name := range []string{
		"engine.level_width_max", "batch.size_1", "batch.size_2_3",
		"batch.size_4_7", "batch.size_8_15", "batch.size_16_31", "batch.size_32_plus",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("counter %q not registered", name)
		}
	}
	if snap["wsn.rebuilds"] == 0 {
		t.Error("wsn.rebuilds never published")
	}
}

// The localized cell additionally ties the live message gauge to the
// result's total: exact accounting means the last scrape equals
// Result.Messages.
func TestWithMetricsLocalizedMessageGauge(t *testing.T) {
	sc := quickScenario(9)
	sc.Config.Mode = core.Localized
	sc.Config.Gamma = 0.35
	var reg metrics.Registry
	res, err := Run(context.Background(), sc, WithMetrics(&reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("localized run charged no messages")
	}
	if got := reg.Snapshot()["wsn.messages"]; got != res.Messages {
		t.Errorf("wsn.messages gauge = %d, want Result.Messages = %d", got, res.Messages)
	}
}

// Async runners have no engine to unwrap; the option still publishes round
// progress instead of failing.
func TestWithMetricsAsyncFallback(t *testing.T) {
	sc, err := Lookup("async")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 10
	sc.AsyncConfig.Epsilon = 3e-3
	sc.AsyncConfig.MaxTime = 200
	var reg metrics.Registry
	res, err := Run(context.Background(), sc, WithMetrics(&reg))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["engine.rounds"]; got != int64(res.Rounds) {
		t.Errorf("engine.rounds = %d, want %d", got, res.Rounds)
	}
}
