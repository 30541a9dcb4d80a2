package laacad

import (
	"context"

	"laacad/internal/core"
	"laacad/internal/metrics"
	"laacad/internal/scenario"
	"laacad/internal/snapshot"
)

// Unified deployment API: Scenario + Runner.
//
// A Scenario is a single replayable value bundling everything that defines
// a run — named region, named placement generator, node count, and engine
// configuration — and Run drives any execution regime (synchronous rounds,
// localized Algorithm 2, event-driven async) through one cancellable,
// observable entry point:
//
//	sc, _ := laacad.LookupScenario("corner")
//	ctx, cancel := context.WithCancel(context.Background())
//	res, err := laacad.Run(ctx, sc,
//		laacad.WithWorkers(-1),
//		laacad.WithObserver(func(r laacad.Runner, st laacad.RoundStats) error {
//			fmt.Printf("round %d: R=%.4f\n", st.Round, st.MaxCircumradius)
//			return nil // or laacad.ErrStop to end the run early
//		}))
//
// Cancelling ctx mid-run returns the partial Result together with ctx's
// error; a checkpoint taken afterwards (Runner.Snapshot, or automatically
// via WithSnapshotEvery) resumes the remaining rounds bit-identically to an
// uninterrupted run — the determinism contract extended to interrupted runs.

// Scenario is a complete, replayable deployment definition; resolve named
// ones with LookupScenario or build ad-hoc values directly.
type Scenario = scenario.Scenario

// Runner is the common interface of every execution regime: Run(ctx) plus
// Snapshot(). Both the synchronous core engine and the event-driven
// simulator implement it.
type Runner = scenario.Runner

// Observer streams RoundStats to the caller as rounds (or τ epochs)
// complete; see WithObserver.
type Observer = scenario.Observer

// RunOption customizes a Run/NewRunner/Resume call.
type RunOption = scenario.Option

// Checkpoint is a resumable deployment state (see Runner.Snapshot and
// Resume). Engine checkpoints resume bit-identically; async checkpoints
// resume positionally.
type Checkpoint = snapshot.State

// ErrStop is the sentinel an Observer returns to end a run early and
// cleanly: Run finalizes and returns the partial Result with a nil error.
var ErrStop = core.ErrStop

// Run builds the scenario's Runner and drives it to completion (or
// cancellation) under ctx — the unified entry point every regime flows
// through.
func Run(ctx context.Context, sc Scenario, opts ...RunOption) (*Result, error) {
	return scenario.Run(ctx, sc, opts...)
}

// NewRunner builds the Runner for a scenario without starting it — use
// this when you need the Runner handle afterwards (e.g. to Snapshot an
// interrupted run).
func NewRunner(sc Scenario, opts ...RunOption) (Runner, error) {
	return scenario.NewRunner(sc, opts...)
}

// Resume continues a checkpointed run to completion under ctx, resolving
// the region through the registry.
func Resume(ctx context.Context, st *Checkpoint, opts ...RunOption) (*Result, error) {
	return scenario.Resume(ctx, st, opts...)
}

// ResumeRunner rebuilds a Runner from a checkpoint without starting it.
func ResumeRunner(st *Checkpoint, opts ...RunOption) (Runner, error) {
	return scenario.ResumeRunner(st, opts...)
}

// ReadCheckpoint parses the resumable checkpoint at path.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	return snapshot.ReadStateFile(path)
}

// WithObserver streams every completed round (or τ epoch) to fn. The
// observer runs between rounds and may stop the run (ErrStop), abort it
// (any other error), checkpoint it, or mutate topology via EngineOf for
// failure injection.
func WithObserver(fn Observer) RunOption { return scenario.WithObserver(fn) }

// WithWorkers overrides Config.Workers for this run; results are
// bit-identical for every value.
func WithWorkers(n int) RunOption { return scenario.WithWorkers(n) }

// WithMaxRounds overrides Config.MaxRounds for this run (ignored by async
// scenarios, whose budget is AsyncConfig.MaxTime).
func WithMaxRounds(n int) RunOption { return scenario.WithMaxRounds(n) }

// WithSnapshotEvery checkpoints the run every `every` rounds into sink —
// e.g. a file writer for crash-safe long runs.
func WithSnapshotEvery(every int, sink func(*Checkpoint) error) RunOption {
	return scenario.WithSnapshotEvery(every, sink)
}

// MetricsRegistry is a set of named int64 metrics — live gauges over the
// WSN's concurrency-safe counters plus per-round snapshots of the engine's
// cumulative work counters. It implements http.Handler (a flat JSON object
// with sorted keys), so exposing a live run is one line:
//
//	var reg laacad.MetricsRegistry
//	go http.ListenAndServe(addr, &reg)
//	res, err := laacad.Run(ctx, sc, laacad.WithMetrics(&reg))
type MetricsRegistry = metrics.Registry

// WithMetrics publishes the run's observability surface into reg: a live
// gauge ("wsn.messages") that is exact and monotone even when sampled
// mid-round, and per-round counters ("engine.*",
// "cache.*", "spec.*", "flags.evals", "wsn.rebuilds",
// "wsn.incremental_moves") published after every completed round.
func WithMetrics(reg *MetricsRegistry) RunOption { return scenario.WithMetrics(reg) }

// EngineOf unwraps the synchronous round engine behind a Runner, when the
// Runner is one — the handle for AddNode/RemoveNode failure injection from
// an Observer.
func EngineOf(r Runner) (*Engine, bool) { return scenario.Engine(r) }

// AsyncDeploymentOf unwraps the event-driven simulator behind a Runner,
// when the Runner is one.
func AsyncDeploymentOf(r Runner) (*AsyncDeployment, bool) { return scenario.AsyncDeployment(r) }

// Scenario registry.

// Scenarios returns every registered scenario in name order.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// LookupScenario resolves a registered scenario by name.
func LookupScenario(name string) (Scenario, error) { return scenario.Lookup(name) }

// RegisterScenario installs (or replaces) a named scenario; its Region and
// Placement must already be registered.
func RegisterScenario(sc Scenario) error { return scenario.Register(sc) }

// RegionNames returns the registered region names, sorted.
func RegionNames() []string { return scenario.RegionNames() }

// RegisterRegion installs (or replaces) a named region constructor.
func RegisterRegion(name string, fn func() *Region) { scenario.RegisterRegion(name, fn) }

// LookupRegionByName builds the named registered region.
func LookupRegionByName(name string) (*Region, error) { return scenario.LookupRegion(name) }

// PlacementNames returns the registered placement names, sorted.
func PlacementNames() []string { return scenario.PlacementNames() }

// RegisterPlacement installs (or replaces) a named placement generator.
func RegisterPlacement(name string, fn scenario.PlacementFunc) {
	scenario.RegisterPlacement(name, fn)
}
