package scenario

import (
	"context"
	"fmt"

	"laacad/internal/core"
	"laacad/internal/metrics"
	"laacad/internal/shard"
	"laacad/internal/sim"
	"laacad/internal/snapshot"
)

// Runner is the common face of every LAACAD execution regime: the
// synchronous round engine (core.Engine) and the event-driven simulator
// (sim.Deployment) both implement it, so callers drive any regime through
// one code path.
//
// Run executes until convergence, the configured budget (MaxRounds /
// MaxTime), ctx cancellation, or an observer-requested stop. Cancellation
// returns the partial Result together with ctx's error; an Observer
// returning core.ErrStop returns the partial Result with a nil error.
//
// Snapshot captures a resumable checkpoint between rounds (or τ epochs).
// Engine checkpoints resume bit-identically; async checkpoints resume
// positionally (see the snapshot package).
type Runner interface {
	Run(ctx context.Context) (*core.Result, error)
	Snapshot() (*snapshot.State, error)
}

// observable is the hook both engines expose for streaming round stats.
type observable interface {
	SetObserver(func(core.RoundStats) error)
}

// Observer streams rounds as they complete. It runs between rounds with
// the Runner that produced them, so it may stop the run (return
// core.ErrStop), abort it (any other error), checkpoint it (r.Snapshot),
// or inject failures mid-run (Engine(r).RemoveNode / AddNode) — all
// without breaking determinism.
type Observer func(r Runner, stats core.RoundStats) error

// options collects the functional options accepted by NewRunner, Run,
// ResumeRunner and Resume.
type options struct {
	observer      Observer
	workers       *int
	maxRounds     *int
	shards        int
	snapshotEvery int
	snapshotSink  func(*snapshot.State) error
	metrics       *metrics.Registry
}

// Option customizes how a scenario is run.
type Option func(*options)

// WithObserver streams every completed round (or τ epoch) to fn.
func WithObserver(fn Observer) Option {
	return func(o *options) { o.observer = fn }
}

// WithWorkers overrides Config.Workers — the per-round fan-out width — for
// this run. Results are bit-identical for every value.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = &n }
}

// WithMaxRounds overrides Config.MaxRounds for this run. Ignored by async
// scenarios, whose budget is AsyncConfig.MaxTime.
func WithMaxRounds(n int) Option {
	return func(o *options) { o.maxRounds = &n }
}

// WithShards runs the engine sharded: the region is partitioned into n
// vertical stripes, each owned by one shard, and the shards compute their
// rounds in parallel while exchanging ρ-halos of border positions. It is
// kept only for the end-to-end benchmark's sharded fleet deployment, and
// runs only what that deployment runs: a fresh Synchronous Centralized
// scenario, bit-identical to the shared-memory engine for every shard count.
// NewRunner rejects any other config, and ResumeRunner rejects n > 1. n ≤ 1
// selects the shared-memory engine; async scenarios ignore the option.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithSnapshotEvery checkpoints the run every `every` completed rounds
// (or τ epochs), passing each checkpoint to sink — e.g. a file writer for
// crash-safe long runs. A sink error aborts the run.
func WithSnapshotEvery(every int, sink func(*snapshot.State) error) Option {
	return func(o *options) {
		o.snapshotEvery = every
		o.snapshotSink = sink
	}
}

// labeledRunner stamps scenario/region names onto checkpoints so they can
// be resumed through the registry without the caller re-supplying geometry.
type labeledRunner struct {
	inner    Runner
	scenario string
	region   string
}

func (l *labeledRunner) Run(ctx context.Context) (*core.Result, error) { return l.inner.Run(ctx) }

func (l *labeledRunner) Snapshot() (*snapshot.State, error) {
	st, err := l.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	st.Scenario = l.scenario
	st.Region = l.region
	return st, nil
}

func (l *labeledRunner) SetObserver(fn func(core.RoundStats) error) {
	l.inner.(observable).SetObserver(fn)
}

// Engine unwraps the synchronous round engine behind a Runner, if that is
// what it is — the handle for mid-run topology mutation from an Observer.
func Engine(r Runner) (*core.Engine, bool) {
	switch v := r.(type) {
	case *core.Engine:
		return v, true
	case *labeledRunner:
		return Engine(v.inner)
	}
	return nil, false
}

// ShardEngine unwraps the sharded engine behind a Runner, if that is what
// it is — the handle the end-to-end benchmark steps and reads halo-traffic
// statistics through (see WithShards).
func ShardEngine(r Runner) (*shard.Engine, bool) {
	switch v := r.(type) {
	case *shard.Engine:
		return v, true
	case *labeledRunner:
		return ShardEngine(v.inner)
	}
	return nil, false
}

// AsyncDeployment unwraps the event-driven simulator behind a Runner, if
// that is what it is.
func AsyncDeployment(r Runner) (*sim.Deployment, bool) {
	switch v := r.(type) {
	case *sim.Deployment:
		return v, true
	case *labeledRunner:
		return AsyncDeployment(v.inner)
	}
	return nil, false
}

// NewRunner builds the Runner for a scenario: the synchronous engine, or
// the event-driven simulator when sc.Async is set. The returned Runner is
// ready to Run once; options wire in observers, checkpoint sinks and
// config overrides.
func NewRunner(sc Scenario, opts ...Option) (Runner, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	reg, err := sc.BuildRegion()
	if err != nil {
		return nil, err
	}
	initial, err := sc.Initial(reg)
	if err != nil {
		return nil, err
	}
	var inner Runner
	if sc.Async {
		d, err := sim.NewDeployment(reg, initial, sc.AsyncConfig)
		if err != nil {
			return nil, err
		}
		inner = d
	} else {
		cfg := sc.Config
		if o.workers != nil {
			cfg.Workers = *o.workers
		}
		if o.maxRounds != nil {
			cfg.MaxRounds = *o.maxRounds
		}
		if o.shards > 1 {
			eng, err := shard.New(reg, initial, cfg, o.shards)
			if err != nil {
				return nil, err
			}
			inner = eng
		} else {
			eng, err := core.New(reg, initial, cfg)
			if err != nil {
				return nil, err
			}
			inner = eng
		}
	}
	r := &labeledRunner{inner: inner, scenario: sc.Name, region: sc.Region}
	attach(r, &o)
	return r, nil
}

// Run is the one-call unified entry point: build the scenario's Runner and
// drive it to completion (or cancellation) under ctx.
func Run(ctx context.Context, sc Scenario, opts ...Option) (*core.Result, error) {
	r, err := NewRunner(sc, opts...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// ResumeRunner rebuilds a Runner from a checkpoint, resolving the region
// through the registry (checkpoints written by NewRunner carry the region
// name). Options apply as in NewRunner; for engine checkpoints
// WithWorkers/WithMaxRounds override the checkpointed config.
func ResumeRunner(st *snapshot.State, opts ...Option) (Runner, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	regName := st.Region
	if regName == "" && st.Scenario != "" {
		sc, err := Lookup(st.Scenario)
		if err != nil {
			return nil, err
		}
		regName = sc.Region
	}
	if regName == "" {
		return nil, fmt.Errorf("scenario: checkpoint names no region; resume it with core.Resume/sim.Resume and an explicit region")
	}
	reg, err := LookupRegion(regName)
	if err != nil {
		return nil, err
	}
	var inner Runner
	switch st.Kind {
	case snapshot.KindEngine:
		if o.workers != nil {
			st.Config.Workers = *o.workers
		}
		if o.maxRounds != nil {
			st.Config.MaxRounds = *o.maxRounds
		}
		if o.shards > 1 {
			return nil, fmt.Errorf("scenario: a checkpoint resumes on the shared-memory engine only, not with %d shards", o.shards)
		}
		eng, err := core.Resume(reg, st)
		if err != nil {
			return nil, err
		}
		inner = eng
	case snapshot.KindAsync:
		d, err := sim.Resume(reg, st)
		if err != nil {
			return nil, err
		}
		inner = d
	default:
		return nil, fmt.Errorf("scenario: unknown checkpoint kind %q", st.Kind)
	}
	r := &labeledRunner{inner: inner, scenario: st.Scenario, region: regName}
	attach(r, &o)
	return r, nil
}

// Resume is the one-call counterpart of ResumeRunner.
func Resume(ctx context.Context, st *snapshot.State, opts ...Option) (*core.Result, error) {
	r, err := ResumeRunner(st, opts...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// attach composes the metrics publisher, the checkpoint sink and the user
// observer into the engine-level per-round callback.
func attach(r *labeledRunner, o *options) {
	var publish func(core.RoundStats)
	if o.metrics != nil {
		publish = instrument(r, o.metrics)
	}
	if o.observer == nil && o.snapshotSink == nil && publish == nil {
		return
	}
	r.SetObserver(func(st core.RoundStats) error {
		if publish != nil {
			publish(st)
		}
		if o.snapshotSink != nil && o.snapshotEvery > 0 && st.Round > 0 && st.Round%o.snapshotEvery == 0 {
			snap, err := r.Snapshot()
			if err != nil {
				return err
			}
			if err := o.snapshotSink(snap); err != nil {
				return err
			}
		}
		if o.observer != nil {
			return o.observer(r, st)
		}
		return nil
	})
}
